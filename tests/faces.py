"""Faces of P_n as words of cup-one bundles and back, the tests' oracle
for the transport: block {i1<...<ik} is the bundle
letter_{i1}⌣₁...⌣₁letter_{ik} (the letter itself when k = 1), in block
order, with one letter per item."""

from cupone.algebra import TensorElement
from cupone.cup1 import Cup1Monomial
from cupone.permutohedron import Face, iter_cells


def monomial_of_face(face, letters):
    """The word of `face` over `letters`, listed in item order, as an element."""
    word = []
    for block in face.blocks:
        members = tuple(letters[i - 1] for i in sorted(block))
        word.append(members[0] if len(members) == 1 else Cup1Monomial(members))
    return TensorElement({tuple(word): 1})


def face_of_monomial(word, letters):
    """The face of a word of disjoint bundles that covers `letters`; `Face`
    refuses any other word."""
    index = {letter.name: i for i, letter in enumerate(letters, 1)}
    blocks = [frozenset(index[f.name] for f in getattr(letter, "factors", (letter,))) for letter in word]
    return Face(len(letters), tuple(blocks))


def f_vector(n):
    """Face counts of P_n by dimension, vertices first."""
    return tuple(iter_cells(n)[0])
