"""The permutohedron P_n as a regular cell complex of ordered partitions.

Faces are ordered partitions of {1..n}; a face with k blocks has
dimension n − k.  A block is the cup-one bundle on its letters and block
order is product order, so P_n is the resolution summand on n distinct
generators: its faces are that summand's strata in text order, and its
boundary is DEFINED as the summand's transported boundary, certified
independently by ∂∘∂ = 0 and the contractibility homology.  Faces are
walked and ∂ is built on the code words of the resolution module; a
`Face` is made from a face's text or a code word's blocks, and letters
are decoded only for face texts and labels.
"""

from __future__ import annotations

from string import ascii_lowercase

from .algebra import Generator, _word_key, format_word
from .cup1 import Cup1Monomial, bundle_factors, bundle_images, closed_images
from .errors import DomainError, SizeError
from .linalg import homology
from .record import Record
from .resolution import _cell_boundary, _Codes, _stratum_boundary, _stratum_walk

MAX_N = 7


def _check_size(n):
    if not 1 <= n <= MAX_N:
        raise SizeError(f"n must be between 1 and {MAX_N}")


class Face(Record):
    """An ordered partition of {1..n}: blocks are disjoint nonempty
    frozensets whose union is {1..n}."""

    n: int
    blocks: tuple

    def __post_init__(self):
        _check_size(self.n)
        blocks = tuple(frozenset(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        union = set()
        for b in blocks:
            if not b:
                raise DomainError(f"face {self}: empty block in an ordered partition")
            if union & b:
                raise DomainError(f"face {self}: blocks of an ordered partition must be disjoint")
            union |= b
        if union != set(range(1, self.n + 1)):
            raise DomainError(f"face {self}: blocks must partition {{1..{self.n}}}")

    @property
    def dimension(self):
        return self.n - len(self.blocks)

    def __str__(self):
        inner = ",".join("{" + ",".join(str(i) for i in sorted(b)) + "}" for b in self.blocks)
        return f"({inner})"

    @classmethod
    def parse(cls, text, n=None):
        """Parse the canonical text form "({1,3},{2})"."""
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise DomainError(f"cannot parse face {text!r}")
        body = body[1:-1]
        blocks = []
        current = None  # text of the open block, None between blocks
        for ch in body:
            if ch == "{":
                if current is not None:
                    raise DomainError(f"cannot parse face {text!r}: unbalanced braces")
                current = ""
            elif ch == "}":
                if current is None:
                    raise DomainError(f"cannot parse face {text!r}: unbalanced braces")
                try:
                    items = [int(v) for v in current.split(",") if v.strip()]
                except ValueError:
                    raise DomainError(f"cannot parse face {text!r}: block items must be integers") from None
                if len(set(items)) < len(items):
                    raise DomainError(f"cannot parse face {text!r}: an item repeats in a block")
                blocks.append(frozenset(items))
                current = None
            elif current is not None:
                current += ch
            elif ch != "," and not ch.isspace():
                raise DomainError(f"cannot parse face {text!r}: {ch!r} outside a block")
        if current is not None:
            raise DomainError(f"cannot parse face {text!r}: unbalanced braces")
        if n is None:
            n = sum(len(b) for b in blocks)
        return cls(n, tuple(blocks))


def _strata(n):
    """Faces of P_n as lists of (text, code word) pairs in text order,
    indexed by dimension, and the `_Codes` table of their letters: the
    faces of dimension d are the words of n − d blocks of the summand on
    n letters."""
    _check_size(n)
    letters = default_letters(n)
    table = _Codes(bundle_images(letters))
    walk = _stratum_walk(dict.fromkeys((letter.name for letter in letters), 1), table.code)
    index = {letter.name: str(i + 1) for i, letter in enumerate(letters)}
    texts = ["{" + ",".join(index[f.name] for f in bundle_factors(letter)) + "}" for letter in table.letters]
    faces = [sorted(("(" + ",".join(map(texts.__getitem__, word)) + ")", word) for word in walk(k)) for k in range(n, 0, -1)]
    return faces, table


def enumerate_faces(n):
    """All faces of P_n grouped by dimension, in text order: {dim: [Face, ...]}."""
    faces, _ = _strata(n)
    return {dim: [Face.parse(text, n) for text, _ in found] for dim, found in enumerate(faces)}


def default_letters(n):
    """Plain even-degree letters a, b, c, ... for the transport."""
    if n > len(ascii_lowercase):
        raise SizeError("too many letters")
    return [Generator(ascii_lowercase[i], 0, 2) for i in range(n)]


def face_boundary(face):
    """Signed boundary faces of one face, read through the routine of
    boundary_matrices on the images of the face's own blocks, without
    enumerating P_n: a word of the boundary must have one block more and
    use each item once.  Terms are sorted as `TensorElement.sorted_terms`
    sorts the faces' words: one-item blocks first, then by items."""
    if face.dimension < 1:
        raise DomainError(f"face {face}: vertices have no boundary")
    letters = default_letters(face.n)
    blocks = [[letters[i - 1] for i in sorted(block)] for block in face.blocks]
    table = _Codes(closed_images(letters, [Cup1Monomial(block) for block in blocks if len(block) > 1]))
    index = {letter.name: i for i, letter in enumerate(letters, 1)}
    block_of = [tuple(index[f.name] for f in bundle_factors(letter)) for letter in table.letters]  # code -> items

    def facet(w):
        found = tuple(map(block_of.__getitem__, w))
        if len(found) != len(blocks) + 1 or sorted(i for block in found for i in block) != list(range(1, face.n + 1)):
            raise KeyError(w)
        return found

    word = tuple(table.code[tuple(f.name for f in block)] for block in blocks)
    boundary = sorted(_cell_boundary(table, word, facet), key=lambda term: [(len(b) > 1, b) for b in term[0]])
    return [(coeff, Face(face.n, found)) for found, coeff in boundary]


def boundary_matrices(n):
    """Cellular boundary matrices [∂_1, ..., ∂_{n-1}] of P_n, with rows and
    columns in the text order of the faces."""
    faces, table = _strata(n)
    words = [[word for _, word in found] for found in faces]
    return [_stratum_boundary(table, words[dim], words[dim - 1]) for dim in range(1, n)]


def cellular_homology(n):
    """Homology of the P_n cell complex via the integer backend."""
    return homology(boundary_matrices(n))


def iter_cells(n):
    """The f-vector of P_n and an iterator over its cells, each a dict of
    its dimension, face text, monomial label and, above dimension 0, its
    transported boundary, made one at a time in the order of
    `complex_description`.  Only the faces one dimension down are held
    with their labels; a non-face met in a boundary raises DomainError
    while the iterator runs.  Code words are decoded to letters only for
    the labels and their order."""
    faces, table = _strata(n)

    def cells():
        below = {}  # code word of each face one dimension down -> (face text, label, term order key)
        for dim, found in enumerate(faces):
            here = {}
            for text, word in found:
                letters = table.decode(word)
                label = format_word(letters)
                here[word] = (text, label, _word_key(letters))
                entry = {"dimension": dim, "face": text, "label": label}
                if dim >= 1:
                    # the order of TensorElement.sorted_terms, each face's key computed once
                    boundary = sorted(_cell_boundary(table, word, below.__getitem__), key=lambda term: term[0][2])
                    entry["boundary"] = [
                        {"coefficient": coeff, "face": face[0], "label": face[1]} for face, coeff in boundary
                    ]
                yield entry
            below = here

    return [len(found) for found in faces], cells()


def complex_description(n):
    """Cells of P_n with their monomial labels and transported boundaries,
    the cells of `iter_cells` held in one list.

    This is the golden-file structure; for n = 3 it reproduces the
    hexagon with the labels (a⌣₁b)c, c(a⌣₁b), a(b⌣₁c), b(a⌣₁c),
    (a⌣₁c)b, (b⌣₁c)a around the top cell a⌣₁b⌣₁c."""
    f_vector, cells = iter_cells(n)
    return {"n": n, "f_vector": f_vector, "cells": list(cells)}
