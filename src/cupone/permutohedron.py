"""The permutohedron P_n as a regular cell complex of ordered partitions.

Faces are ordered partitions of {1..n}; a face with k blocks has
dimension n − k.  The cellular boundary is DEFINED by transporting the
resolution differential through the face <-> monomial bijection: a block
becomes a cup-one bundle on the corresponding letters and block order
becomes product order.  The transported boundary is then independently
certified by ∂∘∂ = 0 and the contractibility homology.
"""

from __future__ import annotations

from dataclasses import dataclass
from string import ascii_lowercase

from .algebra import Generator, TensorElement, extend_derivation, format_word
from .cup1 import Cup1Monomial, bundle_images, closed_images
from .errors import DomainError, SizeError
from .linalg import IntMatrix, homology

MAX_N = 7


def _check_size(n):
    if not 1 <= n <= MAX_N:
        raise SizeError(f"n must be between 1 and {MAX_N}")


@dataclass(frozen=True)
class Face:
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
                raise DomainError("empty block in an ordered partition")
            if union & b:
                raise DomainError("blocks of an ordered partition must be disjoint")
            union |= b
        if union != set(range(1, self.n + 1)):
            raise DomainError(f"blocks must partition {{1..{self.n}}}")

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
                    blocks.append(frozenset(int(v) for v in current.split(",") if v.strip()))
                except ValueError:
                    raise DomainError(f"cannot parse face {text!r}: block items must be integers") from None
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


def enumerate_faces(n):
    """All faces of P_n grouped by dimension: {dim: [Face, ...]}."""
    _check_size(n)
    items = list(range(1, n + 1))
    partitions = []

    def walk(remaining, acc):
        if not remaining:
            partitions.append(tuple(acc))
            return
        # next block = any nonempty subset of what remains
        for mask in range(1, 2 ** len(remaining)):
            block = frozenset(remaining[i] for i in range(len(remaining)) if mask >> i & 1)
            nxt = [v for v in remaining if v not in block]
            acc.append(block)
            walk(nxt, acc)
            acc.pop()

    walk(items, [])
    by_dim = {}
    for blocks in partitions:
        face = Face(n, blocks)
        by_dim.setdefault(face.dimension, []).append(face)
    for dim in by_dim:
        by_dim[dim].sort(key=lambda f: str(f))
    return by_dim


def f_vector(n):
    """Face counts by dimension, vertices first."""
    by_dim = enumerate_faces(n)
    return tuple(len(by_dim.get(d, ())) for d in range(n))


def default_letters(n):
    """Plain even-degree letters a, b, c, ... for the transport."""
    if n > len(ascii_lowercase):
        raise SizeError("too many letters")
    return [Generator(ascii_lowercase[i], 0, 2) for i in range(n)]


def monomial_of_face(face, letters):
    """Word of cup-one bundles assigned to a face: block {i1<...<ik}
    becomes letter_{i1}⌣₁...⌣₁letter_{ik}, in block order."""
    if len(letters) != face.n:
        raise DomainError("need one letter per item")
    names = [l.name for l in letters]
    if len(set(names)) != len(names):
        raise DomainError("letters must be distinct")
    if sorted(names) != names:
        raise DomainError("letters must be listed in canonical (sorted) order")
    word = []
    for block in face.blocks:
        members = tuple(letters[i - 1] for i in sorted(block))
        word.append(members[0] if len(members) == 1 else Cup1Monomial(members))
    return TensorElement({tuple(word): 1})


def face_of_monomial(word, letters):
    """Inverse of monomial_of_face on a single word of disjoint bundles."""
    index = {l.name: i + 1 for i, l in enumerate(letters)}
    blocks = []
    seen = set()
    for letter in word:
        factors = letter.factors if isinstance(letter, Cup1Monomial) else (letter,)
        block = set()
        for f in factors:
            if f.name not in index:
                raise DomainError(f"letter {f.name} is not among the face letters")
            block.add(index[f.name])
        if block & seen:
            raise DomainError("monomial repeats a letter; not a face")
        seen |= block
        blocks.append(frozenset(block))
    if seen != set(range(1, len(letters) + 1)):
        raise DomainError("monomial does not cover all letters; not a face")
    return Face(len(letters), tuple(blocks))


def face_boundary(face, letters=None, images=None):
    """Signed boundary faces, by transport of the unshuffle differential.

    `images` is a table of closed letter and bundle images covering the
    face's monomial, such as `bundle_images(letters)` shared by every face;
    without it the images of this face's own bundles are built."""
    if face.dimension < 1:
        raise DomainError("vertices have no boundary")
    letters = default_letters(face.n) if letters is None else letters
    word = monomial_of_face(face, letters)
    if images is None:
        images = closed_images(letters, [l for l in next(iter(word.terms)) if isinstance(l, Cup1Monomial)])
    dw = extend_derivation(images, word)
    out = []
    for w, coeff in dw.sorted_terms():
        out.append((coeff, face_of_monomial(w, letters)))
    return out


def _transport(n):
    """Faces of P_n by dimension, their monomial words in the same order,
    and the closed image table shared by every face."""
    by_dim = enumerate_faces(n)
    letters = default_letters(n)
    words = {dim: [next(iter(monomial_of_face(f, letters).terms)) for f in faces] for dim, faces in by_dim.items()}
    return by_dim, words, bundle_images(letters)


def _transported_boundary(word, images, rows, dim):
    """d(word) of a dim-face; every word of it must be a key of `rows`,
    the words of the (dim − 1)-faces."""
    boundary = extend_derivation(images, TensorElement({word: 1}))
    for w in boundary.terms:
        if w not in rows:
            raise DomainError(f"transported word {format_word(w)} is not a face of dimension {dim - 1}")
    return boundary


def boundary_matrices(n):
    """Cellular boundary matrices [∂_1, ..., ∂_{n-1}] of P_n, with rows and
    columns keyed by the faces' monomial words."""
    by_dim, words, images = _transport(n)
    mats = []
    for dim in range(1, n):
        rows = words[dim - 1]
        index = set(rows)
        columns = [_transported_boundary(w, images, index, dim).terms.items() for w in words[dim]]
        mats.append(IntMatrix.from_columns(rows, columns))
    return mats


def cellular_homology(n):
    """Homology of the P_n cell complex via the integer backend."""
    return homology(boundary_matrices(n))


def complex_description(n):
    """Cells of P_n with their monomial labels and transported boundaries.

    This is the golden-file structure; for n = 3 it reproduces the
    hexagon with the labels (a⌣₁b)c, c(a⌣₁b), a(b⌣₁c), b(a⌣₁c),
    (a⌣₁c)b, (b⌣₁c)a around the top cell a⌣₁b⌣₁c."""
    by_dim, words, images = _transport(n)
    cells = []
    below = {}  # word of each face one dimension down -> (face text, label)
    for dim in sorted(by_dim):
        here = {}
        for face, word in zip(by_dim[dim], words[dim]):
            text, label = str(face), format_word(word)
            here[word] = (text, label)
            entry = {"dimension": dim, "face": text, "label": label}
            if dim >= 1:
                boundary = _transported_boundary(word, images, below, dim).sorted_terms()
                entry["boundary"] = [
                    {"coefficient": coeff, "face": below[w][0], "label": below[w][1]} for w, coeff in boundary
                ]
            cells.append(entry)
        below = here
    return {"n": n, "f_vector": [len(by_dim[d]) for d in range(n)], "cells": cells}
