import pytest

from cupone.algebra import Generator, TensorElement
from cupone.cup1 import Cup1Monomial, bundle_images, cup1_boundary
from cupone.errors import DomainError, SizeError
from cupone.permutohedron import (
    Face,
    boundary_matrices,
    cellular_homology,
    complex_description,
    default_letters,
    enumerate_faces,
    f_vector,
    face_boundary,
    face_of_monomial,
    monomial_of_face,
)


def test_f_vectors():
    assert f_vector(2) == (2, 1)
    assert f_vector(3) == (6, 6, 1)
    assert f_vector(4) == (24, 36, 14, 1)


def test_face_counts_are_fubini_strata():
    # faces with k blocks = surjections onto ordered blocks
    from math import comb

    def ordered_partitions(n, k):
        # k! * Stirling2(n, k) by inclusion-exclusion
        return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1))

    for n in range(1, 6):
        by_dim = enumerate_faces(n)
        for dim, faces in by_dim.items():
            assert len(faces) == ordered_partitions(n, n - dim)


def test_size_guard_and_vertex_boundary():
    with pytest.raises(SizeError):
        enumerate_faces(8)
    with pytest.raises(DomainError):
        face_boundary(Face(2, ({1}, {2})))


def test_face_text_roundtrip():
    f = Face(3, ({1, 3}, {2}))
    assert str(f) == "({1,3},{2})"
    assert Face.parse("({1,3},{2})") == f


@pytest.mark.parametrize("text, message", [
    ("({1}junk,{2})", "'j' outside a block"),
    ("({1},x{2})", "'x' outside a block"),
    ("({1},{2)", "unbalanced braces"),
    ("({1}},{2})", "unbalanced braces"),
    ("({{1},{2})", "unbalanced braces"),
])
def test_face_parse_rejects_text_outside_blocks(text, message):
    with pytest.raises(DomainError, match=message):
        Face.parse(text)
    assert Face.parse(" ( {1, 3} , {2} ) ") == Face(3, ({1, 3}, {2}))


def test_face_validation():
    with pytest.raises(DomainError):
        Face(3, ({1, 2}, {2, 3}))
    with pytest.raises(DomainError):
        Face(3, ({1, 2},))


def test_monomial_face_bijection():
    letters = default_letters(3)
    a, b, c = letters
    top = Face(3, ({1, 2, 3},))
    assert monomial_of_face(top, letters) == TensorElement.of(Cup1Monomial((a, b, c)))
    vertex = Face(3, ({2}, {1}, {3}))
    assert monomial_of_face(vertex, letters) == TensorElement.of(b, a, c)
    edge = Face(3, ({1, 3}, {2}))
    assert monomial_of_face(edge, letters) == TensorElement.of(Cup1Monomial((a, c)), b)
    for by_dim in [enumerate_faces(n) for n in (2, 3, 4)]:
        for faces in by_dim.values():
            for f in faces:
                letters_n = default_letters(f.n)
                word = next(iter(monomial_of_face(f, letters_n).terms))
                assert face_of_monomial(word, letters_n) == f


def test_face_of_monomial_rejects_bad_words():
    letters = default_letters(3)
    a, b, c = letters
    with pytest.raises(DomainError, match="repeats"):
        face_of_monomial((a, a, b), letters)
    with pytest.raises(DomainError, match="cover"):
        face_of_monomial((a, b), letters)


def test_edge_boundary_transport():
    # d((a⌣₁b)c) = abc - bac: difference of two vertices
    terms = face_boundary(Face.parse("({1,2},{3})"))
    assert terms == [
        (1, Face(3, ({1}, {2}, {3}))),
        (-1, Face(3, ({2}, {1}, {3}))),
    ]


def test_top_cell_boundary_matches_hexagon():
    letters = default_letters(3)
    a, b, c = letters
    zero = {g: TensorElement.zero() for g in letters}
    direct = cup1_boundary(Cup1Monomial((a, b, c)), zero)
    transported = TensorElement.zero()
    for coeff, face in face_boundary(Face(3, ({1, 2, 3},)), letters):
        transported = transported + monomial_of_face(face, letters).scale(coeff)
    assert transported == direct


def test_remark_compatibility_all_faces():
    # monomial(∂f) = d(monomial(f)) for every face, n <= 5
    from cupone.algebra import extend_derivation
    from itertools import combinations

    for n in range(2, 6):
        letters = default_letters(n)
        zero = {g: TensorElement.zero() for g in letters}
        images = dict(zero)
        for k in range(2, n + 1):
            for combo in combinations(letters, k):
                images[Cup1Monomial(combo)] = cup1_boundary(Cup1Monomial(combo), zero)
        for faces in enumerate_faces(n).values():
            for f in faces:
                if f.dimension == 0:
                    continue
                lhs = TensorElement.zero()
                for coeff, sub in face_boundary(f, letters):
                    lhs = lhs + monomial_of_face(sub, letters).scale(coeff)
                rhs = extend_derivation(images, monomial_of_face(f, letters))
                assert lhs == rhs


def test_boundary_squares_to_zero():
    for n in range(2, 6):
        mats = boundary_matrices(n)
        for a, b in zip(mats, mats[1:]):
            prod = a.mul(b)
            assert all(v == 0 for row in prod.entries for v in row)


def test_contractibility_small():
    for n in range(2, 6):
        h = cellular_homology(n)
        assert str(h[0]) == "Z"
        assert all(g.is_trivial for g in h[1:])


def test_facets_match_unshuffle_terms():
    for n in range(2, 6):
        by_dim = enumerate_faces(n)
        facets = by_dim.get(n - 2, [])
        assert len(facets) == 2 ** n - 2


def test_p3_golden_file():
    import json
    from pathlib import Path

    golden = json.loads((Path(__file__).parent / "data" / "p3_complex.json").read_text(encoding="utf-8"))
    assert complex_description(3) == golden


def test_complex_description_fig1_labels():
    desc = complex_description(3)
    labels = {c["label"] for c in desc["cells"]}
    assert labels == {
        "abc", "acb", "bac", "bca", "cab", "cba",
        "(a⌣₁b)c", "c(a⌣₁b)", "a(b⌣₁c)", "b(a⌣₁c)", "(a⌣₁c)b", "(b⌣₁c)a",
        "a⌣₁b⌣₁c",
    }
    assert desc["f_vector"] == [6, 6, 1]


def test_shared_image_table_matches_each_face_own_images():
    for n in range(2, 6):
        letters = default_letters(n)
        shared = bundle_images(letters)
        for faces in enumerate_faces(n).values():
            for f in faces:
                if f.dimension >= 1:
                    assert face_boundary(f, letters, shared) == face_boundary(f, letters)


def ordered_splits(face):
    """Faces obtained by splitting one block B of `face` into two ordered
    nonempty pieces, in place: the facets of an ordered-partition cell."""
    out = []
    for p, block in enumerate(face.blocks):
        items = sorted(block)
        for mask in range(1, 2 ** len(items) - 1):
            first = frozenset(v for i, v in enumerate(items) if mask >> i & 1)
            out.append(Face(face.n, face.blocks[:p] + (first, block - first) + face.blocks[p + 1:]))
    return out


def test_transported_boundary_is_the_ordered_split_support():
    for n in range(2, 7):
        letters = default_letters(n)
        shared = bundle_images(letters)
        for faces in enumerate_faces(n).values():
            for f in faces:
                if f.dimension == 0:
                    continue
                terms = face_boundary(f, letters, shared)
                assert len(terms) == sum(2 ** len(b) - 2 for b in f.blocks)
                assert all(coeff in (1, -1) for coeff, _sub in terms)
                assert sorted(str(sub) for _c, sub in terms) == sorted(str(g) for g in ordered_splits(f))


def test_boundary_matrices_match_face_boundary():
    # rows keyed by monomial word give the matrices built face by face
    from cupone.linalg import IntMatrix

    for n in range(2, 6):
        by_dim = enumerate_faces(n)
        letters = default_letters(n)
        shared = bundle_images(letters)
        for dim, mat in enumerate(boundary_matrices(n), start=1):
            columns = [[(str(sub), c) for c, sub in face_boundary(f, letters, shared)] for f in by_dim[dim]]
            assert mat == IntMatrix.from_columns([str(f) for f in by_dim[dim - 1]], columns)


def test_transported_non_face_is_named(monkeypatch):
    from cupone import permutohedron

    def planted(letters):
        images = bundle_images(letters)
        a, b = letters[0], letters[1]
        images[Cup1Monomial((a, b))] = TensorElement.of(a, a)  # right bidegree, repeats a
        return images

    monkeypatch.setattr(permutohedron, "bundle_images", planted)
    for build in (boundary_matrices, complex_description):
        with pytest.raises(DomainError, match=r"transported word aac is not a face of dimension 0"):
            build(3)


def test_enumerated_faces_total_the_fubini_numbers():
    assert [sum(map(len, enumerate_faces(n).values())) for n in range(1, 6)] == [1, 3, 13, 75, 541]


def test_all_ones_summand_is_the_permutohedron():
    # the resolution's summand on n distinct generators is P_n's complex,
    # built by the other enumerator: the stratum of k blocks holds the
    # faces of dimension n − k, and the summand's ∂ out of it is ∂_{n−k}
    from cupone.resolution import _boundary_matrix, _pattern_checker

    def nonzeros(m):
        return sum(len(row) for row in m.sparse_rows.values())

    for n in range(2, 6):
        checker = _pattern_checker((1,) * n)
        strata = [checker.stratum(n - dim) for dim in range(n)]
        assert tuple(map(len, strata)) == f_vector(n)
        for dim, mat in enumerate(boundary_matrices(n), start=1):
            summand = _boundary_matrix(strata[dim], strata[dim - 1], checker.images)
            assert (summand.rows, summand.cols, nonzeros(summand)) == (mat.rows, mat.cols, nonzeros(mat))
        groups = cellular_homology(n)
        assert [str(g) for g in groups] == ["Z"] + ["0"] * (n - 1)
        # at resolution degree 0 the augmentation makes the verdict reduced homology
        assert [checker.verdict(dim) for dim in range(n)] == [True] + [g.is_trivial for g in groups[1:]]
