import pytest

from cupone.algebra import ImageTable, TensorElement
from cupone.cup1 import Cup1Monomial, bundle_factors, bundle_images, cup1_boundary
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
    for coeff, face in face_boundary(Face(3, ({1, 2, 3},))):
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
                for coeff, sub in face_boundary(f):
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


def ordered_splits(face):
    """{face text: coefficient} of the faces obtained by splitting one
    block B_p of `face` into two ordered nonempty pieces (I, J) in place:
    the facets of an ordered-partition cell, each with the sign
    −(−1)^(Σ_{q<p} (|B_q| + 1) + |I| + inv(I, J)), where inv(I, J) counts
    the pairs a ∈ I, b ∈ J with b < a."""
    out = {}
    before = 0  # Σ_{q<p} (|B_q| + 1)
    for p, block in enumerate(face.blocks):
        items = sorted(block)
        for mask in range(1, 2 ** len(items) - 1):
            first = [v for i, v in enumerate(items) if mask >> i & 1]
            second = [v for i, v in enumerate(items) if not mask >> i & 1]
            inversions = sum(b < a for a in first for b in second)
            split = face.blocks[:p] + (frozenset(first), frozenset(second)) + face.blocks[p + 1:]
            out[str(Face(face.n, split))] = -(-1) ** (before + len(first) + inversions)
        before += len(block) + 1
    return out


def test_transported_boundary_is_the_ordered_split_support():
    # every column of P_n's ∂, support and signs, against the closed formula
    for n in range(2, 7):
        by_dim = enumerate_faces(n)
        for dim, mat in enumerate(boundary_matrices(n), start=1):
            rows = [str(f) for f in by_dim[dim - 1]]
            columns = [{} for _ in range(mat.cols)]
            for i, row in mat.sparse_rows.items():
                for j, coeff in row.items():
                    columns[j][rows[i]] = coeff
            for face, column in zip(by_dim[dim], columns):
                assert len(column) == sum(2 ** len(b) - 2 for b in face.blocks)
                assert column == ordered_splits(face)


def test_boundary_matrices_match_face_boundary():
    # the matrices equal the columns read one face at a time, rows and columns in face text order
    from cupone.linalg import IntMatrix

    for n in range(2, 6):
        by_dim = enumerate_faces(n)
        for dim, mat in enumerate(boundary_matrices(n), start=1):
            columns = [[(str(sub), c) for c, sub in face_boundary(f)] for f in by_dim[dim]]
            assert mat == IntMatrix.from_columns([str(f) for f in by_dim[dim - 1]], columns)


def _planted_non_face(letters):
    a, b = letters[0], letters[1]
    # right bidegree, repeats a
    return ImageTable({**bundle_images(letters), Cup1Monomial((a, b)): TensorElement.of(a, a)})


def test_transported_non_face_is_named(monkeypatch):
    from cupone import permutohedron

    monkeypatch.setattr(permutohedron, "bundle_images", _planted_non_face)
    for build in (boundary_matrices, complex_description):
        with pytest.raises(DomainError, match=r"transported word aac is not a face of dimension 0"):
            build(3)


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_non_face_met_while_the_report_is_written_exits_2(monkeypatch, capsys, fmt):
    # the cells are made as the report is written, after run_command returns
    from cupone import permutohedron
    from cupone.cli import main

    monkeypatch.setattr(permutohedron, "bundle_images", _planted_non_face)
    assert main(["--command", "permutohedron", "--n", "3", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "aac" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_enumerated_faces_total_the_fubini_numbers():
    assert [sum(map(len, enumerate_faces(n).values())) for n in range(1, 6)] == [1, 3, 13, 75, 541]


def test_all_ones_summand_is_the_permutohedron():
    # the resolution's summand on n distinct generators w0, w1, ... is P_n's
    # complex: after renaming w_i to the i-th face letter, the stratum of
    # k blocks holds the faces of dimension n − k, and the summand's ∂ out
    # of it equals ∂_{n−k} entry for entry
    from cupone.algebra import Generator
    from cupone.resolution import _Codes, _stratum_boundary, _stratum_walk, _summand_verdicts

    def entries(mat, rows, cols):
        return {(rows[i], cols[j]): v for i, row in mat.sparse_rows.items() for j, v in row.items()}

    for n in range(2, 6):
        letters = default_letters(n)
        counts = {f"w{i}": 1 for i in range(n)}
        table = _Codes(bundle_images([Generator(name, 0, 2) for name in counts]))
        stratum = _stratum_walk(counts, table.code)

        def renamed(word):
            out = []
            for letter in table.decode(word):
                factors = tuple(letters[int(f.name[1:])] for f in bundle_factors(letter))
                out.append(factors[0] if len(factors) == 1 else Cup1Monomial(factors))
            return tuple(out)

        strata = [[renamed(w) for w in stratum(n - dim)] for dim in range(n)]
        faces = [[next(iter(monomial_of_face(f, letters).terms)) for f in by_dim]
                 for _, by_dim in sorted(enumerate_faces(n).items())]
        assert [set(s) for s in strata] == [set(f) for f in faces]
        assert tuple(map(len, strata)) == f_vector(n)
        for dim, mat in enumerate(boundary_matrices(n), start=1):
            summand = _stratum_boundary(table, stratum(n - dim), stratum(n - dim + 1))
            assert entries(summand, strata[dim - 1], strata[dim]) == entries(mat, faces[dim - 1], faces[dim])
        groups = cellular_homology(n)
        assert [str(g) for g in groups] == ["Z"] + ["0"] * (n - 1)
        # at resolution degree 0 the augmentation makes the verdict reduced homology
        assert list(_summand_verdicts(counts, table, 0, n - 1)) == [True] + [g.is_trivial for g in groups[1:]]


def test_coded_boundary_matrices_match_the_letter_boundary():
    # the ∂ of P_n built on code words equals the ∂ that extend_derivation
    # gives on the faces' monomials, with images from cup1_boundary, n <= 5
    from itertools import combinations

    from cupone.algebra import extend_derivation
    from cupone.linalg import IntMatrix

    for n in range(2, 6):
        letters = default_letters(n)
        images = {g: TensorElement.zero() for g in letters}
        for k in range(2, n + 1):
            for combo in combinations(letters, k):
                images[Cup1Monomial(combo)] = cup1_boundary(Cup1Monomial(combo), images)
        words = [[next(iter(monomial_of_face(f, letters).terms)) for f in faces]
                 for _, faces in sorted(enumerate_faces(n).items())]
        for dim, mat in enumerate(boundary_matrices(n), start=1):
            row_of = {w: i for i, w in enumerate(words[dim - 1])}
            columns = [[(row_of[w], c) for w, c in extend_derivation(images, TensorElement({w: 1})).terms.items()]
                       for w in words[dim]]
            assert mat == IntMatrix.from_columns(range(len(row_of)), columns)
