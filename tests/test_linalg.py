import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bareiss import det
from cupone.errors import DomainError
from cupone.linalg import (
    FGAbelianGroup,
    IntMatrix,
    homology,
    homology_at,
    invariant_factors,
    _certificate,
    _eliminate,
    kernel_basis,
    smith_normal_form,
    solve,
)


def minor_gcd(m, k):
    """gcd of all k x k minors; the determinantal-divisor oracle."""
    from math import gcd

    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            sub = IntMatrix([[m[i, j] for j in cols] for i in rows])
            g = gcd(g, det(sub))
    return g


def check_snf(m):
    d, u, v = smith_normal_form(m)
    assert u.mul(m).mul(v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    assert all(d[i, j] == 0 for i in range(d.rows) for j in range(d.cols) if i != j)
    nz = [x for x in diag if x]
    assert diag[: len(nz)] == nz, "zero diagonal entries must come last"
    assert all(x > 0 for x in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    return d


def test_snf_already_diagonal():
    d = check_snf(IntMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 4]]))
    assert [d[i, i] for i in range(3)] == [1, 2, 4]


def test_snf_reference_2x2():
    # determinantal divisors: d1 = gcd of entries = 2, d1*d2 = |det| = 8
    d = check_snf(IntMatrix([[2, 4], [6, 8]]))
    assert [d[0, 0], d[1, 1]] == [2, 4]


def test_snf_zero_matrix():
    d = check_snf(IntMatrix.zeros(3, 2))
    assert all(d[i, j] == 0 for i in range(3) for j in range(2))


def test_snf_random_with_minor_oracle():
    rng = random.Random(7)
    for _ in range(120):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        d = check_snf(m)
        diag = [d[i, i] for i in range(min(rows, cols))]
        prod = 1
        for k in range(1, min(rows, cols) + 1):
            prod *= diag[k - 1]
            assert abs(prod) == abs(minor_gcd(m, k))


def test_sparse_invariant_factors_agree_with_dense():
    rng = random.Random(21)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        d, _, _ = smith_normal_form(m)
        dense = tuple(x for x in (d[i, i] for i in range(min(rows, cols))) if x)
        assert invariant_factors(m) == dense


# -- oracles that do not run the elimination: determinantal divisors -----------


def minor_rank(m):
    """Largest k with a nonzero k x k minor."""
    return max((k for k in range(1, min(m.rows, m.cols) + 1) if minor_gcd(m, k)), default=0)


def random_matrix(rng, rows, cols, zero_share):
    return IntMatrix([[0 if rng.random() < zero_share else rng.randint(-6, 6) for _ in range(cols)]
                      for _ in range(rows)])


@pytest.mark.parametrize("zero_share", [0.0, 0.7])
def test_invariant_factors_against_minor_gcd(zero_share):
    # d_1···d_k is the gcd of the k x k minors, and the rank is the largest k
    # with a nonzero one
    rng = random.Random(31)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), zero_share)
        factors = invariant_factors(m)
        assert len(factors) == minor_rank(m)
        prod = 1
        for k, d in enumerate(factors, start=1):
            prod *= d
            assert prod == minor_gcd(m, k)


MATRICES = st.integers(1, 4).flatmap(lambda rows: st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4, 6]), min_size=cols, max_size=cols),
    min_size=rows, max_size=rows))).map(IntMatrix)


@settings(max_examples=120, deadline=None, database=None)
@given(MATRICES)
def test_kernel_basis_is_a_saturated_kernel_basis(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - minor_rank(m)
    for vec in basis:
        assert m.mul_vector(vec) == (0,) * m.rows
    if basis:
        # saturated: the gcd of the maximal minors of the basis columns is 1
        k = IntMatrix([list(row) for row in zip(*basis)])
        assert minor_gcd(k, len(basis)) == 1


@settings(max_examples=120, deadline=None, database=None)
@given(MATRICES, st.data())
def test_solve_against_the_column_lattice(m, data):
    x0 = data.draw(st.lists(st.integers(-4, 4), min_size=m.cols, max_size=m.cols))
    x = solve(m, m.mul_vector(tuple(x0)))
    assert x is not None and m.mul_vector(x) == m.mul_vector(tuple(x0))
    # b lies in the column lattice iff appending it keeps the rank r and the
    # gcd of the r x r minors
    b = data.draw(st.lists(st.integers(-6, 6), min_size=m.rows, max_size=m.rows))
    augmented = IntMatrix([list(row) + [v] for row, v in zip(m.entries, b)])
    r = minor_rank(m)
    inside = minor_rank(augmented) == r and (r == 0 or minor_gcd(augmented, r) == minor_gcd(m, r))
    x = solve(m, b)
    assert (x is not None) == inside
    if x is not None:
        assert m.mul_vector(x) == tuple(b)
    # outside, a row z of U with z·M ≡ 0 and z·b ≢ 0 (mod q) says so
    certificate = _certificate(_eliminate(m, transforms=True), b)
    assert (certificate is None) == inside
    if certificate is not None:
        z, q = certificate
        dense = [z.get(i, 0) for i in range(m.rows)]
        pairings = m.transpose().mul_vector(dense) + (sum(x * y for x, y in zip(dense, b)),)
        residues = [v % q if q else v for v in pairings]
        assert not any(residues[:-1]) and residues[-1]


def test_solve_and_kernel():
    m = IntMatrix([[2, 4], [6, 8]])
    x = solve(m, (2, 6))
    assert m.mul_vector(x) == (2, 6)
    assert solve(m, (1, 0)) is None
    k = kernel_basis(IntMatrix([[1, 2, 3]]))
    assert len(k) == 2
    for vec in k:
        assert sum(a * b for a, b in zip((1, 2, 3), vec)) == 0


def test_homology_mod2_circle_style():
    # 0 -> Z --x2--> Z -> 0
    h = homology([IntMatrix([[2]])])
    assert [str(g) for g in h] == ["Z/2", "0"]


def test_homology_zero_differentials():
    h = homology([IntMatrix.zeros(3, 2), IntMatrix.zeros(2, 5)])
    assert [g.rank for g in h] == [3, 2, 5]
    assert all(not g.torsion for g in h)


def test_homology_rejects_nonzero_dd():
    with pytest.raises(DomainError, match="degree 2"):
        homology([IntMatrix([[1]]), IntMatrix([[1]])])


def test_homology_at_matches_full():
    rng = random.Random(3)
    for _ in range(40):
        # random 3-term complex with d_out * d_in = 0: build d_in inside ker d_out
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        d_out = IntMatrix([[rng.randint(-3, 3) for _ in range(b)] for _ in range(a)])
        kb = kernel_basis(d_out)
        cols = []
        for _ in range(rng.randint(0, 3)):
            vec = [0] * b
            for kv in kb:
                c = rng.randint(-2, 2)
                vec = [x + c * y for x, y in zip(vec, kv)]
            cols.append(vec)
        if cols:
            d_in = IntMatrix([[col[i] for col in cols] for i in range(b)], cols=len(cols))
        else:
            d_in = IntMatrix.zeros(b, 0)
        h_local = homology_at(d_out, d_in)
        h_full = homology([d_out, d_in])[1]
        assert h_local == h_full


def test_universal_coefficients_rank_symmetry():
    # rank H_k of a complex equals rank H^k of the transposed (dual) complex
    rng = random.Random(11)
    for _ in range(25):
        b = rng.randint(1, 3)
        c = rng.randint(1, 3)
        d1 = IntMatrix([[rng.randint(-2, 2) for _ in range(c)] for _ in range(b)])
        kb = kernel_basis(d1)
        cols = []
        for _ in range(rng.randint(0, 2)):
            vec = [0] * c
            for kv in kb:
                k = rng.randint(-1, 1)
                vec = [x + k * y for x, y in zip(vec, kv)]
            cols.append(vec)
        d2 = IntMatrix([[col[i] for col in cols] for i in range(c)], cols=len(cols)) if cols else IntMatrix.zeros(c, 0)
        hom = homology([d1, d2])
        dual = homology([d2.transpose(), d1.transpose()])
        assert [g.rank for g in hom] == [g.rank for g in reversed(dual)]


def test_group_canonical_form():
    g = FGAbelianGroup.from_divisors([0, 30, 4])
    assert g.rank == 1 and g.torsion == (2, 60)
    assert str(g) == "Z + Z/2 + Z/60"
    assert FGAbelianGroup.from_divisors([2, 3]) == FGAbelianGroup.from_divisors([6])
    assert FGAbelianGroup.from_divisors([2, 4]) != FGAbelianGroup.from_divisors([8])
    with pytest.raises(DomainError):
        FGAbelianGroup(0, (4, 2))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_snf_certificate_on_empty_shapes(shape):
    d = check_snf(IntMatrix.zeros(*shape))
    assert (d.rows, d.cols) == shape


def test_kernel_of_a_zero_row_matrix_is_the_whole_lattice():
    assert len(kernel_basis(IntMatrix.zeros(0, 3))) == 3
