"""The sparse IntMatrix against a tiny dense reference.

The reference multiplies, transposes and slices plain lists of rows; the
properties run it and IntMatrix side by side on random shapes, empty
ones (0×n, n×0, 0×0) included."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cupone.errors import DomainError
from cupone.linalg import IntMatrix, homology
from cupone.permutohedron import boundary_matrices


# -- dense reference ----------------------------------------------------------


def ref_mul(a, b, inner, cols):
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(len(a))]


def ref_transpose(a, cols):
    return [[a[i][j] for i in range(len(a))] for j in range(cols)]


def ref_mul_vector(a, vec):
    return tuple(sum(x * v for x, v in zip(row, vec)) for row in a)


def is_zero(a):
    return all(v == 0 for row in a for v in row)


# -- strategies ---------------------------------------------------------------

VALUES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])
SIZES = st.integers(0, 5)


def dense(rows, cols):
    return st.lists(st.lists(VALUES, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def product_pair(draw):
    r, k, c = draw(SIZES), draw(SIZES), draw(SIZES)
    return r, k, c, draw(dense(r, k)), draw(dense(k, c))


@st.composite
def cancelling_columns(draw, a, cols):
    """Columns of `a` as (row, value) pairs, with values split into pieces
    and extra pairs on rows whose values cancel."""
    columns = []
    for j in range(cols):
        pairs = []
        for i, row in enumerate(a):
            if row[j]:
                part = draw(st.integers(-3, 3))
                pairs += [(i, part), (i, row[j] - part)]
        for i in draw(st.lists(st.integers(0, len(a) - 1), max_size=3)) if a else []:
            v = draw(st.integers(1, 4))
            pairs += [(i, v), (i, -v)]
        columns.append(draw(st.permutations(pairs)))
    return columns


def stored_values(m):
    return [v for row in m.sparse_rows.values() for v in row.values()]


def assert_exactly_nonzeros_stored(m):
    assert all(m.sparse_rows.values()), "an empty row is stored"
    assert all(stored_values(m)), "a zero is stored"
    assert len(stored_values(m)) == sum(1 for row in m.entries for v in row if v)


# -- properties ---------------------------------------------------------------


@settings(max_examples=150, deadline=None, database=None)
@given(product_pair())
def test_operations_match_the_dense_reference(case):
    r, k, c, a, b = case
    ma, mb = IntMatrix(a, cols=k), IntMatrix(b, cols=c)
    assert (ma.rows, ma.cols) == (r, k)
    assert ma.entries == tuple(tuple(row) for row in a)
    assert_exactly_nonzeros_stored(ma)
    back = IntMatrix(ma.entries, cols=ma.cols)
    assert back == ma and hash(back) == hash(ma)

    prod = ma.mul(mb)
    assert (prod.rows, prod.cols) == (r, c)
    assert prod.entries == tuple(tuple(row) for row in ref_mul(a, b, k, c))
    assert_exactly_nonzeros_stored(prod)

    t = ma.transpose()
    assert (t.rows, t.cols) == (k, r)
    assert t.entries == tuple(tuple(row) for row in ref_transpose(a, k))
    assert t.transpose() == ma

    vec = tuple(range(1, k + 1))
    assert ma.mul_vector(vec) == ref_mul_vector(a, vec)
    for i in range(r):
        for j in range(k):
            assert ma[i, j] == a[i][j]
    with pytest.raises(IndexError):
        ma[r, 0]
    with pytest.raises(IndexError):
        ma[0, k]


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_from_columns_drops_cancelled_entries(data):
    rows, cols = data.draw(SIZES), data.draw(SIZES)
    a = data.draw(dense(rows, cols))
    built = IntMatrix.from_columns(list(range(rows)), data.draw(cancelling_columns(a, cols)))
    listed = IntMatrix(a, cols=cols)
    assert built == listed
    assert hash(built) == hash(listed)
    assert built.sparse_rows == listed.sparse_rows
    assert_exactly_nonzeros_stored(built)


@st.composite
def complexes(draw):
    dims = [draw(st.integers(0, 4)) for _ in range(4)]
    mats = []
    for lo, hi in zip(dims, dims[1:]):
        a = draw(dense(lo, hi))
        columns = [[(i, a[i][j]) for i in range(lo) if a[i][j]] for j in range(hi)]
        mats.append((a, IntMatrix.from_columns(list(range(lo)), columns)))
    return dims, mats


@settings(max_examples=150, deadline=None, database=None)
@given(complexes())
def test_homology_names_the_degree_of_a_nonzero_composite(case):
    dims, mats = case
    bad = [
        k for k in range(len(mats) - 1)
        if not is_zero(ref_mul(mats[k][0], mats[k + 1][0], dims[k + 1], dims[k + 2]))
    ]
    sparse = [m for _a, m in mats]
    if bad:
        with pytest.raises(DomainError, match=f"d∘d is nonzero at degree {bad[0] + 2}$"):
            homology(sparse)
    else:
        groups = homology(sparse)
        assert len(groups) == len(dims)


# -- fixed cases --------------------------------------------------------------


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_empty_shapes_keep_both_dimensions(rows, cols):
    m = IntMatrix.from_columns(list(range(rows)), [[] for _ in range(cols)])
    assert m == IntMatrix.zeros(rows, cols) == IntMatrix([[0] * cols for _ in range(rows)], cols=cols)
    assert (m.transpose().rows, m.transpose().cols) == (cols, rows)
    assert m.mul(IntMatrix.zeros(cols, 2)).cols == 2
    assert m.mul_vector((0,) * cols) == (0,) * rows
    assert m.entries == tuple((0,) * cols for _ in range(rows))
    assert not m.sparse_rows


def test_permutohedron_boundaries_store_exactly_their_nonzeros():
    for m in boundary_matrices(5):
        assert_exactly_nonzeros_stored(m)
