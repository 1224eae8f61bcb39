"""The laws of the shared linear-combination base, on both of its kinds:
words of the free algebra (`TensorElement`) and basis labels of a dga
(`DgaElement`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cupone.algebra import Generator, TensorElement
from cupone.dga import free_truncated_dga
from cupone.errors import DomainError

X, Y = Generator("x", 0, 2), Generator("y", -1, 3)
WORDS = [(), (X,), (Y,), (X, Y), (Y, X), (X, X, Y)]
F = free_truncated_dga([("x", 1, -1), ("y", 2, -1)], {"x": [(1, ("y",))]}, 4)
COEFFS = st.integers(-3, 3)


def tensors():
    return st.dictionaries(st.sampled_from(WORDS), COEFFS, max_size=4).map(TensorElement)


def dga_elements():
    return st.dictionaries(st.sampled_from(sorted(F.bidegrees)), COEFFS, max_size=4).map(F.element)


@pytest.mark.parametrize("kind", [tensors, dga_elements], ids=["tensor", "dga"])
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_combination_laws(kind, data):
    x, y, z = (data.draw(kind()) for _ in range(3))
    j, k = data.draw(COEFFS), data.draw(COEFFS)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x - x).is_zero() and x - x == x.scale(0) == -x + x
    assert (x + y).scale(k) == x.scale(k) + y.scale(k)
    assert x.scale(j + k) == x.scale(j) + x.scale(k)
    assert k * x == x.scale(k) and -x == x.scale(-1)
    assert 0 not in (x + y).terms.values()
    for a, b in ((x, y), (x + y, y + x), (x - y + y, x)):
        assert (a == b) <= (hash(a) == hash(b))


def test_elements_of_different_dgas_neither_add_nor_compare_equal():
    G = free_truncated_dga([("x", 1, -1), ("y", 2, -1)], {"x": [(1, ("y",))]}, 4)
    a, b = F.basis_element("x"), G.basis_element("x")
    assert a != b and a.terms == b.terms
    for op in (a.__add__, a.__sub__, a.__mul__):
        with pytest.raises(DomainError, match="^elements of different dgas$"):
            op(b)
