"""The dga laws checked over nonzero structure constants agree with the
all-basis loops.

`dense_validate`, `dense_multiplicativity_failure` and
`dense_derivation_failure` are the O(n²)/O(n³) loops that visit every
basis pair and triple; they are the reference oracle for the support
based checks in `cupone.dga` and `cupone.twisting`.  They multiply with
`dense_mul`, a pair loop over the `(l1, l2)` product table, so they share
no code with the row-indexed product kernel of `cupone.dga` that they
check.
"""

from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cupone import dga as dga_module
from cupone.dga import (
    BigradedDGA,
    DgaMap,
    SimplicialComplex,
    free_truncated_dga,
    linear_extension,
    simplicial_cochain_dga,
    tensor_dga,
    two_stage_hom_dga,
)
from cupone.errors import DegreeError, DomainError, SizeError
from cupone.linalg import FGAbelianGroup
from cupone.twisting import TwistingElement, build_DX, homotopy_orbit_check, is_twisting

Z = FGAbelianGroup(1)
Z2 = FGAbelianGroup.from_divisors([2])
SPHERE = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


# ---------------------------------------------------------------------------
# the reference oracle: every basis pair and triple


def dense_mul(x, y):
    """x·y by the pair loop over every term of x and of y, looking each
    pair up in the `(l1, l2)` product table."""
    products = x.dga.products
    out = {}
    for l1, c1 in x.terms.items():
        for l2, c2 in y.terms.items():
            for l3, c3 in products.get((l1, l2), {}).items():
                out[l3] = out.get(l3, 0) + c1 * c2 * c3
    return x.dga.element(out)


def dense_validate(A):
    """The law checks of BigradedDGA._validate over all basis pairs and
    triples (no size guard)."""
    for label, table in A.diff.items():
        r, t = A.bidegrees[label]
        for l2 in table:
            if A.bidegrees[l2] != (r + 1, t):
                raise DegreeError(f"d({label}) hits {l2} outside bidegree {(r + 1, t)}")
    for (l1, l2), table in A.products.items():
        r1, t1 = A.bidegrees[l1]
        r2, t2 = A.bidegrees[l2]
        for l3 in table:
            if A.bidegrees[l3] != (r1 + r2, t1 + t2):
                raise DegreeError(f"{l1}·{l2} hits {l3} outside bidegree {(r1 + r2, t1 + t2)}")
    one = A.unit
    if one.d() != A.element():
        raise DomainError("d(1) != 0")
    labels = sorted(A.bidegrees)
    for label in labels:
        e = A.basis_element(label)
        if e.d().d() != A.element():
            raise DomainError(f"d² != 0 at {label}")
        if dense_mul(one, e) != e or dense_mul(e, one) != e:
            raise DomainError(f"unit law fails at {label}")
    for l1 in labels:
        e1 = A.basis_element(l1)
        d1 = e1.d()
        sign = -1 if A.total_degree(l1) % 2 else 1
        for l2 in labels:
            e2 = A.basis_element(l2)
            if dense_mul(e1, e2).d() != dense_mul(d1, e2) + dense_mul(e1, e2.d()).scale(sign):
                raise DomainError(f"Leibniz fails at {l1}·{l2}")
    for l1 in labels:
        e1 = A.basis_element(l1)
        for l2 in labels:
            e12 = dense_mul(e1, A.basis_element(l2))
            for l3 in labels:
                e3 = A.basis_element(l3)
                if dense_mul(e12, e3) != dense_mul(e1, dense_mul(A.basis_element(l2), e3)):
                    raise DomainError(f"associativity fails at {l1}·{l2}·{l3}")


def dense_multiplicativity_failure(source, target, images):
    """The first pair, over all source basis pairs, where φ(xy) != φ(x)φ(y)
    for the linear map φ with the given label images."""
    images = {label: target.element(img) for label, img in images.items()}
    for l1 in sorted(source.bidegrees):
        for l2 in sorted(source.bidegrees):
            e1 = source.basis_element(l1)
            e2 = source.basis_element(l2)
            lhs = linear_extension(target, images, dense_mul(e1, e2))
            if lhs != dense_mul(linear_extension(target, images, e1), linear_extension(target, images, e2)):
                return f"{l1}·{l2}"
    return None


def dense_derivation_failure(f, g, s_images):
    """The first pair, over all source basis pairs, where
    s(xy) != (−1)^{|x|} f(x)s(y) + s(x)g(y)."""
    A, B = f.source, f.target

    def s_apply(element):
        return linear_extension(B, s_images, element)

    for l1 in sorted(A.bidegrees):
        e1 = A.basis_element(l1)
        sign = -1 if A.total_degree(l1) % 2 else 1
        for l2 in sorted(A.bidegrees):
            e2 = A.basis_element(l2)
            if s_apply(dense_mul(e1, e2)) != dense_mul(f(e1).scale(sign), s_apply(e2)) + dense_mul(s_apply(e1), g(e2)):
                return f"{l1}·{l2}"
    return None


def outcome(check, A):
    try:
        check(A)
    except DomainError as exc:
        return type(exc), str(exc)
    return None


# ---------------------------------------------------------------------------
# small dgas, each with one planted wrong structure constant

FREE_WINDOWS = [
    ([("x", 1, -1), ("y", 2, -1)], {"x": [(1, ("y",))]}, 4),
    ([("u1", 1, -1), ("u2", 2, -2), ("x2", 2, -1), ("y2", 2, -1)], {"u1": [(1, ("y2",))]}, 3),
    ([("a", 1, 0), ("b", 1, 0)], {}, 3),
    ([("x", 1, -1), ("y", 2, -1)], {}, 4),
    ([("x", 1, -1), ("y", 2, -1)], {"x": [(1, ("y",))]}, 2),
]
HOM_GROUPS = [[Z2], [Z, Z2], [Z2, Z], [FGAbelianGroup(2), Z]]


@st.composite
def complexes(draw, vertices=4, max_dim=2):
    faces = [s for k in range(1, max_dim + 2) for s in combinations(range(vertices), k)]
    return [list(s) for s in draw(st.lists(st.sampled_from(faces), min_size=1, max_size=3))]


@st.composite
def small_dgas(draw):
    kind = draw(st.sampled_from(["cochains", "free", "hom", "tensor_hom", "tensor_free"]))
    if kind == "cochains":
        return simplicial_cochain_dga(draw(complexes()))
    if kind == "free":
        return free_truncated_dga(*draw(st.sampled_from(FREE_WINDOWS)))
    if kind == "hom":
        return two_stage_hom_dga(draw(st.sampled_from(HOM_GROUPS)))
    B = simplicial_cochain_dga(draw(complexes(vertices=2, max_dim=1)))
    if kind == "tensor_hom":
        return tensor_dga(B, two_stage_hom_dga([Z2]))
    return tensor_dga(B, free_truncated_dga(*FREE_WINDOWS[-1]))


@st.composite
def planted(draw):
    """A small dga rebuilt unvalidated with one structure constant changed.

    The changed constant keeps its bidegree and avoids the unit's labels,
    so the Leibniz rule, associativity and d² are the laws that can fail."""
    A = draw(small_dgas())
    labels = sorted(A.bidegrees)
    of_degree = {}
    for label in labels:
        of_degree.setdefault(A.bidegrees[label], []).append(label)
    factors = [label for label in labels if label not in A.unit_coeffs]
    sites = [(label, target) for label in factors
             for target in of_degree.get((A.bidegrees[label][0] + 1, A.bidegrees[label][1]), ())]
    for l1 in factors:
        for l2 in factors:
            (r1, t1), (r2, t2) = A.bidegrees[l1], A.bidegrees[l2]
            sites.extend(((l1, l2), target) for target in of_degree.get((r1 + r2, t1 + t2), ()))
    assume(sites)
    key, target = draw(st.sampled_from(sites))
    # a zero differential keeps a dga valid and leaves associativity to fail
    diff = {l: dict(t) for l, t in A.diff.items()} if draw(st.booleans()) else {}
    products = {k: dict(t) for k, t in A.products.items()}
    table = (products if isinstance(key, tuple) else diff).setdefault(key, {})
    table[target] = table.get(target, 0) + draw(st.sampled_from([-2, -1, 1, 2]))
    return BigradedDGA(A.name, A.bidegrees, diff, products, A.unit_coeffs, validate=False)


@settings(max_examples=100, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(planted())
def test_support_validation_agrees_with_the_dense_oracle(A):
    assert outcome(BigradedDGA._validate, A) == outcome(dense_validate, A)


@st.composite
def element_pairs(draw):
    """Two elements of a planted dga, whose product table may hold a 0.

    Coefficients in -2..2 on a few labels make terms of a product cancel."""
    A = draw(planted())
    if draw(st.booleans()):
        products = {k: dict(t) for k, t in A.products.items()}
        key = draw(st.sampled_from(sorted(products)))
        products[key][draw(st.sampled_from(sorted(products[key])))] = 0
        A = BigradedDGA(A.name, A.bidegrees, A.diff, products, A.unit_coeffs, validate=False)
    terms = st.dictionaries(st.sampled_from(sorted(A.bidegrees)), st.integers(-2, 2), max_size=6)
    return A.element(draw(terms)), A.element(draw(terms))


@settings(max_examples=200, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(element_pairs())
def test_product_kernel_agrees_with_the_dense_pair_loop(pair):
    x, y = pair
    assert x * y == dense_mul(x, y)


@pytest.mark.parametrize("build", [
    lambda: simplicial_cochain_dga(SPHERE),
    lambda: free_truncated_dga(*FREE_WINDOWS[1]),
    lambda: two_stage_hom_dga([Z, Z2]),
    lambda: tensor_dga(simplicial_cochain_dga([[0, 1]]), two_stage_hom_dga([Z2])),
])
def test_valid_dgas_pass_both_checks(build):
    A = build()
    assert outcome(dense_validate, A) is None
    assert outcome(BigradedDGA._validate, A) is None


# ---------------------------------------------------------------------------
# named first failures


def _with_unit(bidegrees, products, diff=None):
    table = {("1", l): {l: 1} for l in bidegrees}
    table.update({(l, "1"): {l: 1} for l in bidegrees})
    table.update(products)
    return BigradedDGA("+".join(bidegrees), bidegrees, diff or {}, table, {"1": 1})


def test_associativity_failure_names_the_first_triple():
    F = free_truncated_dga([("a", 1, 0), ("b", 1, 0)], {}, 3)
    products = {k: dict(t) for k, t in F.products.items()}
    products[("b", "a·b")] = {"b·a·b": 2}
    products[("a", "b·a")] = {"a·b·a": 2}
    with pytest.raises(DomainError, match="associativity fails at a·b·a$"):
        BigradedDGA("bad", F.bidegrees, F.diff, products, F.unit_coeffs)
    broken = BigradedDGA("bad", F.bidegrees, F.diff, products, F.unit_coeffs, validate=False)
    assert outcome(dense_validate, broken) == (DomainError, "associativity fails at a·b·a")


def test_associativity_failure_seen_only_on_the_right():
    # with a·a = 0, (a·a)·b vanishes while a·(a·b) = a·a·b does not
    F = free_truncated_dga([("a", 1, 0), ("b", 1, 0)], {}, 3)
    products = {k: t for k, t in F.products.items() if k != ("a", "a")}
    with pytest.raises(DomainError, match="associativity fails at a·a·b$"):
        BigradedDGA("bad", F.bidegrees, F.diff, products, F.unit_coeffs)
    broken = BigradedDGA("bad", F.bidegrees, F.diff, products, F.unit_coeffs, validate=False)
    assert outcome(dense_validate, broken) == (DomainError, "associativity fails at a·a·b")


def test_d_squared_failure_names_the_first_label():
    bidegrees = {"1": (0, 0), "a": (1, 0), "b": (2, 0), "c": (3, 0), "e": (4, 0)}
    with pytest.raises(DomainError, match="d² != 0 at a$"):
        _with_unit(bidegrees, {}, {"a": {"b": 1}, "b": {"c": 1}, "c": {"e": 1}})


# Z[x]/(x²), and the algebras on 1, x, u, xu whose only product besides
# the unit's is x·u = xu, or u·x = xu; all have d = 0 and are associative
EXTERIOR = _with_unit({"1": (0, 0), "x": (1, -1)}, {})
QUIVER_BASIS = {"1": (0, 0), "x": (1, -1), "u": (0, -1), "xu": (1, -2)}
X_TIMES_U = _with_unit(QUIVER_BASIS, {("x", "u"): {"xu": 1}})
U_TIMES_X = _with_unit(QUIVER_BASIS, {("u", "x"): {"xu": 1}})
FREE_X = free_truncated_dga([("x", 1, -1)], {}, 2)


@pytest.mark.parametrize("source, target, images", [
    # φ(x·x) = x·x while φ(x)φ(x) = 0: seen on the source's product keys
    (FREE_X, FREE_X, {"1": {"1": 1}, "x·x": {"x·x": 1}}),
    # φ(x·x) = 0 while φ(x)φ(x) = x·x: seen only on the target's product keys
    (EXTERIOR, FREE_X, {"1": {"1": 1}, "x": {"x": 1}}),
])
def test_multiplicativity_failure_names_the_first_pair(source, target, images):
    with pytest.raises(DomainError, match="not multiplicative at x·x$"):
        DgaMap(source, target, images)
    assert dense_multiplicativity_failure(source, target, images) == "x·x"


@pytest.mark.parametrize("source, target, s_images, first", [
    # s(x·y) = x·x while f(x)s(y) = s(x)g(y) = 0: seen on the source's keys
    (free_truncated_dga([("x", 1, -1), ("y", 2, -1)], {}, min_t=-2), None, {"x·y": {"x·x": 1}}, "x·y"),
    # s(x·x) = 0 while f(x)s(x) = xu: seen only on the target's key x·u
    (EXTERIOR, X_TIMES_U, {"x": {"u": 1}}, "x·x"),
    # s(x·x) = 0 while s(x)g(x) = xu: seen only on the target's key u·x
    (EXTERIOR, U_TIMES_X, {"x": {"u": 1}}, "x·x"),
])
def test_derivation_law_failure_names_the_first_pair(source, target, s_images, first):
    target = target or source
    f = DgaMap(source, target, {l: {l: 1} for l in source.bidegrees})
    s_images = {l: target.element(v) for l, v in s_images.items()}
    report = homotopy_orbit_check(f, f, s_images, TwistingElement.zero(source, 2))
    assert (report.ok, report.failed_law, report.failed_at) == (False, "derivation law", first)
    assert dense_derivation_failure(f, f, s_images) == first


# ---------------------------------------------------------------------------
# labels, work and size


@pytest.mark.parametrize("diff, products, message", [
    ({"zz": {"a": 1}}, {}, "d(zz): 'zz' is not a basis label"),
    ({"a": {"zz": 1}}, {}, "d(a): 'zz' is not a basis label"),
    ({}, {("a", "zz"): {"a": 1}}, "a·zz: 'zz' is not a basis label"),
    ({}, {("a", "a"): {"zz": 1}}, "a·a: 'zz' is not a basis label"),
])
def test_unknown_labels_in_tables_are_named(diff, products, message):
    with pytest.raises(DomainError) as info:
        BigradedDGA("t", {"a": (0, 0)}, diff, products, {"a": 1})
    assert str(info.value) == message


def test_validation_work_on_the_sphere_is_far_below_cubic(monkeypatch):
    # validation multiplies term maps with the product kernel, not elements
    calls = [0]
    product = dga_module._product

    def counted(rows, left, right):
        calls[0] += 1
        return product(rows, left, right)

    monkeypatch.setattr(dga_module, "_product", counted)
    D = build_DX(SPHERE, [Z, Z2])
    assert len(D.bidegrees) == 126
    # 1 % of the 3n³ products the all-triples loop makes
    assert calls[0] < 60_000


def test_sphere_with_three_homology_groups_builds():
    D = build_DX(SPHERE, [Z, Z2, Z])
    assert len(D.bidegrees) == 224 <= dga_module.MAX_VALIDATED_BASIS
    assert is_twisting(TwistingElement.zero(D, 3)).ok


def test_size_guard_still_applies():
    n = dga_module.MAX_VALIDATED_BASIS + 1
    with pytest.raises(SizeError):
        BigradedDGA("big", {f"e{i}": (0, 0) for i in range(n)}, {}, {}, {"e0": 1})


def _refuse(*args):
    raise AssertionError("a structure constant was built before the size guard")


def test_constructors_check_the_basis_size_before_building(monkeypatch):
    monkeypatch.setattr(dga_module, "_hom_label", _refuse)
    with pytest.raises(SizeError, match="basis of size 10000 exceeds the validation guard"):
        two_stage_hom_dga([FGAbelianGroup(100)])
    with pytest.raises(SizeError, match=f"basis of size {10 ** 18} exceeds"):
        two_stage_hom_dga([FGAbelianGroup(10 ** 9)])
    monkeypatch.undo()
    B = simplicial_cochain_dga(SPHERE)  # 14 simplices
    C = two_stage_hom_dga([Z, Z2, Z2])  # 25 basis elements
    monkeypatch.setattr(dga_module, "tensor_label", _refuse)
    with pytest.raises(SizeError, match="basis of size 350 exceeds the validation guard"):
        tensor_dga(B, C)


def test_a_simplex_with_more_faces_than_the_guard_is_refused_before_closing():
    assert 2 ** 8 - 1 <= dga_module.MAX_VALIDATED_BASIS < 2 ** 9 - 1
    assert len(SimplicialComplex([range(8)]).simplices) == 255
    with pytest.raises(SizeError, match="a simplex on 9 vertices"):
        SimplicialComplex([[0, 1], range(9)])
