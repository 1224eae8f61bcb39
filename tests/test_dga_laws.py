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

import tracemalloc
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
    tensor_label,
    two_stage_hom_dga,
)
from cupone.errors import DegreeError, DomainError, SizeError
from cupone.linalg import FGAbelianGroup
from cupone.twisting import TwistingElement, build_DX, homotopy_orbit_check, is_twisting
from tables import rows_of

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
    return BigradedDGA(A.name, A.bidegrees, diff, rows_of(products), A.unit_coeffs, validate=False)


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
        A = BigradedDGA(A.name, A.bidegrees, A.diff, rows_of(products), A.unit_coeffs, validate=False)
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
    assert all(row and all(row.values()) for row in A.rows.values()) and all(A.diff.values())


# ---------------------------------------------------------------------------
# named first failures


def _with_unit(bidegrees, products, diff=None):
    table = {("1", l): {l: 1} for l in bidegrees}
    table.update({(l, "1"): {l: 1} for l in bidegrees})
    table.update(products)
    return BigradedDGA("+".join(bidegrees), bidegrees, diff or {}, rows_of(table), {"1": 1})


def test_associativity_failure_names_the_first_triple():
    F = free_truncated_dga([("a", 1, 0), ("b", 1, 0)], {}, 3)
    products = {k: dict(t) for k, t in F.products.items()}
    products[("b", "a·b")] = {"b·a·b": 2}
    products[("a", "b·a")] = {"a·b·a": 2}
    with pytest.raises(DomainError, match="associativity fails at a·b·a$"):
        BigradedDGA("bad", F.bidegrees, F.diff, rows_of(products), F.unit_coeffs)
    broken = BigradedDGA("bad", F.bidegrees, F.diff, rows_of(products), F.unit_coeffs, validate=False)
    assert outcome(dense_validate, broken) == (DomainError, "associativity fails at a·b·a")


def test_associativity_failure_seen_only_on_the_right():
    # with a·a = 0, (a·a)·b vanishes while a·(a·b) = a·a·b does not
    F = free_truncated_dga([("a", 1, 0), ("b", 1, 0)], {}, 3)
    products = {k: t for k, t in F.products.items() if k != ("a", "a")}
    with pytest.raises(DomainError, match="associativity fails at a·a·b$"):
        BigradedDGA("bad", F.bidegrees, F.diff, rows_of(products), F.unit_coeffs)
    broken = BigradedDGA("bad", F.bidegrees, F.diff, rows_of(products), F.unit_coeffs, validate=False)
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
        BigradedDGA("t", {"a": (0, 0)}, diff, rows_of(products), {"a": 1})
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# a tensor checked against its factors

RP2 = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5], [1, 2, 4], [2, 3, 5], [1, 3, 4], [2, 4, 5], [1, 3, 5]]
TORUS = [sorted([i, (i + 1) % 7, (i + 3) % 7]) for i in range(7)] + [sorted([i, (i + 2) % 7, (i + 3) % 7]) for i in range(7)]


def _factors(complex_, groups):
    return simplicial_cochain_dga(complex_), two_stage_hom_dga(groups)


def _pairs(A):
    """The product pairs (l1, l2) of A that have a table: what the validation guard counts."""
    return sum(map(len, A.rows.values()))


def _rebuilt(A, diff=None, products=None, unit=None, bidegrees=None):
    """A with some of its tables replaced, unvalidated."""
    return BigradedDGA(A.name, bidegrees or A.bidegrees, A.diff if diff is None else diff,
                       A.rows if products is None else rows_of(products), unit or A.unit_coeffs, validate=False)


def _swapped(B, C):
    """The tables of C ⊗ B under the labels of B ⊗ C: the Koszul sign of
    d goes on db⊗c and the product sign is (−1)^{|b||c′|}."""
    A = tensor_dga(B, C)
    diff = {}
    for bl in B.bidegrees:
        for cl in C.bidegrees:
            image = {}
            sign = -1 if C.total_degree(cl) % 2 else 1
            for bl2, c in B.diff.get(bl, {}).items():
                image[tensor_label(bl2, cl)] = sign * c
            for cl2, c in C.diff.get(cl, {}).items():
                image[tensor_label(bl, cl2)] = c
            diff[tensor_label(bl, cl)] = image
    products = {}
    for (b1, b2), btable in B.products.items():
        for (c1, c2), ctable in C.products.items():
            sign = -1 if B.total_degree(b1) * C.total_degree(c2) % 2 else 1
            products[(tensor_label(b1, c1), tensor_label(b2, c2))] = {
                tensor_label(b3, c3): sign * cb * cc for b3, cb in btable.items() for c3, cc in ctable.items()}
    return _rebuilt(A, diff, products)


def _flip_one_product(A):
    (l1, l2), table = min(A.products.items())
    l3 = min(table)
    products = {**A.products, (l1, l2): {**table, l3: -table[l3]}}
    return _rebuilt(A, products=products), f"{l1}·{l2} has {-table[l3]} at {l3} where the tensor formula gives {table[l3]}"


def _drop_one_differential_term(A):
    label, image = next((l, t) for l, t in sorted(A.diff.items()) if len(t) > 1)
    lost = min(image)
    diff = {**A.diff, label: {l: c for l, c in image.items() if l != lost}}
    return _rebuilt(A, diff=diff), f"d({label}) lacks the term {lost} that the Koszul formula gives"


def _drop_one_differential_entry(A):
    label = next(l for l, t in sorted(A.diff.items()) if len(t) == 1)
    diff = {l: t for l, t in A.diff.items() if l != label}
    return _rebuilt(A, diff=diff), f"d({label}) lacks the term {min(A.diff[label])} that the Koszul formula gives"


def _add_one_product(A):
    # two degree-one labels whose product is zero, given a coefficient in
    # a label of the right bidegree, so only the formula can see it
    products = A.products
    pairs = ((l1, l2) for l1 in sorted(A.bidegrees) for l2 in sorted(A.bidegrees)
             if A.bidegrees[l1][0] == A.bidegrees[l2][0] == 1 and (l1, l2) not in products)
    for l1, l2 in pairs:
        (r1, t1), (r2, t2) = A.bidegrees[l1], A.bidegrees[l2]
        targets = A.basis_of(r1 + r2, t1 + t2)
        if targets:
            table = {targets[0]: 1}
            return (_rebuilt(A, products={**products, (l1, l2): table}),
                    f"{l1}·{l2} has 1 at {targets[0]} where the tensor formula gives 0")
    raise AssertionError("no zero product of degree-one labels")


def _drop_one_product(A):
    l1, l2 = max(A.products)
    products = {key: t for key, t in A.products.items() if key != (l1, l2)}
    return _rebuilt(A, products=products), f"{l1}·{l2} is zero where the tensor formula gives a product"


def _add_one_label(A):
    return (_rebuilt(A, bidegrees={**A.bidegrees, "x": (0, 0)}),
            f"{A.name} has the basis label 'x', which is no pair of factor labels")


def _wrong_unit(A):
    label = min(A.unit_coeffs)
    unit = {l: c for l, c in A.unit_coeffs.items() if l != label}
    return _rebuilt(A, unit=unit), f"the unit has 0 at {label} where the factors give 1"


def _moved_bidegree(A):
    label = max(A.bidegrees)
    r, t = A.bidegrees[label]
    return _rebuilt(A, bidegrees={**A.bidegrees, label: (r, t - 1)}), f"{label} has bidegree {(r, t - 1)} where the factors give {(r, t)}"


@pytest.mark.parametrize("mutate", [
    _flip_one_product, _drop_one_differential_term, _drop_one_differential_entry, _add_one_product, _drop_one_product,
    _add_one_label, _wrong_unit, _moved_bidegree,
])
def test_a_tampered_tensor_fails_the_factor_check_at_the_named_entry(mutate):
    B, C = _factors(SPHERE, [Z, Z2])
    tampered, message = mutate(tensor_dga(B, C))
    with pytest.raises(DomainError) as info:
        dga_module._check_tensor(tampered, B, C)
    assert str(info.value) == message
    assert isinstance(info.value, DegreeError) == (mutate is _moved_bidegree)


@st.composite
def planted_tensors(draw):
    """Factors B, C and their tensor with one structure constant or unit
    coefficient moved by a nonzero amount, in a label of any bidegree."""
    B = simplicial_cochain_dga(draw(complexes(vertices=3, max_dim=1)))
    C = draw(st.sampled_from([two_stage_hom_dga([Z2]), free_truncated_dga(*FREE_WINDOWS[-1])]))
    A = tensor_dga(B, C)
    labels = sorted(A.bidegrees)
    where = draw(st.sampled_from(["diff", "products", "unit"]))
    target, delta = draw(st.sampled_from(labels)), draw(st.sampled_from([-2, -1, 1, 2]))
    diff, products, unit = A.diff, A.products, dict(A.unit_coeffs)
    if where == "diff":
        key = draw(st.sampled_from(labels))
        diff = {**diff, key: {**diff.get(key, {}), target: diff.get(key, {}).get(target, 0) + delta}}
    elif where == "products":
        key = (draw(st.sampled_from(labels)), draw(st.sampled_from(labels)))
        products = {**products, key: {**products.get(key, {}), target: products.get(key, {}).get(target, 0) + delta}}
    else:
        unit[target] = unit.get(target, 0) + delta
    return B, C, _rebuilt(A, diff, products, unit)


@settings(max_examples=100, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_tensors())
def test_every_planted_change_fails_the_factor_check(planted_tensor):
    B, C, A = planted_tensor
    with pytest.raises(DomainError):
        dga_module._check_tensor(A, B, C)


def test_the_factors_in_the_other_order_fail_the_factor_check():
    # C ⊗ B is a dga too, so the raw validation accepts it; only the
    # formulas of B ⊗ C tell the two apart
    B, C = _factors(SPHERE, [Z, Z2])
    swapped = _swapped(B, C)
    assert outcome(BigradedDGA._validate, swapped) is None
    with pytest.raises(DomainError, match=r"(^d\(.*\)|·.*) has -?\d+ at \S+ where the (Koszul|tensor) formula gives -?\d+$"):
        dga_module._check_tensor(swapped, B, C)


@pytest.mark.parametrize("complex_, groups, size", [
    (SPHERE, [Z, Z2], 126),
    (SPHERE, [Z, Z2, Z], 224),
    (RP2, [Z, Z2], 279),
    (TORUS, [Z, Z2], 378),
])
def test_the_raw_validation_accepts_what_the_factor_check_accepts(monkeypatch, complex_, groups, size):
    B, C = _factors(complex_, groups)
    A = tensor_dga(B, C)
    assert len(A.bidegrees) == size
    assert dga_module._check_tensor(A, B, C) is None
    monkeypatch.setattr(dga_module, "MAX_VALIDATED_PAIRS", _pairs(A))
    assert outcome(BigradedDGA._validate, A) is None


def test_building_d_x_never_multiplies_by_the_tensors_rows(monkeypatch):
    seen = []
    product = dga_module._product

    def spy(rows, left, right):
        seen.append(rows)
        return product(rows, left, right)

    monkeypatch.setattr(dga_module, "_product", spy)
    D = build_DX(SPHERE, [Z, Z2])
    assert seen
    assert all(rows is not D.rows for rows in seen)
    # only the factors' rows: no tensor label is a left factor
    assert not any("⊗" in label for rows in seen for label in rows)


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
    assert len(D.bidegrees) == 224
    assert _pairs(D) == 28 * 4 ** 3 <= dga_module.MAX_VALIDATED_PAIRS
    assert is_twisting(TwistingElement.zero(D, 3)).ok


def test_size_guard_still_applies():
    n = dga_module.MAX_VALIDATED_PAIRS + 1
    rows = {"e0": {f"e{i}": {f"e{i}": 1} for i in range(n)}}  # e0 is a left unit
    with pytest.raises(SizeError, match=f"^{n} product pairs exceed the validation guard$"):
        BigradedDGA("big", {f"e{i}": (0, 0) for i in range(n)}, {}, rows, {"e0": 1})


@pytest.mark.parametrize("validate", [True, False])
def test_a_dga_keeps_the_tables_it_is_given(validate):
    F = free_truncated_dga(*FREE_WINDOWS[1])
    A = BigradedDGA("A", F.bidegrees, F.diff, F.rows, F.unit_coeffs, validate=validate)
    assert A.rows is F.rows and A.diff is F.diff


def test_tensor_dga_peaks_near_what_the_finished_dga_keeps():
    B, C = _factors(RP2, [Z, Z2, Z2])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        A = tensor_dga(B, C)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(A.bidegrees) == 775
    assert peak - before <= 1.3 * (kept - before)


def _refuse(*args):
    raise AssertionError("a structure constant was built before the size guard")


def test_constructors_check_the_basis_size_before_building(monkeypatch):
    monkeypatch.setattr(dga_module, "_hom_label", _refuse)
    with pytest.raises(SizeError, match="1000000 product pairs exceed the validation guard"):
        two_stage_hom_dga([FGAbelianGroup(100)])
    with pytest.raises(SizeError, match=f"{10 ** 27} product pairs exceed"):
        two_stage_hom_dga([FGAbelianGroup(10 ** 9)])
    monkeypatch.undo()
    assert _pairs(two_stage_hom_dga([FGAbelianGroup(2), Z2])) == 4 ** 3  # c³ on c coordinates
    n = dga_module.MAX_TENSOR_BASIS + 1
    B = simplicial_cochain_dga([[0]])  # 1 simplex
    C = BigradedDGA("C", {f"e{i}": (0, 0) for i in range(n)}, {}, {}, {"e0": 1}, validate=False)
    monkeypatch.setattr(dga_module, "tensor_label", _refuse)
    with pytest.raises(SizeError, match=f"basis of size {n} exceeds the validation guard"):
        tensor_dga(B, C)


def test_a_simplex_with_more_faces_than_the_guard_is_refused_before_closing():
    # a simplex on n vertices has n·2^(n−1) front/back product pairs
    assert 10 * 2 ** 9 <= dga_module.MAX_VALIDATED_PAIRS < 11 * 2 ** 10
    assert _pairs(simplicial_cochain_dga([range(10)])) == 10 * 2 ** 9
    with pytest.raises(SizeError, match="a simplex on 11 vertices"):
        SimplicialComplex([[0, 1], range(11)])
