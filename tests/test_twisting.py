import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cupone.dga import BigradedDGA, DgaMap, free_truncated_dga, simplicial_cochain_dga, tensor_dga, two_stage_hom_dga
from cupone.errors import DomainError
from cupone.linalg import FGAbelianGroup, _eliminate, kernel_basis, solve
from cupone.twisting import (
    GaugeElement,
    TwistingElement,
    build_DX,
    gauge_act,
    gauge_equivalent,
    homotopy_orbit_check,
    is_twisting,
    orbit_relation_holds,
    push_gauge,
    push_twisting,
)


_DGA_CACHE = {}


def diagonal_free_dga(max_r=5, with_d=True):
    """Free truncated dga with generators on the twisting and gauge
    diagonals; du1 = y2 gives a nontrivial differential."""
    key = (max_r, with_d)
    if key not in _DGA_CACHE:
        gens = [("u1", 1, -1), ("u2", 2, -2), ("x2", 2, -1), ("y2", 2, -1), ("x3", 3, -2)]
        diffs = {"u1": [(1, ("y2",))]} if with_d else {}
        _DGA_CACHE[key] = free_truncated_dga(gens, diffs, max_r)
    return _DGA_CACHE[key]


def test_zero_is_twisting():
    F = diagonal_free_dga()
    assert is_twisting(TwistingElement.zero(F, 4)).ok


def test_twisting_fails_at_level_two():
    # ∇(x2) = 0 here, so pick the non-cocycle instead: u1 has ∇u1 = y2,
    # but u1 is a gauge slot; use a dga where the level-2 slot is not closed
    F = free_truncated_dga([("e", 2, -1), ("f", 3, -1)], {"e": [(1, ("f",))]}, 4)
    a = TwistingElement(F, 3, {2: {"e": 1}})
    rep = is_twisting(a)
    assert not rep.ok and rep.failed_level == 2


def test_twisting_constructed_through_level_three():
    # e·e is a nonzero (4,-2) word; solve ∇x = -e·e on the (3,-2) stratum
    F = free_truncated_dga([("e", 2, -1), ("h", 3, -2)], {"h": [(-1, ("e", "e"))]}, 4)
    mat = F.differential_matrix(3, -2)
    src = F.basis_of(3, -2)
    tgt = F.basis_of(4, -2)
    ee = F.basis_element("e") * F.basis_element("e")
    vec = [-ee.terms.get(l, 0) for l in tgt]
    sol = solve(mat, vec)
    assert sol is not None
    a3 = F.element({l: c for l, c in zip(src, sol) if c})
    a = TwistingElement(F, 3, {2: {"e": 1}, 3: a3.terms})
    assert is_twisting(a).ok


def random_gauge(F, N, rng, scale=2):
    comps = {}
    for r in range(1, N):
        basis = F.basis_of(r, -r)
        coeffs = {l: rng.randint(-scale, scale) for l in basis}
        comps[r] = coeffs
    return GaugeElement(F, N, comps)


def test_gauge_unit_action():
    F = diagonal_free_dga()
    rng = random.Random(2)
    a = gauge_act(TwistingElement.zero(F, 4), random_gauge(F, 4, rng))
    assert is_twisting(a).ok
    assert gauge_act(a, GaugeElement.one(F, 4)) == a


def test_gauge_action_on_zero_with_zero_differential():
    F = diagonal_free_dga(with_d=False)
    rng = random.Random(3)
    p = random_gauge(F, 4, rng)
    assert gauge_act(TwistingElement.zero(F, 4), p) == TwistingElement.zero(F, 4)


def test_gauge_group_action_randomized():
    F = diagonal_free_dga()
    rng = random.Random(5)
    zero = TwistingElement.zero(F, 4)
    for _ in range(30):
        p = random_gauge(F, 4, rng)
        q = random_gauge(F, 4, rng)
        a = gauge_act(zero, random_gauge(F, 4, rng))
        assert is_twisting(a).ok
        b = gauge_act(a, p)
        assert is_twisting(b).ok
        assert orbit_relation_holds(a, b, p)
        assert gauge_act(gauge_act(a, p), q) == gauge_act(a, p.multiply(q))


@st.composite
def gauges(draw, N=4):
    """p = 1 + p′ on the 84-element dga, every p^r coefficient in {±1, ±2}."""
    F = diagonal_free_dga()
    coefficient = st.sampled_from((-2, -1, 1, 2))
    return GaugeElement(F, N, {r: {l: draw(coefficient) for l in F.basis_of(r, -r)} for r in range(1, N)})


@settings(max_examples=30, deadline=None, database=None)
@given(gauges(), gauges(), gauges())
def test_gauge_multiply_is_associative(p, q, s):
    assert p.multiply(q).multiply(s) == p.multiply(q.multiply(s))


@settings(max_examples=30, deadline=None, database=None)
@given(gauges())
def test_gauge_one_is_a_two_sided_unit_and_inverses_are_two_sided(p):
    F, one = p.dga, GaugeElement.one(p.dga, p.truncation)
    assert one.multiply(p) == p == p.multiply(one)
    assert p.as_element() * p.inverse_element() == F.unit == p.inverse_element() * p.as_element()


def test_gauge_additivity_identity():
    # a vanishing in degrees 2..n, p = 1 + p^n: (a*p)^{n+1} = a^{n+1} + ∇(p^n)
    F = diagonal_free_dga()
    rng = random.Random(8)
    n = 2
    for _ in range(20):
        # a with components only at levels > n, here level 3: any ∇-cocycle
        basis3 = F.basis_of(3, -2)
        mat = F.differential_matrix(3, -2)
        from cupone.linalg import kernel_basis

        kb = kernel_basis(mat)
        coeffs = [0] * len(basis3)
        for kv in kb:
            c = rng.randint(-2, 2)
            coeffs = [x + c * y for x, y in zip(coeffs, kv)]
        a = TwistingElement(F, 4, {3: {l: c for l, c in zip(basis3, coeffs) if c}})
        assert is_twisting(a).ok
        pn = {l: rng.randint(-2, 2) for l in F.basis_of(n, -n)}
        p = GaugeElement(F, 4, {n: pn})
        moved = gauge_act(a, p)
        expected = a.component(n + 1) + F.element(pn).d()
        assert moved.component(n + 1) == expected


def test_orbit_trivial_and_recovered():
    F = diagonal_free_dga()
    rng = random.Random(13)
    zero = TwistingElement.zero(F, 4)
    a = gauge_act(zero, random_gauge(F, 4, rng))
    assert gauge_equivalent(a, a).status == "witness"
    p = random_gauge(F, 4, rng)
    b = gauge_act(a, p)
    verdict = gauge_equivalent(a, b, budget=500)
    assert verdict.status == "witness"
    assert gauge_act(a, verdict.witness) == b


def test_orbit_inconclusive_when_budget_exhausted():
    F = diagonal_free_dga()
    rng = random.Random(14)
    zero = TwistingElement.zero(F, 4)
    a = gauge_act(zero, random_gauge(F, 4, rng))
    b = gauge_act(a, random_gauge(F, 4, rng))
    verdict = gauge_equivalent(a, b, budget=1)
    assert verdict.status == "inconclusive"
    assert verdict.depth_reached >= 2


def test_orbit_search_computes_each_level_kernel_once(monkeypatch):
    """The budget-exhaustion search, one level deeper and with b moved off
    the orbit at its top level, backtracks over level-3 and level-4
    cosets; each level's matrix is still eliminated once, and that one
    elimination gives its kernel lattice and every particular solution."""
    import cupone.twisting as twisting

    F = diagonal_free_dga()
    rng = random.Random(14)
    N = 5
    a = gauge_act(TwistingElement.zero(F, N), random_gauge(F, N, rng))
    b = gauge_act(a, random_gauge(F, N, rng))
    off = TwistingElement(F, N, {**b.components, N: b.component(N) + F.element({"u2·x3": 1})})
    assert is_twisting(off).ok
    calls = Counter()

    def counting_eliminate(mat, transforms=False):
        calls[mat] += 1
        return _eliminate(mat, transforms)

    monkeypatch.setattr(twisting, "_eliminate", counting_eliminate)
    verdict = gauge_equivalent(a, off, budget=40)
    assert verdict.status == "inconclusive" and verdict.depth_reached == N - 1
    assert max(calls.values()) == 1 and len(calls) == N - 1


def _two_level_pair():
    """A with one exact (2,-1) direction, B its cohomology; φ a
    quasi-isomorphism on the relevant strata."""
    A = BigradedDGA(
        "A",
        {"1": (0, 0), "u": (1, -1), "e": (2, -1), "f": (2, -1)},
        {"u": {"f": 1}},
        {("1", "1"): {"1": 1}, ("1", "u"): {"u": 1}, ("u", "1"): {"u": 1},
         ("1", "e"): {"e": 1}, ("e", "1"): {"e": 1},
         ("1", "f"): {"f": 1}, ("f", "1"): {"f": 1}},
        {"1": 1},
    )
    B = BigradedDGA(
        "B",
        {"1": (0, 0), "e": (2, -1)},
        {},
        {("1", "1"): {"1": 1}, ("1", "e"): {"e": 1}, ("e", "1"): {"e": 1}},
        {"1": 1},
    )
    phi = DgaMap(A, B, {"1": {"1": 1}, "e": {"e": 1}, "u": {}, "f": {}})
    return A, B, phi


def test_refuted_at_level_two():
    _A, B, _phi = _two_level_pair()
    a = TwistingElement(B, 2, {2: {"e": 1}})
    b = TwistingElement(B, 2, {2: {"e": 2}})
    verdict = gauge_equivalent(a, b)
    assert verdict.status == "refuted"
    assert verdict.refutation_level == 2
    assert not verdict.obstruction.is_zero()


def test_push_twisting_identity_and_functoriality():
    A, B, phi = _two_level_pair()
    ident = DgaMap.identity(A)
    a = TwistingElement(A, 2, {2: {"e": 1, "f": 2}})
    assert push_twisting(ident, a) == a
    pushed = push_twisting(phi, a)
    assert pushed.components[2] == B.element({"e": 1})
    psi = DgaMap.identity(B)
    assert push_twisting(psi.compose(phi), a) == push_twisting(psi, push_twisting(phi, a))


def test_push_preserves_orbits():
    A, B, phi = _two_level_pair()
    a = TwistingElement(A, 2, {2: {"e": 1, "f": 0}})
    p = GaugeElement(A, 2, {1: {"u": 3}})
    b = gauge_act(a, p)
    assert orbit_relation_holds(push_twisting(phi, a), push_twisting(phi, b), push_gauge(phi, p))


def test_comparison_orbit_counts_desk_scale():
    # exhaustive window {-2..2}: orbit counts agree through a quasi-iso
    A, B, phi = _two_level_pair()
    window = range(-2, 3)

    def orbits(dga, elements):
        classes = []
        for elt in elements:
            for cls in classes:
                if gauge_equivalent(cls[0], elt, budget=50).status == "witness":
                    cls.append(elt)
                    break
            else:
                classes.append([elt])
        return classes

    a_elts = [TwistingElement(A, 2, {2: {"e": x, "f": y}}) for x in window for y in window]
    b_elts = [TwistingElement(B, 2, {2: {"e": x}}) for x in window]
    a_classes = orbits(A, a_elts)
    b_classes = orbits(B, b_elts)
    assert len(a_classes) == len(b_classes) == 5
    # φ maps orbits to orbits injectively on this window
    for cls in a_classes:
        images = {tuple(sorted(push_twisting(phi, e).component(2).terms.items())) for e in cls}
        assert len(images) == 1


def _homotopy_instance(seed=0, corrupt=False):
    # a t-truncated window is closed under d, so the homotopy laws can
    # hold on the nose at every stored word
    gen_names = ["u1", "u2", "x2", "y2"]
    F = free_truncated_dga(
        [("u1", 1, -1), ("u2", 2, -2), ("x2", 2, -1), ("y2", 2, -1)],
        {"u1": [(1, ("y2",))]},
        min_t=-3,
    )
    rng = random.Random(seed)
    f = DgaMap.identity(F)

    def word_of(label):
        return () if label == "1" else tuple(label.split("·"))

    s_gen = {}
    for nm in gen_names:
        r, t = F.bidegrees[nm]
        basis = F.basis_of(r - 1, t)
        s_gen[nm] = F.element({l: rng.randint(-1, 1) for l in basis})

    g_images = {"1": F.unit}
    for nm in gen_names:
        e = F.basis_element(nm)
        g_images[nm] = e - s_gen[nm].d() - _s_elt(F, s_gen, g_images, e.d(), word_of)

    # extend g multiplicatively to all words
    for label in sorted(F.bidegrees, key=lambda l: len(word_of(l))):
        w = word_of(label)
        if len(w) >= 2:
            img = g_images[w[0]]
            for nm in w[1:]:
                img = img * g_images[nm]
            g_images[label] = img
    g = DgaMap(F, F, g_images, name="g")

    s_images = {}
    for label in sorted(F.bidegrees, key=lambda l: len(word_of(l))):
        s_images[label] = _s_word(F, s_gen, g_images, label)
    if corrupt:
        s_images["x2·x2"] = s_images["x2·x2"] + F.basis_element("x2·u1")
    # a = y2 − u1·y2 solves the level-3 equation ∇(a³) = −a²a² exactly
    a = TwistingElement(F, 3, {2: {"y2": 1}, 3: {"u1·y2": -1}})
    assert is_twisting(a).ok
    return F, f, g, s_images, a


def _s_word(F, s_gen, g_images, label):
    w = () if label == "1" else tuple(label.split("·"))
    if not w:
        return F.element()
    head, rest = w[0], w[1:]
    rest_label = "·".join(rest) if rest else "1"
    sign = -1 if (F.bidegrees[head][0] + F.bidegrees[head][1]) % 2 else 1
    g_rest = g_images[rest_label]
    return F.basis_element(head).scale(sign) * _s_word(F, s_gen, g_images, rest_label) + s_gen[head] * g_rest


def _s_elt(F, s_gen, g_images, element, word_of):
    out = F.element()
    for label, c in element.terms.items():
        out = out + _s_word(F, s_gen, g_images, label).scale(c)
    return out


def test_homotopy_orbit_trivial():
    F = diagonal_free_dga(max_r=3)
    f = DgaMap.identity(F)
    a = TwistingElement(F, 3, {2: {"x2": 1}})
    report = homotopy_orbit_check(f, f, {}, a)
    assert report.ok
    assert report.witness.components == {}


def test_homotopy_orbit_constructed():
    _F, f, g, s_images, a = _homotopy_instance(seed=4)
    report = homotopy_orbit_check(f, g, s_images, a)
    assert report.ok, str(report)


def test_homotopy_orbit_negative_control():
    _F, f, g, s_images, a = _homotopy_instance(seed=4, corrupt=True)
    report = homotopy_orbit_check(f, g, s_images, a)
    assert not report.ok
    assert report.failed_at


def test_build_dx_trivial_homology():
    dga = build_DX([[0, 1], [1, 2], [0, 2]], [FGAbelianGroup(1)])
    cochains = simplicial_cochain_dga([[0, 1], [1, 2], [0, 2]])
    assert {d: len(v) for d, v in dga.components().items()} == {d: len(v) for d, v in cochains.components().items()}


def test_build_dx_circle_smoke():
    dga = build_DX([[0, 1], [1, 2], [0, 2]], [FGAbelianGroup(1), FGAbelianGroup.from_divisors([2])])
    zero = TwistingElement.zero(dga, 3)
    assert is_twisting(zero).ok
    rng = random.Random(6)
    p = GaugeElement(dga, 3, {
        1: {l: rng.randint(-1, 1) for l in dga.basis_of(1, -1)},
        2: {l: rng.randint(-1, 1) for l in dga.basis_of(2, -2)},
    })
    moved = gauge_act(zero, p)
    assert is_twisting(moved).ok
