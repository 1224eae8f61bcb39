import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cupone.dga import BigradedDGA, DgaMap, free_truncated_dga, simplicial_cochain_dga
from cupone.linalg import FGAbelianGroup, _eliminate, kernel_basis, solve
from cupone.twisting import (
    GaugeElement,
    TwistingElement,
    build_DX,
    gauge_act,
    gauge_equivalent,
    homotopy_orbit_check,
    is_twisting,
    push_twisting,
)
from tables import rows_of


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


def series_inverse(p):
    """p⁻¹ = Σ (−p′)^k as a dga element; it ends because p′ raises the
    first degree, so the powers vanish past the dga's top level."""
    prime = p.perturbation()
    out = power = p.dga.unit
    for k in range(1, p.truncation + 2):
        power = power * prime
        if power.is_zero():
            break
        out = out + power.scale((-1) ** k)
    return out


def by_degree(element):
    """Bidegree -> the part of the dga element `element` in it."""
    parts = {}
    for label, c in element.terms.items():
        parts.setdefault(element.dga.bidegrees[label], {})[label] = c
    return {deg: element.dga.element(terms) for deg, terms in parts.items()}


def oracle_act(a, p):
    """a∗p = p⁻¹ap + p⁻¹∇p′ from whole dga elements and the series inverse,
    keeping the parts on the twisting diagonal at levels 2..N."""
    pinv = series_inverse(p)
    moved = pinv * a.as_element() * p.as_element() + pinv * p.perturbation().d()
    parts = by_degree(moved)
    return TwistingElement(a.dga, a.truncation,
                           {r: comp for (r, t), comp in parts.items() if t == 1 - r and 2 <= r <= a.truncation})


def oracle_report(a):
    """(ok, failed_level, residual) of ∇a^r + Σ_{i+j=r+1} a^i·a^j on whole elements."""
    for r in range(2, a.truncation + 1):
        residual = a.component(r).d()
        for i in range(2, r):
            residual = residual + a.component(i) * a.component(r + 1 - i)
        if not residual.is_zero():
            return False, r, residual
    return True, 0, None


@settings(max_examples=30, deadline=None, database=None)
@given(gauges())
def test_gauge_one_is_a_two_sided_unit_and_inverses_are_two_sided(p):
    F, one = p.dga, GaugeElement.one(p.dga, p.truncation)
    assert one.multiply(p) == p == p.multiply(one)
    assert p.as_element() * series_inverse(p) == F.unit == series_inverse(p) * p.as_element()


def sphere_dga():
    """D(S²; Z, Z/2) on the boundary of the tetrahedron: a second dga, with
    a nonzero ∇ from level 1 to level 2."""
    if "sphere" not in _DGA_CACHE:
        _DGA_CACHE["sphere"] = build_DX([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
                                        [FGAbelianGroup(1), FGAbelianGroup.from_divisors([2])])
    return _DGA_CACHE["sphere"]


@st.composite
def level_elements(draw, cls, dga, N):
    """An element of class `cls` at truncation N; each level is left out
    one time in three, or drawn with coefficients in -2..2, mostly nonzero."""
    coefficient = st.sampled_from((1, -1, 2, -2, 0))
    comps = {}
    for r in range(cls.SHIFT + 1, N + cls.SHIFT):
        if draw(st.sampled_from((True, True, False))):
            comps[r] = {l: draw(coefficient) for l in dga.basis_of(r, cls.SHIFT - r)}
    return cls(dga, N, comps)


@st.composite
def actions(draw):
    """(a, p, q) at a drawn N = 2..5 on the 84-element dga or on D(S²; Z, Z/2)."""
    dga = draw(st.sampled_from([diagonal_free_dga, sphere_dga]))()
    N = draw(st.integers(2, 5))
    return (draw(level_elements(TwistingElement, dga, N)), draw(level_elements(GaugeElement, dga, N)),
            draw(level_elements(GaugeElement, dga, N)))


@settings(max_examples=60, deadline=None, database=None)
@given(actions())
def test_gauge_act_equals_the_series_inverse_formula(action):
    a, p, q = action
    zero, one = TwistingElement.zero(a.dga, a.truncation), GaugeElement.one(a.dga, a.truncation)
    assert gauge_act(a, p) == oracle_act(a, p)
    assert gauge_act(zero, p) == oracle_act(zero, p)
    assert gauge_act(a, one) == a == oracle_act(a, one)
    assert gauge_act(gauge_act(a, p), q) == gauge_act(a, p.multiply(q))


@settings(max_examples=60, deadline=None, database=None)
@given(actions())
def test_is_twisting_reports_the_element_formula(action):
    a, p, _q = action
    for t in (a, gauge_act(TwistingElement.zero(a.dga, a.truncation), p)):
        report = is_twisting(t)
        assert (report.ok, report.failed_level, report.residual) == oracle_report(t)


def test_gauge_act_takes_at_most_n1_n2_products_and_none_above_level_n(monkeypatch):
    """Every product of one gauge_act at N = 4, whichever module calls it,
    goes through the spy: at most (N−1)(N−2) = 6 products of level
    components, each with its factors' levels and its result at level <= N."""
    import cupone.dga as dga_module
    import cupone.twisting as twisting

    F, N = diagonal_free_dga(), 4
    rng = random.Random(21)
    a = gauge_act(TwistingElement.zero(F, N), random_gauge(F, N, rng))
    p = random_gauge(F, N, rng)
    assert set(a.components) == {2, 3, 4} and set(p.components) == {1, 2, 3}
    levels, original = [], dga_module._product

    def spy(rows, left, right):
        out = original(rows, left, right)
        top = [max((F.bidegrees[l][0] for l in terms), default=0) for terms in (left, right, out)]
        levels.append((top[0] + top[1], top[2]))
        return out

    for module in (dga_module, twisting):
        monkeypatch.setattr(module, "_product", spy)
    moved = gauge_act(a, p)
    monkeypatch.undo()
    assert moved == oracle_act(a, p)
    assert 0 < len(levels) <= (N - 1) * (N - 2)
    assert all(factors <= N and result <= N for factors, result in levels)


def oracle_multiply(p, q):
    """The group law on whole elements: p′ + q′ + p′q′, split by level
    along the gauge diagonal, with the levels N and above cut off."""
    whole = p.perturbation() + q.perturbation() + p.perturbation() * q.perturbation()
    parts = by_degree(whole)
    assert all(t == -r for r, t in parts)
    return GaugeElement(p.dga, p.truncation, {r: comp for (r, _t), comp in parts.items() if r < p.truncation})


@settings(max_examples=60, deadline=None, database=None)
@given(actions())
def test_gauge_multiply_equals_the_truncated_whole_product(action):
    _a, p, q = action
    assert p.multiply(q) == oracle_multiply(p, q)
    assert q.multiply(p) == oracle_multiply(q, p)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_gauge_multiply_takes_at_most_n1_n2_half_products_and_none_at_level_n(monkeypatch, N):
    """Every product of one multiply, whichever module calls it, goes
    through the spy: at most (N−1)(N−2)/2 products of level components,
    each with its factors' levels and its result below level N."""
    import cupone.dga as dga_module
    import cupone.twisting as twisting

    F, rng = diagonal_free_dga(), random.Random(N + 5)
    p, q = random_gauge(F, N, rng), random_gauge(F, N, rng)
    assert set(p.components) == set(q.components) == set(range(1, N))
    levels, original = [], dga_module._product

    def spy(rows, left, right):
        out = original(rows, left, right)
        top = [max((F.bidegrees[l][0] for l in terms), default=0) for terms in (left, right, out)]
        levels.append((top[0] + top[1], top[2]))
        return out

    for module in (dga_module, twisting):
        monkeypatch.setattr(module, "_product", spy)
    product = p.multiply(q)
    monkeypatch.undo()
    assert product == oracle_multiply(p, q)
    assert 0 < len(levels) <= (N - 1) * (N - 2) // 2
    assert all(factors < N and result < N for factors, result in levels)


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


def certificate_holds(a, b, verdict):
    """A refutation's certificate (z, q), checked with dga products alone:
    z pairs the move ap′ − p′b + ∇p′ of every basis perturbation p′ to 0
    modulo q, and b − a to a nonzero residue; q = 0 means over Z.  z lives
    on levels <= N, so the pairing truncates the products."""
    z, q = verdict.obstruction.terms, verdict.modulus

    def residue(element):
        value = sum(z.get(label, 0) * c for label, c in element.terms.items())
        return value % q if q else value

    F = a.dga
    for j in range(1, a.truncation):
        for label in F.basis_of(j, -j):
            e = F.basis_element(label)
            if residue(a.as_element() * e - e * b.as_element() + e.d()):
                return False
    return residue(b.as_element() - a.as_element()) != 0


def test_orbit_trivial_and_recovered():
    F = diagonal_free_dga()
    rng = random.Random(13)
    zero = TwistingElement.zero(F, 4)
    a = gauge_act(zero, random_gauge(F, 4, rng))
    verdict = gauge_equivalent(a, a)
    assert verdict.status == "witness" and gauge_act(a, verdict.witness) == a
    p = random_gauge(F, 4, rng)
    b = gauge_act(a, p)
    verdict = gauge_equivalent(a, b)
    assert verdict.status == "witness"
    assert gauge_act(a, verdict.witness) == b


def test_off_orbit_pair_is_refuted_with_one_elimination(monkeypatch):
    """b is moved off a's orbit at its top level N = 5.  Its levels below
    N are on the orbit, so any certificate needs a level-N equation; the
    whole system is eliminated once."""
    import cupone.twisting as twisting

    F = diagonal_free_dga()
    rng = random.Random(14)
    N = 5
    a = gauge_act(TwistingElement.zero(F, N), random_gauge(F, N, rng))
    b = gauge_act(a, random_gauge(F, N, rng))
    off = TwistingElement(F, N, {**b.components, N: b.component(N) + F.element({"u2·x3": 1})})
    assert is_twisting(off).ok
    calls = []

    def counting_eliminate(mat, transforms=False):
        calls.append(mat)
        return _eliminate(mat, transforms)

    monkeypatch.setattr(twisting, "_eliminate", counting_eliminate)
    verdict = gauge_equivalent(a, off)
    assert verdict.status == "refuted" and verdict.refutation_level == N
    assert certificate_holds(a, off, verdict)
    assert len(calls) == 1


@st.composite
def twistings(draw, N=4):
    """a = c∗p for a drawn ∇-cycle c at level 3 and a drawn gauge p; c is
    twisting at N = 4 because c·c lies at level 6."""
    F = diagonal_free_dga()
    basis = F.basis_of(3, -2)
    coords = [0] * len(basis)
    for kv in kernel_basis(F.differential_matrix(3, -2)):
        c = draw(st.integers(-2, 2))
        coords = [x + c * y for x, y in zip(coords, kv)]
    cycle = TwistingElement(F, N, {3: {l: c for l, c in zip(basis, coords) if c}})
    return gauge_act(cycle, draw(gauges(N)))


@settings(max_examples=20, deadline=None, database=None)
@given(twistings(), gauges())
def test_planted_orbit_pairs_are_recovered(a, p):
    b = gauge_act(a, p)
    verdict = gauge_equivalent(a, b)
    assert verdict.status == "witness" and gauge_act(a, verdict.witness) == b


@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(-3, 3), st.integers(-3, 3), gauges(N=2), st.integers(-3, 3).filter(bool))
def test_moving_off_the_orbit_by_a_non_exact_cycle_is_refuted(alpha, beta, p, k):
    """b = a∗p + k·x2 at N = 2: x2 is a ∇-cycle and not exact (∇u1 = y2)."""
    F = diagonal_free_dga()
    a = TwistingElement(F, 2, {2: {"x2": alpha, "y2": beta}})
    b = TwistingElement(F, 2, {2: gauge_act(a, p).component(2) + F.element({"x2": k})})
    verdict = gauge_equivalent(a, b)
    assert verdict.status == "refuted" and verdict.refutation_level == 2
    assert certificate_holds(a, b, verdict)


def _two_level_pair():
    """A with one exact (2,-1) direction, B its cohomology; φ a
    quasi-isomorphism on the relevant strata."""
    A = BigradedDGA(
        "A",
        {"1": (0, 0), "u": (1, -1), "e": (2, -1), "f": (2, -1)},
        {"u": {"f": 1}},
        rows_of({("1", "1"): {"1": 1}, ("1", "u"): {"u": 1}, ("u", "1"): {"u": 1},
                 ("1", "e"): {"e": 1}, ("e", "1"): {"e": 1},
                 ("1", "f"): {"f": 1}, ("f", "1"): {"f": 1}}),
        {"1": 1},
    )
    B = BigradedDGA(
        "B",
        {"1": (0, 0), "e": (2, -1)},
        {},
        rows_of({("1", "1"): {"1": 1}, ("1", "e"): {"e": 1}, ("e", "1"): {"e": 1}}),
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
    assert certificate_holds(a, b, verdict)


def test_push_twisting_identity_and_functoriality():
    A, B, phi = _two_level_pair()
    ident = DgaMap.identity(A)
    a = TwistingElement(A, 2, {2: {"e": 1, "f": 2}})
    assert push_twisting(ident, a) == a
    pushed = push_twisting(phi, a)
    assert pushed.components[2] == B.element({"e": 1})
    psi = DgaMap.identity(B)
    psi_phi = DgaMap(phi.source, psi.target, {label: psi(image) for label, image in phi.images.items()})
    assert push_twisting(psi_phi, a) == push_twisting(psi, push_twisting(phi, a))


def test_push_preserves_orbits():
    A, B, phi = _two_level_pair()
    a = TwistingElement(A, 2, {2: {"e": 1, "f": 0}})
    p = GaugeElement(A, 2, {1: {"u": 3}})
    b = gauge_act(a, p)
    pushed = GaugeElement(B, p.truncation, {r: phi.apply(c) for r, c in p.components.items()})
    assert gauge_act(push_twisting(phi, a), pushed) == push_twisting(phi, b)


def test_comparison_orbit_counts_desk_scale():
    # exhaustive window {-2..2}: orbit counts agree through a quasi-iso
    A, B, phi = _two_level_pair()
    window = range(-2, 3)

    def orbits(dga, elements):
        classes = []
        for elt in elements:
            for cls in classes:
                verdict = gauge_equivalent(cls[0], elt)
                if verdict.status == "witness":
                    assert gauge_act(cls[0], verdict.witness) == elt
                    cls.append(elt)
                    break
                assert certificate_holds(cls[0], elt, verdict)
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
