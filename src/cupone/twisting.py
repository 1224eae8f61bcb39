"""Twisting elements, the gauge group and the orbit calculus.

A twisting element is a = a^2 + a^3 + ... with a^r of bidegree (r, 1−r),
satisfying da = −aa degreewise: ∇(a^r) = −Σ_{i+j=r+1} a^i a^j.  Gauge
elements p = 1 + p^1 + ... act by a∗p = p⁻¹ap + p⁻¹dp; p⁻¹ is the finite
geometric series because p′ raises the perturbation degree.  Everything
is truncated at an explicit level N: all statements hold in perturbation
degrees <= N.  Twisting elements and gauge perturbations share one base
for their level components; derivation homotopies reuse the dga maps'
linear extension and bidegree check.
"""

from __future__ import annotations

from itertools import product

from .algebra import _merge
from .dga import (
    DgaElement,
    DgaMap,
    _product_support,
    check_bidegree_shift,
    linear_extension,
    simplicial_cochain_dga,
    tensor_dga,
    two_stage_hom_dga,
)
from .errors import DegreeError, DomainError, SizeError
from .linalg import _eliminate, _kernel, _solution
from .record import Record


class _LevelElement:
    """Components r -> element of A^{r,SHIFT−r} for SHIFT+1 <= r <= N+SHIFT−1,
    where N >= 2 is the truncation level and SHIFT is 1 for twisting
    elements and 0 for the perturbation of a gauge element."""

    KIND = SHIFT = None

    def __init__(self, dga, truncation, components):
        if truncation < 2:
            raise DomainError("truncation level must be >= 2")
        self.dga = dga
        self.truncation = truncation
        self.components = {}
        first, last = self.SHIFT + 1, truncation + self.SHIFT - 1
        for r, comp in components.items():
            comp = comp if isinstance(comp, DgaElement) else dga.element(comp)
            if comp.is_zero():
                continue
            if not first <= r <= last:
                raise DomainError(f"{self.KIND} component at level {r} outside {first}..{last}")
            if comp.dga is not dga:
                raise DomainError(f"{self.KIND} component at level {r} is not an element of its dga")
            for label in comp.terms:
                if dga.bidegrees[label] != (r, self.SHIFT - r):
                    raise DegreeError(f"component {r} must lie in bidegree {(r, self.SHIFT - r)}")
            self.components[r] = comp

    def _component_sum(self):
        out = {}
        for comp in self.components.values():
            _merge(out, comp.terms.items())
        return self.dga.element()._like(out)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.dga is other.dga
            and self.truncation == other.truncation
            and self.components == other.components
        )


class TwistingElement(_LevelElement):
    """Components r -> element of A^{r,1−r} for 2 <= r <= N."""

    KIND, SHIFT = "twisting", 1

    @classmethod
    def zero(cls, dga, truncation):
        return cls(dga, truncation, {})

    def as_element(self):
        return self._component_sum()

    def component(self, r):
        return self.components.get(r, self.dga.element())

    def __repr__(self):
        return f"<twisting N={self.truncation}: {self.as_element()}>"


class GaugeElement(_LevelElement):
    """p = 1 + p′ with p^r of bidegree (r, −r) for 1 <= r <= N−1."""

    KIND, SHIFT = "gauge", 0

    @classmethod
    def one(cls, dga, truncation):
        return cls(dga, truncation, {})

    @classmethod
    def from_perturbation(cls, dga, truncation, element):
        """Split a perturbation along the diagonal t = −r, keeping the
        components inside the level range; anything off it is an error."""
        components = {}
        for (r, t), comp in element.by_degree(element.dga.bidegrees.get).items():
            if t != -r:
                raise DegreeError(f"component at bidegree {(r, t)} is off the gauge diagonal")
            if 1 <= r < truncation:
                components[r] = comp
        return cls(dga, truncation, components)

    def perturbation(self):
        return self._component_sum()

    def as_element(self):
        return self.dga.unit + self.perturbation()

    def inverse_element(self):
        """p⁻¹ = Σ (−p′)^k; terminates since p′ raises the first degree."""
        prime = self.perturbation()
        out = self.dga.unit
        power = self.dga.unit
        for _ in range(self.truncation + 1):
            power = power * prime
            if power.is_zero():
                break
            out = out + power.scale(-1 if _ % 2 == 0 else 1)
        return out

    def multiply(self, other):
        """Group law: (1+p′)(1+q′) = 1 + (p′ + q′ + p′q′)."""
        if self.dga is not other.dga or self.truncation != other.truncation:
            raise DomainError("gauge elements of different dgas or truncations")
        prime = self.perturbation() + other.perturbation() + self.perturbation() * other.perturbation()
        return GaugeElement.from_perturbation(self.dga, self.truncation, prime)

    def __repr__(self):
        return f"<gauge N={self.truncation}: 1 + {self.perturbation()}>"


class TwistingReport(Record):
    ok: bool
    truncation: int
    failed_level: int = 0
    residual: object = None
    _uncompared = ("residual",)

    def __str__(self):
        if self.ok:
            return f"twisting equation holds through level {self.truncation}"
        return f"twisting equation fails at level r={self.failed_level}: residual {self.residual}"


def is_twisting(a):
    """Verify ∇(a^r) = −Σ_{i+j=r+1} a^i a^j for every r <= N."""
    for r in range(2, a.truncation + 1):
        residual = a.component(r).d()
        for i in range(2, r):
            j = r + 1 - i
            if j >= 2:
                residual = residual + a.component(i) * a.component(j)
        if not residual.is_zero():
            return TwistingReport(False, a.truncation, r, residual)
    return TwistingReport(True, a.truncation)


def gauge_act(a, p):
    """a∗p = p⁻¹ap + p⁻¹dp, truncated at level N."""
    if a.dga is not p.dga:
        raise DomainError("twisting and gauge elements live in different dgas")
    if a.truncation != p.truncation:
        raise DomainError("twisting and gauge truncations differ")
    pinv = p.inverse_element()
    moved = pinv * a.as_element() * p.as_element() + pinv * p.perturbation().d()
    return TwistingElement(a.dga, a.truncation, _twisting_part(moved, a.truncation))


def _twisting_part(element, truncation):
    """The components of an element on the twisting diagonal at levels 2..N."""
    parts = element.by_degree(element.dga.bidegrees.get)
    return {r: comp for (r, t), comp in parts.items() if t == 1 - r and 2 <= r <= truncation}


def orbit_relation_holds(a, b, p):
    """The equivalent form b − a = ap′ − p′b + dp′, degreewise to level N."""
    pa = p.perturbation()
    lhs = b.as_element() - a.as_element()
    rhs = a.as_element() * pa - pa * b.as_element() + pa.d()
    return not _twisting_part(lhs - rhs, a.truncation)


# ---------------------------------------------------------------------------
# the orbit problem


class OrbitVerdict(Record):
    status: str  # "witness" | "refuted" | "inconclusive"
    witness: object = None
    refutation_level: int = 0
    obstruction: object = None
    depth_reached: int = 0
    nodes_used: int = 0
    _uncompared = ("obstruction",)

    def __str__(self):
        if self.status == "witness":
            return f"gauge equivalent; witness {self.witness!r}"
        if self.status == "refuted":
            return (
                f"not gauge equivalent: level-{self.refutation_level} obstruction class "
                f"[{self.obstruction}] is nonzero in cohomology"
            )
        return f"inconclusive (budget exhausted at level {self.depth_reached})"


def _offsets(dim, limit):
    """Integer offset tuples of increasing max-norm: (0,..), then norm 1, ..."""
    for radius in range(limit + 1):
        for offset in product(range(-radius, radius + 1), repeat=dim):
            if max(map(abs, offset), default=0) == radius:
                yield offset


def gauge_equivalent(a, b, budget=200):
    """Search for p′ with b = a∗p, degreewise by perturbation level.

    At each level k the unknown p^{k−1} enters linearly through ∇: each
    level's matrix is eliminated once, and that elimination gives its
    kernel lattice and each search node's particular solution.
    Unsolvability at level 2 refutes (the class of b²−a² in H^{2,−1}(A,∇)
    is a gauge invariant); deeper failures backtrack over kernel cosets
    until the node budget runs out."""
    if a.dga is not b.dga or a.truncation != b.truncation:
        raise DomainError("twisting elements live in different dgas or truncations")
    for name, t in (("a", a), ("b", b)):
        rep = is_twisting(t)
        if not rep.ok:
            raise DomainError(f"{name} is not twisting: {rep}")
    dga = a.dga
    N = a.truncation

    strata = {}
    for k in range(2, N + 1):
        elimination = _eliminate(dga.differential_matrix(k - 1, 1 - k), transforms=True)
        strata[k] = (dga.basis_of(k - 1, 1 - k), dga.basis_of(k, 1 - k), elimination, _kernel(elimination))

    nodes = {"used": 0}

    def rhs_at(k, chosen):
        """∇(p^{k−1}) = (b−a)^k − Σ_{i+j=k} a^i p^j + Σ_{j+i=k} p^j b^i."""
        out = b.component(k) - a.component(k)
        for j in range(1, k - 1):
            i = k - j
            if i >= 2 and j in chosen:
                out = out - a.component(i) * chosen[j] + chosen[j] * b.component(i)
        tgt = strata[k][1]
        vec = [out.terms.get(l, 0) for l in tgt]
        leftover = set(out.terms) - set(tgt)
        if leftover:
            raise DomainError(f"right-hand side leaves the stored bidegree window at level {k}")
        return vec

    def dfs(k, chosen):
        if k > N:
            p = GaugeElement(dga, N, dict(chosen))
            if gauge_act(a, p) == b:
                return OrbitVerdict("witness", p, nodes_used=nodes["used"])
            return None
        src, tgt, elimination, kernel = strata[k]
        vec = rhs_at(k, chosen)
        nodes["used"] += 1
        particular = _solution(elimination, vec)
        if particular is None:
            if k == 2:
                obstruction = dga.element({l: c for l, c in zip(tgt, vec) if c})
                return OrbitVerdict("refuted", refutation_level=2, obstruction=obstruction,
                                    nodes_used=nodes["used"])
            return None
        for offset in _offsets(len(kernel), budget):
            if nodes["used"] >= budget:
                return OrbitVerdict("inconclusive", depth_reached=k, nodes_used=nodes["used"])
            coords = list(particular)
            for c, kv in zip(offset, kernel):
                if c:
                    coords = [x + c * y for x, y in zip(coords, kv)]
            comp = dga.element({l: v for l, v in zip(src, coords) if v})
            chosen[k - 1] = comp
            nodes["used"] += 1
            verdict = dfs(k + 1, chosen)
            del chosen[k - 1]
            if verdict is not None:
                return verdict
            if not kernel:
                break
        return None

    verdict = dfs(2, {})
    if verdict is None:
        return OrbitVerdict("inconclusive", depth_reached=N, nodes_used=nodes["used"])
    return verdict


def push_twisting(phi, a):
    """Componentwise image of a twisting element under a validated
    bigraded dga map; the result is twisting in the target."""
    if not isinstance(phi, DgaMap):
        raise DomainError("push_twisting needs a validated DgaMap")
    if phi.source is not a.dga:
        raise DomainError("map source differs from the twisting element's dga")
    pushed = TwistingElement(
        phi.target, a.truncation, {r: phi.apply(c) for r, c in a.components.items()}
    )
    rep = is_twisting(pushed)
    if not rep.ok:
        raise DomainError(f"pushed element is not twisting: {rep}")
    return pushed


def push_gauge(phi, p):
    return GaugeElement(phi.target, p.truncation, {r: phi.apply(c) for r, c in p.components.items()})


# ---------------------------------------------------------------------------
# derivation homotopies between dga maps


class OrbitHomotopyReport(Record):
    ok: bool
    failed_law: str = ""
    failed_at: str = ""
    witness: object = None

    def __str__(self):
        if self.ok:
            return "derivation homotopy verified; −s(a) witnesses the gauge equivalence"
        return f"{self.failed_law} fails at {self.failed_at}"


def homotopy_orbit_check(f, g, s_images, a):
    """Verify that s is an (f,g)-derivation homotopy and that p′ = −s(a)
    witnesses the gauge equivalence of f(a) and g(a).

    Laws checked on the basis: f − g = sd + ds label by label, and
    s(xy) = (−1)^{|x|} f(x)s(y) + s(x)g(y) on the pairs where some term
    can be nonzero, in sorted order.
    """
    A, B = f.source, f.target
    if g.source is not A or g.target is not B:
        raise DomainError("f and g must share source and target")
    if a.dga is not A:
        raise DomainError("the twisting element must live in the source dga")
    s_images = {l: (v if isinstance(v, DgaElement) else B.element(v)) for l, v in s_images.items()}
    check_bidegree_shift(A, B, s_images, (-1, 0), "s")

    def s_apply(element):
        return linear_extension(B, s_images, element)

    for label in sorted(A.bidegrees):
        e = A.basis_element(label)
        lhs = f(e) - g(e)
        rhs = s_apply(e.d()) + s_apply(e).d()
        if lhs != rhs:
            return OrbitHomotopyReport(False, "homotopy law f−g = sd+ds", label)
    f_tables, g_tables, s_tables = ({l: img.terms for l, img in m.items()} for m in (f.images, g.images, s_images))
    pairs = set(_product_support(A.rows))
    pairs.update(
        _product_support(B.rows, f_tables.items(), s_tables.items()),
        _product_support(B.rows, s_tables.items(), g_tables.items()),
    )
    for l1, l2 in sorted(pairs):
        e1 = A.basis_element(l1)
        e2 = A.basis_element(l2)
        sign = -1 if A.total_degree(l1) % 2 else 1
        lhs = s_apply(e1 * e2)
        rhs = f(e1).scale(sign) * s_apply(e2) + s_apply(e1) * g(e2)
        if lhs != rhs:
            return OrbitHomotopyReport(False, "derivation law", f"{l1}·{l2}")

    fa = push_twisting(f, a)
    ga = push_twisting(g, a)
    p = GaugeElement.from_perturbation(B, a.truncation, s_apply(a.as_element()).scale(-1))
    if gauge_act(fa, p) != ga or not orbit_relation_holds(fa, ga, p):
        return OrbitHomotopyReport(False, "gauge witness p′=−s(a)", "final verification")
    return OrbitHomotopyReport(True, witness=p)


# ---------------------------------------------------------------------------
# the simplicial construction D(X; H)


# D(X; H) takes H in degrees 0..MAX_GROUP_DEGREE.
MAX_GROUP_DEGREE = 8


def build_DX(complex_, graded_group):
    """The bigraded dga computing D(X; H): simplicial cochains of X with
    coefficients in the two-stage Hom dga of H, as the tensor dga."""
    groups = list(graded_group)
    if len(groups) > MAX_GROUP_DEGREE + 1:
        raise SizeError(f"graded group goes beyond degree {MAX_GROUP_DEGREE}")
    return tensor_dga(simplicial_cochain_dga(complex_), two_stage_hom_dga(groups), name="D(X;H)")
