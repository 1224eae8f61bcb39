"""Twisting elements, the gauge group and the orbit calculus.

A twisting element is a = a^2 + a^3 + ... with a^r of bidegree (r, 1−r),
satisfying da = −aa degreewise: ∇(a^r) = −Σ_{i+j=r+1} a^i a^j.  Gauge
elements p = 1 + p^1 + ... act by a∗p = p⁻¹ap + p⁻¹dp.  Since p′ raises
the perturbation degree, p·(a∗p) = ap + ∇p′ can be solved for a∗p one
level at a time, so p⁻¹ is never formed.  Everything is truncated at an
explicit level N: all statements hold in perturbation degrees <= N, and
the action, the group law and the twisting law are evaluated level by
level on term maps, never above N nor above the dga's top level, where
every component vanishes, so no loop grows with N.  Twisting elements
and gauge perturbations share one base for their level components;
derivation homotopies reuse the dga maps' linear extension and bidegree
check.

Orbits are decided exactly.  For fixed a and b the relation
b − a = ap′ − p′b + ∇p′ is a linear system over Z in the coordinates of
p′, so one elimination answers `gauge_equivalent`: a solution is a
witness p, confirmed by `gauge_act(a, p) == b`, and an unsolvable system
has an integer certificate (z, q), a combination z of the equations with
z·M ≡ 0 and z·(b − a) ≢ 0 modulo q, checked by a plain matrix product.
Its `budget` keyword is ignored.
"""

from __future__ import annotations

from .algebra import _linear, _merge
from .dga import (
    DgaElement,
    DgaMap,
    _product,
    _product_support,
    check_bidegree_shift,
    linear_extension,
    simplicial_cochain_dga,
    tensor_dga,
    two_stage_hom_dga,
)
from .errors import DegreeError, DomainError, SizeError
from .linalg import IntMatrix, _certificate, _eliminate, _solution
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

    def perturbation(self):
        return self._component_sum()

    def as_element(self):
        return self.dga.unit + self.perturbation()

    def multiply(self, other):
        """Group law (1+p′)(1+q′) = 1 + (p′ + q′ + p′q′), level by level:
        (pq)^r = p^r + q^r + Σ_{i+j=r} p^i·q^j for r = 1..N−1, with i over
        the levels of p, so nothing at level N or above is formed, and at
        most (N−1)(N−2)/2 products of level components are taken.  No
        level above the dga's top level is visited: it holds no basis."""
        if self.dga is not other.dga or self.truncation != other.truncation:
            raise DomainError("gauge elements of different dgas or truncations")
        dga, p, q = self.dga, _levels(self), _levels(other)
        components = {}
        for r in range(1, min(self.truncation - 1, dga.top_level) + 1):
            out = dict(p.get(r, {}))
            _merge(out, q.get(r, {}).items())
            for i in p:
                if r - i in q:
                    _merge(out, _product(dga.rows, p[i], q[r - i]).items())
            components[r] = out
        return GaugeElement(dga, self.truncation, components)

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


def _levels(x):
    """The level term maps of x, lowest level first."""
    return {r: x.components[r].terms for r in sorted(x.components)}


def is_twisting(a):
    """Verify ∇(a^r) = −Σ_{i+j=r+1} a^i a^j for every r <= N.  Both sides
    vanish above twice the top level of a, less one, so the check stops there."""
    rows, diff, levels = a.dga.rows, a.dga.diff, _levels(a)
    for r in range(2, min(a.truncation, 2 * max(levels, default=0) - 1) + 1):
        residual = _linear(levels.get(r, {}), diff.get)
        for i in levels:
            if r + 1 - i in levels:
                _merge(residual, _product(rows, levels[i], levels[r + 1 - i]).items())
        if residual:
            return TwistingReport(False, a.truncation, r, a.dga.element()._like(residual))
    return TwistingReport(True, a.truncation)


def _moved(dga, a, p, c, r):
    """a^r + ∇p^{r−1} + Σ_{1<=j<=r−2} (a^{r−j}·p^j − p^j·c^{r−j}), the level-r
    part of ap + ∇p′ − p′c, on the level term maps a, p and c, with p
    lowest level first as `_levels` gives it."""
    out = dict(a.get(r, {}))
    _merge(out, _linear(p.get(r - 1, {}), dga.diff.get).items())
    for j in p:
        if j > r - 2:
            break
        if a.get(r - j):
            _merge(out, _product(dga.rows, a[r - j], p[j]).items())
        if c.get(r - j):
            _merge(out, _product(dga.rows, p[j], c[r - j]).items(), -1)
    return out


def gauge_act(a, p):
    """a∗p = p⁻¹ap + p⁻¹dp, truncated at level N, by forward substitution.

    c = a∗p solves p·c = ap + ∇p′.  Its level-r part gives c^r from the
    levels below it, for r = 2..N in turn:
    c^r = a^r + ∇p^{r−1} + Σ_{1<=j<=r−2} (a^{r−j}·p^j − p^j·c^{r−j}).
    So p⁻¹ is never formed, nothing above level N is computed, and at
    most (N−1)(N−2) products of level components are taken.  Levels above
    the dga's top level hold no basis, so c is zero there and the
    substitution stops at the lower of N and that level."""
    if a.dga is not p.dga:
        raise DomainError("twisting and gauge elements live in different dgas")
    if a.truncation != p.truncation:
        raise DomainError("twisting and gauge truncations differ")
    levels, gauge, c = _levels(a), _levels(p), {}
    for r in range(2, min(a.truncation, a.dga.top_level) + 1):
        c[r] = _moved(a.dga, levels, gauge, c, r)
    return TwistingElement(a.dga, a.truncation, {r: a.dga.element()._like(t) for r, t in c.items()})


# ---------------------------------------------------------------------------
# the orbit problem


class OrbitVerdict(Record):
    status: str  # "witness" | "refuted"
    witness: object = None
    refutation_level: int = 0
    obstruction: object = None
    modulus: int = 0
    nodes_used: int = 0  # the unknowns of the orbit system
    _uncompared = ("obstruction",)

    def __str__(self):
        if self.status == "witness":
            return f"gauge equivalent; witness {self.witness!r}"
        modulo = f"modulo {self.modulus}" if self.modulus else "over Z"
        return (
            f"not gauge equivalent: z = {self.obstruction} annihilates every gauge move "
            f"but not b − a, {modulo} (level {self.refutation_level})"
        )


def gauge_equivalent(a, b, budget=None):
    """Decide whether b = a∗p for some gauge element p, by one integer solve.

    The orbit relation b − a = ap′ − p′b + ∇p′ is linear in p′.  The
    unknowns are the coordinates of p′ on ⊕_{j<N} A^{j,−j}, the equations
    the labels of ⊕_{2<=k<=N} A^{k,1−k}, and the column of a label e at
    level j is ∇e + Σ_{i<=N−j} (a^i·e − e·b^i): block lower-triangular,
    with ∇ on the diagonal blocks.  One elimination either solves it, and
    the solution is a witness that `gauge_act` confirms, or gives a row z
    of its left transform with z·M ≡ 0 and z·(b − a) ≢ 0 modulo q, an
    integer certificate that no p exists; q = 0 makes both equalities
    over Z.  A plain product checks the certificate.  The verdict reports
    z as the `obstruction` Σ z_l·l, q as its `modulus`, the highest level
    of z's support as the `refutation_level`, and the unknowns as
    `nodes_used`.  `budget` is accepted and ignored, for callers that
    still pass it: the solve needs no bound."""
    if a.dga is not b.dga or a.truncation != b.truncation:
        raise DomainError("twisting elements live in different dgas or truncations")
    for name, t in (("a", a), ("b", b)):
        rep = is_twisting(t)
        if not rep.ok:
            raise DomainError(f"{name} is not twisting: {rep}")
    dga, N, rows = a.dga, a.truncation, a.dga.rows
    top = dga.top_level  # no unknown or equation lies above it
    unknowns = [(j, label) for j in range(1, min(N - 1, top) + 1) for label in dga.basis_of(j, -j)]
    equations = [label for k in range(2, min(N, top) + 1) for label in dga.basis_of(k, 1 - k)]
    levels = sorted(a.components.keys() | b.components.keys())

    def column(j, label):
        """ap′ − p′b + ∇p′ at p′ = label, through level N."""
        e = {label: 1}
        yield from dga.diff.get(label, {}).items()
        for i in levels:
            if i > N - j:
                break
            yield from _product(rows, a.component(i).terms, e).items()
            yield from ((l, -v) for l, v in _product(rows, e, b.component(i).terms).items())

    matrix = IntMatrix.from_columns(equations, [column(j, label) for j, label in unknowns])
    diff = (b.as_element() - a.as_element()).terms
    rhs = [diff.get(label, 0) for label in equations]
    elimination = _eliminate(matrix, transforms=True)
    x = _solution(elimination, rhs)
    if x is not None:
        components = {}
        for (j, label), v in zip(unknowns, x):
            if v:
                components.setdefault(j, {})[label] = v
        p = GaugeElement(dga, N, components)
        if gauge_act(a, p) != b:
            raise RuntimeError("the orbit system's solution fails a∗p = b")
        return OrbitVerdict("witness", p, nodes_used=len(unknowns))
    z, q = _certificate(elimination, rhs)
    dense = [z.get(i, 0) for i in range(len(equations))]
    pairings = matrix.transpose().mul_vector(dense) + (sum(x * y for x, y in zip(dense, rhs)),)
    residues = [v % q if q else v for v in pairings]
    if any(residues[:-1]) or not residues[-1]:
        raise RuntimeError("the orbit system's certificate does not check")
    obstruction = dga.element({equations[i]: v for i, v in z.items()})
    level = max(dga.bidegrees[label][0] for label in obstruction.terms)
    return OrbitVerdict("refuted", refutation_level=level, obstruction=obstruction, modulus=q,
                        nodes_used=len(unknowns))


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
    # s has bidegree (−1, 0), so −s(a^r) is the gauge level r − 1
    p = GaugeElement(B, a.truncation, {r - 1: s_apply(comp).scale(-1) for r, comp in a.components.items()})
    if gauge_act(fa, p) != ga:
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
