"""Finitely generated abelian-group arithmetic and the null-homotopy
hypothesis checkers.

Groups live in invariant-factor canonical form (see linalg); homs are
integer matrices on the chosen generators, free generators first.  Tor
follows the cyclic rule Tor(Z/a, Z/b) = Z/gcd(a,b) extended additively.
Cokernels and kernels come from the one sparse elimination of `linalg`
run on [hom matrix | target relations]: its invariant factors give the
cokernel, and its kernel lattice, tested against the source relations
with `solve`, decides injectivity.

>>> print(tor(FGAbelianGroup.from_divisors([4]), FGAbelianGroup.from_divisors([6])))
Z/2
>>> print(cokernel(GroupHom(Z, Z, IntMatrix([[2]]))))
Z/2
"""

from __future__ import annotations

from math import gcd

from .errors import DomainError
from .linalg import FGAbelianGroup, IntMatrix, homology, kernel_basis, solve
from .record import Record

Z = FGAbelianGroup(1)
TRIVIAL = FGAbelianGroup(0)


def _generator_orders(group):
    """Orders of the chosen generators: 0 for each free one, then torsion."""
    return [0] * group.rank + list(group.torsion)


def _relation_columns(group):
    """Columns generating the relation lattice of the chosen presentation."""
    return [[(i, d)] for i, d in enumerate(_generator_orders(group)) if d]


def _with_target_relations(h):
    """[M | R]: the hom's columns, then the target's relation columns."""
    by_column = h.matrix.transpose().sparse_rows
    columns = [by_column.get(j, {}).items() for j in range(h.matrix.cols)]
    return IntMatrix.from_columns(range(h.matrix.rows), columns + _relation_columns(h.target))


class GroupHom(Record):
    """A homomorphism between f.g. abelian groups, as a matrix on generators."""

    source: FGAbelianGroup
    target: FGAbelianGroup
    matrix: IntMatrix

    def __post_init__(self):
        n_src = self.source.rank + len(self.source.torsion)
        n_tgt = self.target.rank + len(self.target.torsion)
        if self.matrix.rows != n_tgt or self.matrix.cols != n_src:
            raise DomainError(
                f"matrix must be {n_tgt}x{n_src} on the chosen generators, got "
                f"{self.matrix.rows}x{self.matrix.cols}"
            )
        # well-defined: order(src gen) * image must die in the target
        tgt_orders = _generator_orders(self.target)
        for j, d in enumerate(_generator_orders(self.source)):
            if d == 0:
                continue
            for i, e in enumerate(tgt_orders):
                v = d * self.matrix[i, j]
                if (e == 0 and v != 0) or (e != 0 and v % e != 0):
                    raise DomainError(
                        f"matrix does not respect torsion: generator {j} has order {d} "
                        f"but its image does not"
                    )

    @classmethod
    def zero(cls, source, target):
        n_src = source.rank + len(source.torsion)
        n_tgt = target.rank + len(target.torsion)
        return cls(source, target, IntMatrix.zeros(n_tgt, n_src))

    @classmethod
    def times(cls, k, group=Z):
        """Multiplication by k on a group, on the canonical generators."""
        n = group.rank + len(group.torsion)
        return cls(group, group, IntMatrix([[k if i == j else 0 for j in range(n)] for i in range(n)]))

    def compose(self, other):
        """self ∘ other."""
        if other.target != self.source:
            raise DomainError("composition mismatch")
        return GroupHom(other.source, self.target, self.matrix.mul(other.matrix))


def tor(a, b):
    """Tor of two f.g. abelian groups: pairwise Z/gcd of the torsion parts.

    >>> print(tor(FGAbelianGroup.from_divisors([2, 0]), FGAbelianGroup.from_divisors([2])))
    Z/2
    """
    divisors = [gcd(d, e) for d in a.torsion for e in b.torsion]
    return FGAbelianGroup.from_divisors([d for d in divisors if d > 1])


def cokernel(h):
    """target / im(h) in canonical form: the cokernel of [matrix | target relations]."""
    return homology([_with_target_relations(h)])[0]


def is_injective(h):
    """Kernel triviality, via lattices on the chosen presentations.

    x = Σ ξ_i g_i dies in the target iff Mξ lies in the target relation
    lattice, i.e. (ξ, η) is in the kernel of [M | R] for some η; x is
    zero in the source iff ξ lies in the source relation lattice.  The
    hom is injective iff the first lattice projects into the second.
    """
    n_src = h.matrix.cols
    rel_s = IntMatrix.from_columns(range(n_src), _relation_columns(h.source))
    for vec in kernel_basis(_with_target_relations(h)):
        xi = vec[:n_src]
        if any(xi):
            if solve(rel_s, xi) is None:
                return False
    return True


class HypothesisInstance(Record):
    """Data for the inclusion-plus-Tor condition through degree m − 1.

    `cohomology` maps a degree k to H^k(X); `hurewicz` maps a degree i
    to the map u_i from the i-th homotopy group into homology.
    """

    m: int
    cohomology: dict
    hurewicz: dict

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("m must be >= 1")


class DegreeVerdict(Record):
    degree: int
    skipped: bool
    injective: bool = True
    tor_group: FGAbelianGroup = TRIVIAL
    note: str = ""

    @property
    def ok(self):
        return self.skipped or (self.injective and self.tor_group.is_trivial)


class HypothesisReport(Record):
    ok: bool
    verdicts: tuple
    condition: str = (
        "sufficient condition checked per degree i < m: u_i injective and "
        "Tor(H^{i+1}(X), Coker u_i) = 0 whenever the homotopy group is nonzero"
    )

    def first_failure(self):
        for v in self.verdicts:
            if not v.ok:
                return v
        return None

    def __str__(self):
        if self.ok:
            return f"hypotheses hold in all {len(self.verdicts)} degrees"
        v = self.first_failure()
        why = "u not injective" if not v.injective else f"Tor = {v.tor_group}"
        return f"hypotheses fail at degree {v.degree}: {why}"


def check_hypotheses(inst):
    """Check the sufficient condition for each degree 1 <= i < m.

    Degrees with trivial homotopy group are skipped.  Degree 1 carries
    the standing assumption that u_1 is an isomorphism; the verdict notes
    that the same injectivity+Tor rule was applied rather than verifying
    the assumption.
    """
    verdicts = []
    for i in range(1, inst.m):
        u = inst.hurewicz.get(i)
        if u is None or u.source.is_trivial:
            verdicts.append(DegreeVerdict(i, skipped=True, note="homotopy group is 0"))
            continue
        h_above = inst.cohomology.get(i + 1, TRIVIAL)
        inj = is_injective(u)
        t = tor(h_above, cokernel(u))
        note = ""
        if i == 1:
            note = "standing assumption: u_1 an isomorphism; checked under the same rule"
        verdicts.append(DegreeVerdict(i, False, inj, t, note))
    verdicts = tuple(verdicts)
    return HypothesisReport(all(v.ok for v in verdicts), verdicts)


def unitary_group_instance(n, cohomology):
    """The U(n) data with m = 2n: odd Hurewicz maps are multiplication by
    (i−1)! on Z in degree 2i−1, even homotopy groups vanish.

    `cohomology` maps degree k to H^k(X).
    """
    m = 2 * n
    hurewicz = {}
    fact = 1
    for i in range(1, n + 1):
        if i > 1:
            fact *= i - 1
        degree = 2 * i - 1
        if degree < m:
            hurewicz[degree] = GroupHom.times(fact)
    return HypothesisInstance(m, dict(cohomology), hurewicz)
