"""Cup-one monomial calculus.

Bundles a1⌣₁...⌣₁an of distinct degree-(0,*) generators are kept in a
canonical order; any permutation normalizes with the sign accumulated
from the adjacent-swap rule a⌣₁b = (−1)^{(|a|+1)(|b|+1)} b⌣₁a.  The
Hirsch formula distributes ⌣₁ over products of the right argument; a
product on the left expands by the companion rule
(a·b)⌣₁c = a·(b⌣₁c) + (−1)^{|b|(|c|+1)} (a⌣₁c)·b, the only sign that is
compatible with the boundary formula below (see cup1_boundary).

`cup1_boundary` is the general binary formula
d(a⌣₁b) = da⌣₁b − (−1)^{|a|} a⌣₁db + (−1)^{|a|} ab − (−1)^{|a|(|b|+1)} ba,
on elements.  The image tables of resolutions and of P_n come from
`closed_images`, which evaluates the same formula with closed plain
generators directly on term maps: for b = a0⌣₁z and each term c·x·y of
d(z), a0⌣₁x is a bundle looked up by name, with no normalization or
Hirsch expansion.  `cup1_boundary` is the tests' oracle for that table.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import Generator, ImageTable, TensorElement, _merge, word_multiply, word_total_degree
from .errors import DomainError
from .record import Record, _set


class Cup1Monomial(Record):
    """A canonical bundle of >= 2 distinct plain generators."""

    factors: tuple

    def __init__(self, factors):
        factors = tuple(factors)
        if len(factors) < 2:
            raise DomainError("a bundle needs at least two factors; one factor is the plain generator")
        for f in factors:
            if not isinstance(f, Generator) or f.res_degree != 0:
                raise DomainError("bundle factors must be plain generators of resolution degree 0")
        names = [f.name for f in factors]
        if sorted(names) != names or len(set(names)) != len(names):
            raise DomainError(f"bundle factors {names} are not in canonical order; use normalize_cup1")
        # bundles key every term map and image table, so these are computed once
        _set(self, "factors", factors)
        _set(self, "int_degree", sum(f.int_degree for f in factors))
        _set(self, "_hash", hash((factors,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild through __init__: a string hash differs between processes
        return (type(self), (self.factors,))

    @property
    def res_degree(self):
        return -(len(self.factors) - 1)

    @property
    def bidegree(self):
        return (self.res_degree, self.int_degree)

    @property
    def total_degree(self):
        return self.res_degree + self.int_degree

    def sort_key(self):
        return (1, tuple(f.name for f in self.factors))

    def split(self):
        """(a0, z) with self = a0⌣₁z: the first factor, and the rest as a
        bundle, or as the plain generator when only one factor is left."""
        head, *rest = self.factors
        return head, rest[0] if len(rest) == 1 else Cup1Monomial(rest)

    def label(self):
        return "⌣₁".join(f.name for f in self.factors)

    def __str__(self):
        return self.label()


def bundle_factors(letter):
    """Factors of an extended generator: the bundle's list, or the letter itself."""
    if isinstance(letter, Cup1Monomial):
        return list(letter.factors)
    return [letter]


def normalize_cup1(factors):
    """Canonicalize a factor list under the symmetry sign rule.

    Returns (sign, letter) where the letter is a Cup1Monomial (or the
    plain generator for a single factor), or None when the bundle is
    zero: a repeated factor of even degree forces x⌣₁x = −x⌣₁x over a
    torsion-free module.  A repeated factor of odd degree is rejected
    (the relation-free range has no odd generators).
    """
    factors = list(factors)
    if not factors:
        raise DomainError("empty bundle")
    for f in factors:
        if not isinstance(f, Generator):
            raise DomainError("bundle factors must be plain generators, not bundles")
        if f.res_degree != 0:
            raise DomainError(f"factor {f.label()} has negative resolution degree; nesting is not a generator")
    seen = {}
    for f in factors:
        prev = seen.setdefault(f.name, f)
        if prev != f:
            raise DomainError(f"two distinct generators named {f.name!r} in one bundle")
    for f in factors:
        if factors.count(f) > 1:
            if f.total_degree % 2 == 0:
                return None
            raise DomainError(
                f"repeated odd-degree factor {f.name}: outside the even-generator range"
            )
    # insertion sort by name, one adjacent swap at a time
    sign = 1
    for i in range(1, len(factors)):
        j = i
        while j > 0 and factors[j - 1].name > factors[j].name:
            swap = (factors[j - 1].total_degree + 1) * (factors[j].total_degree + 1)
            if swap % 2:
                sign = -sign
            factors[j - 1], factors[j] = factors[j], factors[j - 1]
            j -= 1
    if len(factors) == 1:
        return sign, factors[0]
    return sign, Cup1Monomial(tuple(factors))


def cup1_letters(c, g):
    """⌣₁ of two extended generators: merge the factor lists and normalize."""
    merged = bundle_factors(c) + bundle_factors(g)
    result = normalize_cup1(merged)
    if result is None:
        return TensorElement.zero()
    sign, letter = result
    return TensorElement.of(letter, coeff=sign)


def hirsch_expand(c, word):
    """c⌣₁(g1···gk) fully expanded by the Hirsch formula.

    c is a single extended generator; the product word may mix plain
    generators and bundles.  c⌣₁(ab) = (c⌣₁a)b + (−1)^{|a|(|c|+1)} a(c⌣₁b),
    applied successively, so ⌣₁ only ever lands on single letters.
    """
    word = tuple(word)
    if not word:
        raise DomainError("empty product word")
    if len(word) == 1:
        return cup1_letters(c, word[0])
    head, rest = word[0], word[1:]
    first = word_multiply(cup1_letters(c, head), TensorElement({rest: 1}))
    sign = -1 if (head.total_degree * (c.total_degree + 1)) % 2 else 1
    second = word_multiply(TensorElement.of(head), hirsch_expand(c, rest))
    return first + second.scale(sign)


def _cup1_words(wu, wv):
    """⌣₁ of two basis words (either may be empty = the unit; unit cups to 0)."""
    if not wu or not wv:
        return TensorElement.zero()
    if len(wu) == 1:
        return hirsch_expand(wu[0], wv)
    head, rest = wu[0], wu[1:]
    dv = word_total_degree(wv)
    drest = word_total_degree(rest)
    first = word_multiply(TensorElement.of(head), _cup1_words(rest, wv))
    sign = -1 if (drest * (dv + 1)) % 2 else 1
    second = word_multiply(_cup1_words((head,), wv), TensorElement({rest: 1}))
    return first + second.scale(sign)


def cup1_pair(u, v):
    """Bilinear ⌣₁ pairing of two elements of the extended free algebra."""
    out = {}
    for wv, cv in v.terms.items():
        for wu, cu in u.terms.items():
            _merge(out, _cup1_words(wu, wv).terms.items(), cu * cv)
    return u._like(out)


def cup1_boundary(m, ambient_d):
    """Boundary of a bundle, iterating the binary formula on the
    right-most association:

        d(a⌣₁b) = da⌣₁b − (−1)^{|a|} a⌣₁db + (−1)^{|a|} ab − (−1)^{|a|(|b|+1)} ba

    `ambient_d` maps each plain factor to its differential image; it may
    also hold boundaries of bundles, which are then used for the tails of
    longer bundles.  For a plain generator the boundary is just its
    image.  With closed factors the result is the unshuffle sum of
    2^n − 2 signed products.
    """
    if isinstance(m, Generator):
        try:
            return ambient_d[m]
        except KeyError:
            raise DomainError(f"no differential image for factor {m.name}") from None
    if not isinstance(m, Cup1Monomial):
        raise DomainError("cup1_boundary expects a bundle or a plain generator")

    head, tail = m.split()
    da = cup1_boundary(head, ambient_d)
    dz = ambient_d[tail] if tail in ambient_d else cup1_boundary(tail, ambient_d)
    sa = -1 if head.total_degree % 2 else 1
    sza = -1 if (head.total_degree * (tail.total_degree + 1)) % 2 else 1

    out = cup1_pair(da, TensorElement.of(tail))
    out = out + cup1_pair(TensorElement.of(head), dz).scale(-sa)
    out = out + TensorElement.of(head, tail, coeff=sa)
    out = out + TensorElement.of(tail, head, coeff=-sza)
    return out


def closed_images(plain, bundles):
    """Image table of the differential under which every plain generator
    is closed: zero on `plain`, and on each bundle b = a0⌣₁z of `bundles`
    the binary formula of `cup1_boundary` with d(a0) = 0,

        d(b) = −s_a·Σ c·[(a0⌣₁x)·y + (−1)^{|x|(|a0|+1)} x·(a0⌣₁y)] + s_a·a0·z − s_za·z·a0

    summed over the terms c·x·y of d(z) (none when z is plain), with
    s_a = (−1)^{|a0|} and s_za = (−1)^{|a0|(|z|+1)}.  It is evaluated on
    term maps, fewest factors first: a0 precedes every factor of z, so
    a0⌣₁x is the bundle on a0 and the factors of x, with sign +1, looked
    up by its name tuple.  Tails missing from `bundles` are added, closed
    under `split`, and left out of the table.  `cup1_boundary` is the
    general form of the formula, and the tests' oracle for this one."""
    plain = list(plain)
    closed = set(plain)
    names = {g: (g.name,) for g in plain}  # letter -> name tuple of its plain factors
    letter_of = {key: g for g, key in names.items()}  # the inverse
    walk = {}
    for b in bundles:
        outside = [f.name for f in bundle_factors(b) if f not in closed]
        if outside:
            raise DomainError(f"no differential image for factor {outside[0]}")
        while b not in closed and b not in walk:
            walk[b] = b.split()
            b = walk[b][1]
    for b in walk:
        names[b] = key = tuple(f.name for f in b.factors)
        letter_of[key] = b
    boundary = {}  # bundle -> term map of its boundary

    def cup(a0, x):
        key = (a0.name,) + names[x]
        letter = letter_of.get(key)
        if letter is None:
            letter = letter_of[key] = Cup1Monomial((a0, *bundle_factors(x)))
            names[letter] = key
        return letter

    for b, (a0, z) in sorted(walk.items(), key=lambda item: len(item[0].factors)):
        deg = a0.total_degree
        sa = -1 if deg % 2 else 1
        sza = -1 if (deg * (z.total_degree + 1)) % 2 else 1
        out = {}
        for (x, y), c in boundary.get(z, {}).items():
            sx = -1 if (x.total_degree * (deg + 1)) % 2 else 1
            _merge(out, (((cup(a0, x), y), c), ((x, cup(a0, y)), sx * c)), -sa)
        _merge(out, (((a0, z), sa), ((z, a0), -sza)))
        boundary[b] = out
    return ImageTable({**{g: TensorElement.zero() for g in plain}, **{b: TensorElement(boundary.get(b)) for b in bundles}})


def bundle_images(plain):
    """Closed images of the `plain` generators, given in canonical order,
    and of every bundle on two or more of them: one table serves every
    monomial on these generators."""
    bundles = [Cup1Monomial(c) for k in range(2, len(plain) + 1) for c in combinations(plain, k)]
    return closed_images(plain, bundles)

