"""Minimal multiplicative resolutions of relation-free graded
commutative algebras.

The resolution of a presentation with plain generators of even degree has
one extra generator per cup-one bundle of distinct plain generators with
total degree in [1, m]; the differential is the unshuffle boundary and
the augmentation sends a degree-zero word to its commutative monomial.
The tensor algebra splits into d-invariant summands, one per multiset of
plain generators: complexes of ordered partitions, with one stratum walk
and one stratum-∂ builder, shared with the permutohedron P_n (the summand
on n distinct generators).  They run on code words: a checked image
table is compiled once per owner (`_Codes`) into a small int per letter,
keyed by the name tuple of its plain factors, and per code the image on
code words, so cells are int tuples and ∂ splices them with the loop of
`extend_derivation`; letters are decoded only for texts and labels.
`certify_resolution` asks each summand for one window of positions and
gets its verdicts from one walk down the strata.  A summand's homology
only depends on the multiplicity pattern, so for a resolution from
build_resolution the walk runs on generic generators w0, w1, ... of one
generic table, built once on the longest pattern that meets the range
(the resolution's generator count, when m allows), and each pattern's
verdicts are kept across presentations for the widest window walked;
any other resolution is checked on its own letters, compiled once per
`certify`.

Maps of resolutions extend letter data along one bundle walk, fewest
factors first, splitting each bundle as a0⌣₁z: RH(f), and derivation
homotopies s, which force the one β with sd + ds = α − β on letters.
`extend_homotopy` checks that law again on products of two letters,
where it holds only for chain maps, so the check is not a tautology.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache, reduce
from itertools import combinations
from math import ceil
from operator import sub

from .algebra import FreeDGA, Generator, TensorElement, _merge, _splice, check_d_squared, format_word, word_multiply
from .cup1 import Cup1Monomial, bundle_factors, bundle_images, closed_images, cup1_pair
from .errors import DegreeError, DomainError, PreconditionError
from .linalg import IntMatrix, group_at, invariant_factors
from .record import Record

INFINITY = None  # marker for the polynomial (m = ∞) case


class CgaPresentation(Record):
    """A relation-free cga presentation: even generators, range bound m.

    `m` is a positive integer or None for the polynomial (m = ∞) case.
    """

    generators: tuple
    m: object = INFINITY

    def __post_init__(self):
        gens = tuple(sorted(self.generators, key=lambda g: g.name))
        object.__setattr__(self, "generators", gens)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise DomainError("duplicate generator names in presentation")
        for g in gens:
            if g.res_degree != 0:
                raise DomainError(f"presentation generator {g.name} must have resolution degree 0")
            if g.int_degree < 1:
                raise DomainError(f"presentation generator {g.name} must have positive degree")
        if self.m is not INFINITY and (not isinstance(self.m, int) or self.m < 1):
            raise DomainError("m must be a positive integer or the ∞ marker")

    @classmethod
    def of(cls, degrees, m=INFINITY):
        """Build from a name -> degree mapping."""
        return cls(tuple(Generator(n, 0, d) for n, d in degrees.items()), m)

    def monomials(self, degree):
        """Commutative monomials of the given degree, as sorted name tuples."""
        gens = self.generators
        out = []

        def walk(start, remaining, acc):
            if remaining == 0:
                out.append(tuple(acc))
                return
            for idx in range(start, len(gens)):
                g = gens[idx]
                if g.int_degree <= remaining:
                    acc.append(g.name)
                    walk(idx, remaining - g.int_degree, acc)
                    acc.pop()

        walk(0, degree, [])
        return out


class ValidationReport(Record):
    ok: bool
    violations: tuple = ()

    def __str__(self):
        if self.ok:
            return "presentation is relation-free in range"
        return "; ".join(self.violations)


def validate_presentation(p):
    """Check the relation-free range discipline.

    Generators must have even degree; for finite m the forbidden odd
    degrees are 2i−1 with 1 <= i <= (m+2)//2, for m = ∞ every odd degree.
    The presentation carries no relations and is a free Z-module, so the
    no-relations-through-m+1 and torsion-free-through-m conditions hold
    by construction.
    """
    violations = []
    for g in p.generators:
        if g.int_degree % 2:
            if p.m is INFINITY:
                violations.append(f"odd-degree generator {g.name} (degree {g.int_degree}) in the polynomial case")
            elif g.int_degree <= 2 * ((p.m + 2) // 2) - 1:
                violations.append(
                    f"odd-degree generator {g.name} (degree {g.int_degree}) inside the range forced even by m={p.m}"
                )
    return ValidationReport(not violations, tuple(violations))


class Resolution(FreeDGA):
    """The minimal multiplicative resolution, truncated at total degree m:
    a free dga on the plain generators and the bundles."""

    def __init__(self, presentation, m, plain, bundles, images, canonical=False):
        self.presentation = presentation
        self.m = m
        self.plain = list(plain)
        self.bundles = list(bundles)
        self.canonical = canonical
        super().__init__(self.plain + self.bundles, images)
        self._letters = {letter.label(): letter for letter in self.letters}

    def letter(self, label):
        try:
            return self._letters[label]
        except KeyError:
            raise DomainError(f"no generator {label!r} in the resolution") from None

    def rho(self, element):
        """Augmentation to the cga: commutative monomial map, bundles to 0."""
        out = {}
        for word, coeff in element.terms.items():
            if any(isinstance(letter, Cup1Monomial) for letter in word):
                continue
            mono = tuple(sorted(letter.name for letter in word))
            _merge(out, [(mono, coeff)])
        return out

    def __repr__(self):
        return f"<Resolution m={self.m} plain={len(self.plain)} bundles={len(self.bundles)}>"


def build_resolution(p, truncation=None):
    """Construct the resolution of a validated presentation.

    For m = ∞ the caller must pass a total-degree truncation.  Plain
    generators of degree <= m survive; the bundle generators are the
    cup-one monomials on distinct plain generators with total degree in
    [1, m].  Plain generators are closed and every bundle bounds by the
    unshuffle formula.
    """
    report = validate_presentation(p)
    if not report.ok:
        raise PreconditionError(str(report))
    if p.m is INFINITY:
        if truncation is None or truncation < 1:
            raise DomainError("m = ∞ needs an explicit total-degree truncation >= 1")
        m = truncation
    else:
        m = p.m
    plain = [g for g in p.generators if g.int_degree <= m]
    bundles = []
    for k in range(2, len(plain) + 1):
        for combo in combinations(plain, k):
            total = sum(g.int_degree for g in combo) - (k - 1)
            if 1 <= total <= m:
                bundles.append(Cup1Monomial(combo))
    bundles.sort(key=lambda b: b.sort_key())
    return Resolution(p, m, plain, bundles, closed_images(plain, bundles), canonical=True)


# ---------------------------------------------------------------------------
# exactness certificates


class _Codes:
    """A checked `ImageTable` compiled onto small integer codes, once per
    owner.  `code` maps the name tuple of the plain factors of each of
    `letters` (every key of `images` by default) to its code, and
    `entries[code]` is that letter's (image term map on code words,
    whether its total degree is odd), the form `_splice` reads.
    `letters[code]` decodes; letters that occur only in images get codes
    after the given ones.  Cells are then int tuples, whose hashing calls
    no Python-level `__hash__`."""

    __slots__ = ("code", "entries", "letters")

    def __init__(self, images, letters=None):
        self.letters = list(images if letters is None else letters)
        keys = len(self.letters)
        code_of = {letter: i for i, letter in enumerate(self.letters)}

        def coded(word):
            for letter in word:
                if letter not in code_of:
                    code_of[letter] = len(self.letters)
                    self.letters.append(letter)
            return tuple(map(code_of.__getitem__, word))

        self.code = {tuple(f.name for f in bundle_factors(letter)): i for i, letter in enumerate(self.letters)}
        self.entries = [
            ({coded(w): c for w, c in images[letter].terms.items()}, letter.total_degree % 2)
            for letter in self.letters[:keys]
        ]

    def decode(self, word):
        return tuple(map(self.letters.__getitem__, word))


def _stratum_walk(counts, letters):
    """The strata of the multiset `counts` of plain generator names, as a
    function k -> the words of exactly k blocks that use the multiset;
    blocks have distinct members and come from `letters` (name tuple ->
    code, or letter).  The walk is memoized on the remaining multiset and
    the number of blocks left, so each stratum is enumerated once and
    shares its sub-walks with the others."""
    names = sorted(counts)
    # (bitmask of the names in the block, one count per name it takes, code), by size, then in name order
    blocks = [
        (sum(1 << i for i in combo), tuple(int(i in combo) for i in range(len(names))), letters[key])
        for size in range(1, len(names) + 1)
        for combo in combinations(range(len(names)), size)
        if (key := tuple(names[i] for i in combo)) in letters
    ]
    within = {}  # remaining multiset -> the blocks on names it still holds
    memo = {}

    def words(remaining, k):
        found = memo.get((remaining, k))
        if found is None:
            found = memo[(remaining, k)] = []
            size = sum(remaining)
            if k == 0:
                if size == 0:
                    found.append(())
            elif k <= size <= k * (len(remaining) - remaining.count(0)) and max(remaining) <= k:
                fits = within.get(remaining)
                if fits is None:
                    left = sum(1 << i for i, c in enumerate(remaining) if c)
                    fits = within[remaining] = [(taken, letter) for mask, taken, letter in blocks if mask & left == mask]
                for taken, letter in fits:
                    found.extend((letter,) + tail for tail in words(tuple(map(sub, remaining, taken)), k - 1))
        return found

    whole = tuple(counts[name] for name in names)
    return lambda k: words(whole, k)


def _cell_boundary(table, word, cell_of):
    """∂ of the cell `word`, a code word of the `_Codes` table, in an
    ordered-partition complex: (cell_of(w), coefficient) per code word w
    of d(word).  A w that is not a cell one block longer, where cell_of
    raises KeyError, is named."""
    terms = _splice(table.entries, {word: 1})
    try:
        return [(cell_of(w), coeff) for w, coeff in terms.items()]
    except KeyError as missing:
        dim = -sum(letter.res_degree for letter in table.decode(word)) - 1
        named = format_word(table.decode(missing.args[0]))
        raise DomainError(f"transported word {named} is not a face of dimension {dim}") from None


def _stratum_boundary(table, src, tgt):
    """∂ from the cells `src` to the cells `tgt` one block longer, code
    words of `table`, with rows and columns in list order."""
    row_of = {w: i for i, w in enumerate(tgt)}.__getitem__
    return IntMatrix.from_columns(range(len(tgt)), [_cell_boundary(table, w, row_of) for w in src])


def _summand_verdicts(counts, table, lo, hi):
    """Whether the homology of the summand on the multiset `counts` of
    plain generator names, over the letters of the `_Codes` table
    `table`, vanishes at resolution degree −n, for n = lo..hi in that
    order.  One walk down the strata holds only the ∂ on each side of the
    current position; each ∂ is built and eliminated once.  At n = 0 the
    augmentation, which sums the coefficients on the ordering stratum,
    takes the place of the outgoing ∂, so the verdict is exactness
    ker(ρ) = im(d).  Each outgoing map composed with the incoming ∂ is
    checked to vanish."""
    size = sum(counts.values())
    stratum = _stratum_walk(counts, table.code)  # k -> code words of k blocks, resolution degree k − size
    d_in = _stratum_boundary(table, stratum(size - hi - 1), stratum(size - hi))
    in_factors = invariant_factors(d_in)
    verdicts = []
    for n in range(hi, lo - 1, -1):
        mid = stratum(size - n)
        d_out = IntMatrix([[1] * len(mid)]) if n == 0 else _stratum_boundary(table, mid, stratum(size - n + 1))
        out_factors = (1,) if n == 0 else invariant_factors(d_out)
        if d_out.mul(d_in).sparse_rows:
            composite = "ρ∘d" if n == 0 else "d∘d"
            raise DomainError(f"{composite} is nonzero on the summand {dict(counts)} at resolution degree {-n}")
        verdicts.append(group_at(len(mid), len(out_factors), in_factors).is_trivial)
        d_in, in_factors = d_out, out_factors
    return tuple(reversed(verdicts))


# A `certify` on 4-6 generators of degree 2-6 at m = 8 or 10
# (`bench/data/certify.json`) meets 17-34 patterns, so one run's verdicts fit.
PATTERN_CACHE_SIZE = 64
_pattern_cache = OrderedDict()  # (pattern, hi) -> its verdicts at lo..hi, for the lowest lo walked


def _pattern_verdicts(mults, lo, hi):
    """The verdicts of `_summand_verdicts` for a multiplicity pattern, on
    generic generators w0, w1, ... of `_generic_table`; the homology of a
    summand of a canonical resolution only depends on the pattern.  The
    verdicts are kept per pattern and top position, for the last
    `PATTERN_CACHE_SIZE` of them, and serve every window inside the one
    walked; a window that reaches lower is walked whole and replaces it,
    so a caller that asks for a pattern's lowest window first walks each
    pattern once."""
    key, width = (mults, hi), hi - lo + 1
    found = _pattern_cache.pop(key, ())
    if len(found) < width:
        found = _summand_verdicts({f"w{i}": c for i, c in enumerate(mults)}, _generic_table(len(mults)), lo, hi)
    _pattern_cache[key] = found
    if len(_pattern_cache) > PATTERN_CACHE_SIZE:
        _pattern_cache.popitem(last=False)
    return found[len(found) - width:]


_generic = []  # (generator count, table) of the largest generic table built


def _generic_table(size):
    """The `_Codes` table of the closed images of at least `size` generic
    generators w0, w1, ... of degree 2.  A pattern on k generators reads
    its letters w0..w{k−1} by name, so one table serves every pattern no
    longer than it: a new one is built only when more generators are
    asked for, and a `certify` builds one, on its longest pattern."""
    if not _generic or _generic[0][0] < size:
        _generic[:] = [(size, _Codes(bundle_images([Generator(f"w{i}", 0, 2) for i in range(size)])))]
    return _generic[0][1]


def _resolution_multisets(plain, m):
    """Multisets of plain generators that can meet the range: the minimal
    total degree j − (s − 1) of a word on the multiset must be <= m.
    Adding a copy of any generator raises j − (s − 1), so pruning is safe."""
    out = []

    def walk(idx, counts, size, j):
        if size and j - (size - 1) > m:
            return
        if idx == len(plain):
            if size:
                out.append(dict(counts))
            return
        g = plain[idx]
        walk(idx + 1, counts, size, j)
        c = 0
        while True:
            c += 1
            new_j = j + c * g.int_degree
            new_size = size + c
            if new_j - (new_size - 1) > m:
                break
            counts[g.name] = c
            walk(idx + 1, counts, new_size, new_j)
        counts.pop(g.name, None)

    walk(0, {}, 0, 0)
    return out


class DegreeCertificate(Record):
    total_degree: int
    negative_positions: int
    negative_ok: bool
    exact_at_zero: bool

    @property
    def ok(self):
        return self.negative_ok and self.exact_at_zero


class CertifyReport(Record):
    ok: bool
    m: int
    rho_d_zero: bool
    rho_surjective: bool
    degrees: tuple = ()
    failure: str = ""

    def __str__(self):
        if self.ok:
            return f"resolution exact in range (total degree <= {self.m})"
        return f"certification failed: {self.failure}"


def certify_resolution(r):
    """Certify d² = 0, ρ∘d = 0, ρ surjectivity, acyclicity in negative
    resolution degrees and exactness at degree zero, through total
    degree m.  d² failures raise; everything else is report-valued."""
    squared = check_d_squared(r, r.m)
    if not squared.ok:
        raise DomainError(str(squared))

    for letter in r.letters:
        if r.rho(r.d(TensorElement.of(letter))):
            return CertifyReport(
                False, r.m, False, True,
                failure=f"ρ∘d != 0 at {letter.label()}",
            )

    # surjectivity: every monomial of degree <= m is the image of its sorted word
    surjective = all(
        r.rho(TensorElement({tuple(map(r.letter, mono)): 1})) == {mono: 1}
        for j in range(1, r.m + 1) for mono in r.presentation.monomials(j)
    )

    degrees_by_name = {g.name: g.int_degree for g in r.plain}
    windows = []  # (multiset, its degree j, positions lo..n_hi in range) of each summand that meets the range
    for counts in _resolution_multisets(r.plain, r.m):
        s = sum(counts.values())
        j = sum(degrees_by_name[n] * c for n, c in counts.items())
        n_hi = s - max(max(counts.values()), ceil(s / len(counts)))
        lo = max(0, j - r.m)
        if lo <= n_hi:
            windows.append((counts, j, lo, n_hi))
    if r.canonical:
        _generic_table(max((len(counts) for counts, *_ in windows), default=0))  # one table for every pattern
    else:
        table = _Codes(r.images, r.letters)
    degree_map = {}  # total degree -> negative positions, all of them exact, exact at zero
    # lowest windows first, so each pattern is walked once (see `_pattern_verdicts`)
    for counts, j, lo, n_hi in sorted(windows, key=lambda window: window[2]):
        if r.canonical:
            verdicts = _pattern_verdicts(tuple(sorted(counts.values(), reverse=True)), lo, n_hi)
        else:
            verdicts = _summand_verdicts(counts, table, lo, n_hi)
        for n, ok in enumerate(verdicts, lo):
            entry = degree_map.setdefault(j - n, {"neg": 0, "neg_ok": True, "exact": True})
            if n:
                entry["neg"] += 1
                entry["neg_ok"] = entry["neg_ok"] and ok
            else:
                entry["exact"] = entry["exact"] and ok

    degrees = tuple(
        DegreeCertificate(t, entry["neg"], entry["neg_ok"], entry["exact"])
        for t, entry in sorted(degree_map.items())
    )
    bad = [c for c in degrees if not c.ok]
    failure = ""
    if bad:
        failure = f"homology does not vanish in range at total degree {bad[0].total_degree}"
    if not surjective:
        failure = "augmentation not surjective in range"
    return CertifyReport(not bad and surjective, r.m, True, surjective, degrees, failure)


# ---------------------------------------------------------------------------
# induced maps RH(f) and derivation homotopies

# Words whose images one ResolutionMap keeps.  The identity map's chain-map
# check and homotopy extension on 6 generators of degree 2 at m = 10 meet
# 665 distinct words (211 on 5 generators), so 1024 keeps such a run whole.
WORD_CACHE_SIZE = 1024


class ResolutionMap:
    """A multiplicative map between resolutions, given by letter images.

    The images of the words it has met are kept in an LRU cache of
    `WORD_CACHE_SIZE` entries, so a long-lived map holds a bounded amount."""

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = dict(images)
        self._word_cache = lru_cache(maxsize=WORD_CACHE_SIZE)(self._word_image)

    @classmethod
    def identity(cls, r):
        return cls(r, r, {letter: TensorElement.of(letter) for letter in r.letters})

    def _word_image(self, word):
        img = TensorElement.unit()
        for letter in word:
            try:
                img = word_multiply(img, self.images[letter])
            except KeyError:
                raise DomainError(f"map has no image for {letter.label()}") from None
        return img

    def apply(self, element):
        return element.linear(lambda word: self._word_cache(word).terms)

    __call__ = apply

    def verify_chain_map(self):
        """(True, None) or (False, offending letter label)."""
        for letter in sorted(self.source.letters, key=lambda l: l.sort_key()):
            lhs = self.apply(self.source.d(TensorElement.of(letter)))
            rhs = self.target.d(self.apply(TensorElement.of(letter)))
            if lhs != rhs:
                return False, letter.label()
        return True, None


def _normalize_cga_element(target, value):
    """Sort each word into the commutative normal form of the target cga."""
    out = {}
    for word, coeff in value.terms.items():
        letters = [target.letter(l.name) for l in word]
        letters.sort(key=lambda l: l.name)
        _merge(out, [(tuple(letters), coeff)])
    return value._like(out)


def build_rh_map(f_on_generators, source, target):
    """The induced map of resolutions: plain generators map by f, a
    bundle a0⌣₁z maps to f(a0)⌣₁f(z) along the bundle walk, which is the
    right-most association f(a0)⌣₁(f(a1)⌣₁(...)), and the whole map
    extends multiplicatively.  The chain map property is verified on
    every generator in range."""
    if target.m < source.m:
        raise DomainError("target resolution is truncated below the source range")
    images = {}
    for g in source.plain:
        try:
            value = f_on_generators[g.name]
        except KeyError:
            raise DomainError(f"no image given for generator {g.name}") from None
        value = _normalize_cga_element(target, value)
        deg = value.bidegree()
        if deg is not None and deg != (0, g.int_degree):
            raise DegreeError(f"image of {g.name} has bidegree {deg}, expected {(0, g.int_degree)}")
        images[g] = value
    for b, a0, z in _bundle_walk(source):
        images[b] = cup1_pair(images[a0], images[z])
    rh = ResolutionMap(source, target, images)
    ok, witness = rh.verify_chain_map()
    if not ok:
        raise DomainError(f"induced map is not a chain map at generator {witness}")
    return rh


def _bundle_walk(source):
    """(b, a0, z) for each bundle b = a0⌣₁z of `source`, fewest factors
    first, so data extended along the walk are known on a0 and z before b."""
    for b in sorted(source.bundles, key=lambda b: (len(b.factors), b.sort_key())):
        yield (b, *b.split())


def _homotopy(alpha, s_plain):
    """Extend a derivation homotopy s from α, given on the plain
    generators by `s_plain` (letter -> element), along the bundle walk by

        s(a0⌣₁z) = −α(a0)⌣₁s(z) + s(a0)⌣₁β(z) + s(z)·s(a0)

    and to words by s(x·w) = (−1)^{|x|} α(x)·s(w) + s(x)·β(w), where β is
    the one map that sd + ds = α − β allows on letters: α(a) − d(s(a)) on
    plain generators and α(b) − d(s(b)) − s(d(b)) on bundles.  Returns s
    on letters, s on elements and the letter images of β."""
    source, target = alpha.source, alpha.target
    s_letter = dict(s_plain)
    beta = {g: alpha(TensorElement.of(g)) - target.d(s_letter[g]) for g in source.plain}

    @lru_cache(maxsize=None)
    def s_word(word):
        if not word:
            return TensorElement.zero()
        head, rest = word[0], word[1:]
        beta_rest = reduce(word_multiply, (beta[letter] for letter in rest), TensorElement.unit())
        out = word_multiply(alpha(TensorElement.of(head)).scale(-1 if head.total_degree % 2 else 1), s_word(rest))
        return out + word_multiply(s_letter[head], beta_rest)

    def s(element):
        return element.linear(lambda word: s_word(word).terms)

    for b, a0, z in _bundle_walk(source):
        alpha_a0, s_a0, s_z = alpha(TensorElement.of(a0)), s_letter[a0], s_letter[z]
        s_b = s_letter[b] = -cup1_pair(alpha_a0, s_z) + cup1_pair(s_a0, beta[z]) + word_multiply(s_z, s_a0)
        beta[b] = alpha(TensorElement.of(b)) - target.d(s_b) - s(source.d(TensorElement.of(b)))
    return s_letter, s, beta


def derivation_homotopic_map(alpha, s0):
    """The dga self-map β homotopic to `alpha` along `s0` (plain generator
    name -> element, zero where absent): the β the homotopy law forces on
    letters (see `_homotopy`), verified to be a chain map."""
    s_plain = {g: s0.get(g.name, TensorElement.zero()) for g in alpha.source.plain}
    beta = ResolutionMap(alpha.source, alpha.target, _homotopy(alpha, s_plain)[2])
    ok, witness = beta.verify_chain_map()
    if not ok:
        raise DomainError(f"derived map is not a chain map at {witness}")
    return beta


class HomotopyReport(Record):
    ok: bool
    homotopy_law_failures: tuple
    product_law_failures: tuple
    s_images: dict = None
    _uncompared = ("s_images",)

    def __str__(self):
        if self.ok:
            return "derivation homotopy laws verified on letters and products of two letters"
        parts = (("sd+ds != α−β at ", self.homotopy_law_failures), ("product law fails at ", self.product_law_failures))
        return "; ".join(head + ", ".join(names) for head, names in parts if names)


def extend_homotopy(alpha, beta, s0):
    """Extend a homotopy s from plain generators to all bundles (see
    `_homotopy`) and check sd + ds = α − β.

    `s0` maps plain generator names to elements of bidegree (−1, |a|) with
    d(s0(a)) = α(a) − β(a); anything else is a precondition error.  The
    law fails on exactly the letters where β differs from the β that the
    extension forces, and each is named.  It is then checked on every
    product x·y of two letters, with s on words against d: not a
    tautology, as the law on letters implies it only for chain maps.

    >>> r = build_resolution(CgaPresentation.of({"x": 2, "y": 2}, 6))
    >>> ident = ResolutionMap.identity(r)
    >>> print(extend_homotopy(ident, ident, {}))
    derivation homotopy laws verified on letters and products of two letters
    >>> alpha = ResolutionMap(r, r, {**ident.images, r.letter("x⌣₁y"): TensorElement.zero()})
    >>> print(extend_homotopy(alpha, ident, {}))
    sd+ds != α−β at x⌣₁y; product law fails at x·x⌣₁y, y·x⌣₁y, x⌣₁y·x, x⌣₁y·y, x⌣₁y·x⌣₁y
    """
    source, target = alpha.source, alpha.target
    if beta.source is not source or beta.target is not target:
        raise DomainError("α and β must share source and target")
    s_plain = {}
    for g in source.plain:
        value = s0.get(g.name, TensorElement.zero())
        deg = value.bidegree()
        if deg is not None and deg != (-1, g.int_degree):
            raise DegreeError(f"s0({g.name}) has bidegree {deg}, expected {(-1, g.int_degree)}")
        if target.d(value) != alpha(TensorElement.of(g)) - beta(TensorElement.of(g)):
            raise PreconditionError(f"d·s0 != α−β at generator {g.name}")
        s_plain[g] = value
    s_letter, s, forced = _homotopy(alpha, s_plain)
    law_failures = tuple(letter.label() for letter in source.letters if beta.images.get(letter) != forced[letter])
    product_failures = tuple(
        f"{x.label()}·{y.label()}" for x in source.letters for y in source.letters
        if target.d(s(xy := TensorElement.of(x, y))) + s(source.d(xy)) != alpha(xy) - beta(xy)
    )
    s_images = {letter.label(): img for letter, img in s_letter.items()}
    return HomotopyReport(not law_failures and not product_failures, law_failures, product_failures, s_images)
