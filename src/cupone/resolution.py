"""Minimal multiplicative resolutions of relation-free graded
commutative algebras.

A presentation's generators are even through degree 2⌊(m+2)/2⌋ − 1 (all
of them for m = ∞).  Its resolution has the plain generators of degree
<= m and one generator per cup-one bundle of distinct plain generators
with total degree in [1, m]; the differential is the unshuffle boundary
and the augmentation sends a degree-zero word to its commutative monomial.
The tensor algebra splits into d-invariant summands, one per multiset of
plain generators: complexes of ordered partitions, with one stratum walk
and one stratum-∂ builder, shared with the permutohedron P_n (the summand
on n distinct generators).  They run on code words: a checked image
table is compiled once per owner (`_Codes`) into a small int per letter,
keyed by the name tuple of its plain factors, and per code the image on
code words, so cells are int tuples and ∂ splices them with the loop of
`extend_derivation`; letters are decoded only for texts and labels.
`certify_resolution` compiles the resolution's own table once and asks
each summand for one window of positions, getting its verdicts from
`homology` on the window's maps.  On the resolution that build_resolution
makes of its presentation, a summand's homology only depends on the
multiplicity pattern.  So when `certify_resolution` sees that its
resolution equals that rebuild (m, plain generators, bundles and images),
each pattern is walked once, on its multiset with the lowest window, and
the other multisets of the pattern read their windows off those verdicts.
Any other resolution, or one that cannot be rebuilt, walks every
multiset.  Nothing is kept between calls.

Maps of resolutions extend letter data along one bundle walk, fewest
factors first, splitting each bundle as a0⌣₁z: RH(f), and derivation
homotopies s, which force the one β with sd + ds = α − β on letters.
`extend_homotopy` checks that law again on products of two letters,
where it holds only for chain maps, so the check is not a tautology.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from math import ceil, comb, prod
from operator import sub

from .algebra import FreeDGA, Generator, TensorElement, _merge, _splice, check_d_squared, format_word, word_multiply
from .cup1 import Cup1Monomial, bundle_factors, closed_images, cup1_pair
from .errors import DegreeError, DomainError, PreconditionError, SizeError
from .linalg import IntMatrix, homology
from .record import Record

INFINITY = None  # marker for the polynomial (m = ∞) case

# `certify_resolution` refuses a resolution whose summand walks would
# build more cells than this (`_window_cells`).  On a 2-core Xeon with
# Python 3.11.7, {x: 2, y: 2} at m = ∞ walks 289,724 cells in 7–8 s at
# truncation 26 and 761,240 in 27 s at 28; {x: 2, y: 2, z: 2} walks
# 195,747 in 4.5 s at 17, and six generators of degree 2 at m = 12
# walk 158,704 in 3.3 s.  So the walk takes about 10 s at this bound.
MAX_CERTIFY_CELLS = 300_000


class CgaPresentation(Record):
    """A relation-free cga presentation: generators and a range bound m,
    a positive integer or None for the polynomial (m = ∞) case.

    Every generator is even throughout the range that m forces: for finite
    m an odd generator must have degree above 2⌊(m+2)/2⌋ − 1, and for
    m = ∞ none may be odd.  A presentation that breaks this is a
    precondition error naming each offending generator.  It carries no
    relations and is a free Z-module, so the no-relations-through-m+1 and
    torsion-free-through-m conditions hold by construction.
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
        # an odd degree is <= 2⌊(m+2)/2⌋ − 1 exactly when it is <= m + 1
        odd = [g for g in gens if g.int_degree % 2 and (self.m is INFINITY or g.int_degree <= self.m + 1)]
        if odd:
            where = "in the polynomial case" if self.m is INFINITY else f"inside the range forced even by m={self.m}"
            raise PreconditionError("; ".join(f"odd-degree generator {g.name} (degree {g.int_degree}) {where}"
                                              for g in odd))

    @classmethod
    def of(cls, degrees, m=INFINITY):
        """Build from a name -> degree mapping."""
        return cls(tuple(Generator(n, 0, d) for n, d in degrees.items()), m)


class Resolution(FreeDGA):
    """The minimal multiplicative resolution, truncated at total degree m:
    a free dga on the plain generators and the bundles."""

    def __init__(self, presentation, m, plain, bundles, images):
        self.presentation = presentation
        self.m = m
        self.plain = list(plain)
        self.bundles = list(bundles)
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
    """Construct the resolution of a presentation.

    For m = ∞ the caller must pass a total-degree truncation.  Plain
    generators of degree <= m survive; the bundle generators are the
    cup-one monomials on distinct plain generators with total degree in
    [1, m].  Plain generators are closed and every bundle bounds by the
    unshuffle formula.
    """
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
    return Resolution(p, m, plain, bundles, closed_images(plain, bundles))


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
    shares its sub-walks with the others.  Each state is a generator
    that yields the key of a sub-walk it still needs and finds it in the
    memo when resumed; a loop over a stack of them drives the walk, so
    its depth does not grow with the number of blocks."""
    names = sorted(counts)
    # (bitmask of the names in the block, one count per name it takes, code), by size, then in name order
    blocks = [
        (sum(1 << i for i in combo), tuple(int(i in combo) for i in range(len(names))), letters[key])
        for size in range(1, len(names) + 1)
        for combo in combinations(range(len(names)), size)
        if (key := tuple(names[i] for i in combo)) in letters
    ]
    within = {}  # remaining multiset -> the blocks on names it still holds
    memo = {}  # (remaining multiset, blocks left) -> its words

    def state(remaining, k):
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
                key = (tuple(map(sub, remaining, taken)), k - 1)
                tails = memo.get(key)
                if tails is None:
                    yield key
                    tails = memo[key]
                found.extend((letter,) + tail for tail in tails)

    def words(remaining, k):
        if (remaining, k) not in memo:
            stack = [state(remaining, k)]
            while stack:
                for key in stack[-1]:
                    stack.append(state(*key))
                    break
                else:
                    stack.pop()
        return memo[(remaining, k)]

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
    order.  The window's maps, out of positions n = lo..hi + 1, go to
    `homology` as one complex, so each is built and eliminated once and
    each composite is checked to vanish; its inner groups are the
    positions lo..hi.  At n = 0 the augmentation, which sums the
    coefficients on the ordering stratum, takes the place of the outgoing
    ∂, so the verdict is exactness ker(ρ) = im(d).  A nonzero composite
    is named with the summand and the window."""
    size = sum(counts.values())
    stratum = _stratum_walk(counts, table.code)  # k -> code words of k blocks, resolution degree k − size
    maps = [
        _stratum_boundary(table, stratum(size - n), stratum(size - n + 1)) if n else IntMatrix([[1] * len(stratum(size))])
        for n in range(lo, hi + 2)
    ]
    try:
        groups = homology(maps)
    except DomainError as exc:
        rho = " (d_1 = ρ)" if lo == 0 else ""
        raise DomainError(f"summand {dict(counts)}, window {-hi}..{-lo}, maps d_1, d_2, ... out of resolution "
                          f"degrees {-lo}, {-lo - 1}, ...{rho}: {exc}") from None
    return tuple(group.is_trivial for group in groups[1:-1])


def _resolution_multisets(plain, m):
    """Yield the multisets of plain generators that can meet the range: the
    minimal total degree j − (s − 1) of a word on the multiset must be
    <= m.  Adding a copy of any generator raises j − (s − 1), so pruning
    is safe."""

    def walk(idx, counts, size, j):
        if size and j - (size - 1) > m:
            return
        if idx == len(plain):
            if size:
                yield dict(counts)
            return
        g = plain[idx]
        yield from walk(idx + 1, counts, size, j)
        c = 0
        while True:
            c += 1
            new_j = j + c * g.int_degree
            new_size = size + c
            if new_j - (new_size - 1) > m:
                break
            counts[g.name] = c
            yield from walk(idx + 1, counts, new_size, new_j)
        counts.pop(g.name, None)

    return walk(0, {}, 0, 0)


def _window_cells(counts, lo, n_hi):
    """The cells that the walk of a summand's window builds: the words of
    k blocks on the multiset `counts` for k = s − n_hi − 1 .. s − lo + 1,
    the strata of the maps out of positions lo..n_hi + 1, where s is the
    multiset's size.  Every set of distinct names is taken to be a block,
    as it is in a resolution that build_resolution makes, so for any
    other this is an upper bound.  A word of k blocks puts each name into
    n of k slots, none left empty, so by inclusion–exclusion over the
    empty slots there are Σ_j (−1)^{k−j} C(k, j) Π C(j, n) of them."""
    ns = counts.values()
    s, top = sum(ns), max(ns)
    return sum(
        (-1) ** (k - j) * comb(k, j) * prod(comb(j, n) for n in ns)
        for k in range(s - n_hi - 1, s - lo + 2)
        for j in range(top, k + 1)
    )


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
    degree m, on the compiled letters of `r`; nothing is kept between
    calls.  d² failures raise, and so does an `r` whose summand walks
    would build more than `MAX_CERTIFY_CELLS` cells, a SizeError; the
    cells are counted from the window sizes (`_window_cells`) before any
    check.  Everything else is report-valued.

    Each multiplicity pattern is walked once only when `r` equals
    `build_resolution(r.presentation, truncation=r.m)` in m, plain
    generators, bundles and images; any other `r` walks every multiset,
    so a changed image is seen in whichever summand it breaks:

    >>> r = build_resolution(CgaPresentation.of(dict.fromkeys("abcd", 2), 4))
    >>> print(certify_resolution(r))
    resolution exact in range (total degree <= 4)
    >>> images = {**r.images, r.letter("a⌣₁c⌣₁d"): TensorElement.zero()}
    >>> print(certify_resolution(Resolution(r.presentation, r.m, r.plain, r.bundles, images)))
    certification failed: homology does not vanish in range at total degree 4
    """
    try:
        built = build_resolution(r.presentation, truncation=r.m)
    except DomainError:  # m < 1 has no rebuild
        rebuilt = False
    else:
        rebuilt = (built.m, built.plain, built.bundles, built.images) == (r.m, r.plain, r.bundles, r.images)
    # The homology of a summand of build_resolution's output only depends
    # on its multiplicity pattern, so when `r` equals its rebuild the
    # pattern is the summand's key; otherwise the multiset is.
    degrees_by_name = {g.name: g.int_degree for g in r.plain}
    windows = []  # (summand key, multiset, its degree j, positions lo..n_hi in range) of each summand that meets the range
    lowest = {}  # summand key -> its lowest lo so far and the cells its walk there builds
    cells = 0  # their sum, counted before anything is checked or walked
    for counts in _resolution_multisets(r.plain, r.m):
        s = sum(counts.values())
        j = sum(degrees_by_name[n] * c for n, c in counts.items())
        n_hi = s - max(max(counts.values()), ceil(s / len(counts)))
        lo = max(0, j - r.m)
        if lo <= n_hi:
            key = tuple(sorted(counts.values(), reverse=True)) if rebuilt else tuple(sorted(counts.items()))
            windows.append((key, counts, j, lo, n_hi))
            seen_lo, seen_cells = lowest.get(key, (None, 0))
            if seen_lo is None or lo < seen_lo:
                lowest[key] = lo, _window_cells(counts, lo, n_hi)
                cells += lowest[key][1] - seen_cells
                if cells > MAX_CERTIFY_CELLS:
                    gens = ", ".join(f"{g.name}: {g.int_degree}" for g in r.presentation.generators)
                    where = f"m = ∞ truncated at total degree {r.m}" if r.presentation.m is INFINITY else f"m = {r.m}"
                    raise SizeError(f"certify on {{{gens}}} at {where} would walk at least {cells} cells, "
                                    f"above the guard of {MAX_CERTIFY_CELLS}")

    squared = check_d_squared(r, r.m)
    if not squared.ok:
        raise DomainError(str(squared))

    for letter in r.letters:
        if r.rho(r.d(TensorElement.of(letter))):
            return CertifyReport(
                False, r.m, False, True,
                failure=f"ρ∘d != 0 at {letter.label()}",
            )

    # ρ is multiplicative, so it is onto through degree m exactly when every
    # presentation generator of degree <= m is a plain generator of r
    surjective = all(g.int_degree > r.m or g in r.plain for g in r.presentation.generators)
    table = _Codes(r.images, r.letters)
    degree_map = {}  # total degree -> negative positions, all of them exact, exact at zero
    walked = {}  # summand key -> its verdicts at lo..n_hi, for the lowest lo of the key
    # Lowest lo first, each key is walked once, on its lowest window, and
    # its other windows slice those verdicts.  The walk meets only letters
    # of `r`, as a letter has total degree >= 1: the cells at positions
    # lo..n_hi + 1 have total degree <= m (j <= m when lo = 0, lo = j − m
    # otherwise), and for lo > 0 those at lo − 1 have m + 1 and
    # s − lo + 1 >= 2 blocks (lo <= n_hi < s).
    for key, counts, j, lo, n_hi in sorted(windows, key=lambda window: window[3]):
        if key not in walked:
            walked[key] = _summand_verdicts(counts, table, lo, n_hi)
        verdicts = walked[key][lo - n_hi - 1:]  # the last n_hi − lo + 1
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

def _word_image(images, word):
    """The image of `word` under the multiplicative map with letter images
    `images`: the product of its letters' images, in order."""
    try:
        factors = [images[letter] for letter in word]
    except KeyError as missing:
        raise DomainError(f"map has no image for {missing.args[0].label()}") from None
    return reduce(word_multiply, factors) if factors else TensorElement.unit()


class ResolutionMap:
    """A multiplicative map between resolutions, given by letter images; a
    word's image is formed by `_word_image` where it is needed, not kept."""

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = dict(images)

    @classmethod
    def identity(cls, r):
        return cls(r, r, {letter: TensorElement.of(letter) for letter in r.letters})

    def apply(self, element):
        return element.linear(lambda word: _word_image(self.images, word).terms)

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
        out = word_multiply(alpha(TensorElement.of(head)).scale(-1 if head.total_degree % 2 else 1), s_word(rest))
        return out + word_multiply(s_letter[head], _word_image(beta, rest))

    def s(element):
        return element.linear(lambda word: s_word(word).terms)

    for b, a0, z in _bundle_walk(source):
        alpha_a0, s_a0, s_z = alpha(TensorElement.of(a0)), s_letter[a0], s_letter[z]
        s_b = s_letter[b] = -cup1_pair(alpha_a0, s_z) + cup1_pair(s_a0, beta[z]) + word_multiply(s_z, s_a0)
        beta[b] = alpha(TensorElement.of(b)) - target.d(s_b) - s(source.d(TensorElement.of(b)))
    return s_letter, s, beta


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
