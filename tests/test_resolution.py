import random
from itertools import combinations, product
from math import ceil, comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cupone import cup1, resolution
from cupone.algebra import Generator, ImageTable, TensorElement, extend_derivation
from cupone.cup1 import Cup1Monomial, bundle_factors, bundle_images
from cupone.errors import DomainError, PreconditionError
from cupone.linalg import IntMatrix, homology_at, solve
from cupone.resolution import (
    INFINITY,
    PATTERN_CACHE_SIZE,
    WORD_CACHE_SIZE,
    CgaPresentation,
    Resolution,
    ResolutionMap,
    _Codes,
    _generic_table,
    _pattern_verdicts,
    _pattern_cache,
    _stratum_boundary,
    _stratum_walk,
    _summand_verdicts,
    build_resolution,
    build_rh_map,
    certify_resolution,
    extend_homotopy,
    validate_presentation,
)


def test_validate_examples():
    assert validate_presentation(CgaPresentation.of({"x": 2, "y": 4}, 8)).ok
    report = validate_presentation(CgaPresentation.of({"x": 3}, 4))
    assert not report.ok and "odd" in str(report)
    assert validate_presentation(CgaPresentation.of({"x": 2}, INFINITY)).ok
    assert not validate_presentation(CgaPresentation.of({"x": 3}, INFINITY)).ok
    # an odd generator far outside the range is tolerated for finite m
    assert validate_presentation(CgaPresentation.of({"x": 2, "t": 9}, 4)).ok


def test_build_one_generator():
    r = build_resolution(CgaPresentation.of({"x": 2}, 7))
    assert [l.label() for l in r.letters] == ["x"]
    assert r.d(TensorElement.of(r.letter("x"))).is_zero()


def test_build_two_generators():
    r = build_resolution(CgaPresentation.of({"x": 2, "y": 2}, 6))
    assert sorted(l.label() for l in r.letters) == ["x", "x⌣₁y", "y"]
    xy = r.letter("x⌣₁y")
    x, y = r.letter("x"), r.letter("y")
    assert r.d(TensorElement.of(xy)) == TensorElement.of(x, y) - TensorElement.of(y, x)


def test_build_three_generators_m5():
    r = build_resolution(CgaPresentation.of({"a": 2, "b": 2, "c": 2}, 5))
    labels = sorted(l.label() for l in r.letters)
    assert labels == ["a", "a⌣₁b", "a⌣₁b⌣₁c", "a⌣₁c", "b", "b⌣₁c", "c"]


def test_build_requires_truncation_for_polynomial_case():
    p = CgaPresentation.of({"x": 2}, INFINITY)
    with pytest.raises(DomainError, match="truncation"):
        build_resolution(p)
    r = build_resolution(p, truncation=6)
    assert r.m == 6


def test_bundle_counts_are_binomial():
    # with g same-degree generators and a generous range, the bundles at
    # resolution degree -n are exactly the (n+1)-subsets
    g = 5
    r = build_resolution(CgaPresentation.of({f"x{i}": 2 for i in range(g)}, 10))
    by_res = {}
    for b in r.bundles:
        by_res[b.res_degree] = by_res.get(b.res_degree, 0) + 1
    for n in range(1, g):
        expected = comb(g, n + 1) if (n + 1) * 2 - n <= 10 else 0
        assert by_res.get(-n, 0) == expected


def test_certify_two_generator_and_kernel_basis():
    r = build_resolution(CgaPresentation.of({"x": 2, "y": 2}, 6))
    rep = certify_resolution(r)
    assert rep.ok and rep.rho_d_zero and rep.rho_surjective
    # at total degree 4 the kernel of rho on words is spanned by xy - yx = d(x⌣₁y)
    x, y = r.letter("x"), r.letter("y")
    commutator = TensorElement({(x, y): 1, (y, x): -1})
    assert r.rho(commutator) == {}
    assert r.d(TensorElement.of(r.letter("x⌣₁y"))) == commutator


def test_certify_vacuous_single_generator():
    r = build_resolution(CgaPresentation.of({"x": 2}, 7))
    rep = certify_resolution(r)
    assert rep.ok
    assert all(c.negative_positions == 0 for c in rep.degrees)


def test_certify_detects_corrupted_rho_d():
    good = build_resolution(CgaPresentation.of({"x": 2, "y": 2}, 6))
    xy = good.letter("x⌣₁y")
    x, y = good.letter("x"), good.letter("y")
    images = dict(good.images)
    images[xy] = TensorElement.of(x, y)  # drop the -yx term
    bad = Resolution(good.presentation, good.m, good.plain, good.bundles, images)
    rep = certify_resolution(bad)
    assert not rep.ok
    assert "ρ∘d" in rep.failure


def test_certify_direct_path_matches_cached():
    # same resolution, canonical flag off forces the uncached computation
    r = build_resolution(CgaPresentation.of({"x": 2, "y": 4}, 8))
    direct = Resolution(r.presentation, r.m, r.plain, r.bundles, r.images, canonical=False)
    rep_a = certify_resolution(r)
    rep_b = certify_resolution(direct)
    assert rep_a.ok and rep_b.ok
    assert rep_a.degrees == rep_b.degrees


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; returns the count."""
    calls, original = [0], getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_pattern_verdicts_recompute_after_eviction(monkeypatch):
    first = _pattern_verdicts((2, 2, 1), 0, 5)
    assert len(first) == 6
    for c in range(1, PATTERN_CACHE_SIZE + 1):
        _pattern_verdicts((c,), 0, 0)  # one generator: no bundles, cheap to walk
    assert len(_pattern_cache) == PATTERN_CACHE_SIZE and ((2, 2, 1), 5) not in _pattern_cache
    walks = _counting(monkeypatch, resolution, "_summand_verdicts")
    again = _pattern_verdicts((2, 2, 1), 0, 5)
    assert walks[0] == 1  # evicted, so walked again
    assert again == first
    assert len(_pattern_cache) == PATTERN_CACHE_SIZE


def test_pattern_verdicts_serve_every_window_inside_the_one_walked(monkeypatch):
    mults, hi = (2, 2, 1, 1), 4
    monkeypatch.setattr(resolution, "_pattern_cache", type(_pattern_cache)())
    walks = _counting(monkeypatch, resolution, "_summand_verdicts")
    top = _pattern_verdicts(mults, 3, hi)
    whole = _pattern_verdicts(mults, 0, hi)
    assert walks[0] == 2 and whole[3:] == top  # reaching lower walks again
    assert [_pattern_verdicts(mults, lo, hi) for lo in range(hi + 1)] == [whole[lo:] for lo in range(hi + 1)]
    assert walks[0] == 2
    counts = {f"w{i}": c for i, c in enumerate(mults)}
    assert whole == _summand_verdicts(counts, _generic_table(len(mults)), 0, hi)


def _certify_cold(monkeypatch, degrees, m):
    """Certify a presentation with no generic table or pattern walk kept."""
    monkeypatch.setattr(resolution, "_pattern_cache", type(_pattern_cache)())
    monkeypatch.setattr(resolution, "_generic", [])
    return certify_resolution(build_resolution(CgaPresentation.of(degrees, m)))


def test_cold_certify_builds_one_generic_table_and_no_cup1_boundary(monkeypatch):
    # the table on all 5 generators also serves the patterns on fewer
    tables = _counting(monkeypatch, resolution, "bundle_images")
    boundaries = _counting(monkeypatch, cup1, "cup1_boundary")
    assert _certify_cold(monkeypatch, dict.fromkeys("abcde", 2), 8).ok
    assert tables[0] == 1 and boundaries[0] == 0
    assert len(_generic_table(3).code) == 2 ** 5 - 1


def test_generic_table_is_built_on_the_longest_pattern(monkeypatch):
    # 11 generators at m = 3 meet only patterns on at most 2 of them; a
    # table on all 11 would hold 2^11 − 1 letters
    assert _certify_cold(monkeypatch, {chr(ord("a") + i): 2 for i in range(11)}, 3).ok
    assert len(_generic_table(1).code) == 3


@pytest.mark.parametrize("degrees, eliminations", [
    ({"a": 2, "b": 2, "c": 4, "d": 4, "e": 2}, 61),
    ({"a": 2, "b": 4, "c": 2, "d": 6}, 35),
])
def test_cold_certify_eliminates_each_pattern_boundary_once(monkeypatch, degrees, eliminations):
    # two multisets of one pattern ask for different windows; the lower
    # one is walked first and serves the other, so no ∂ is eliminated twice
    calls = _counting(monkeypatch, resolution, "invariant_factors")
    assert _certify_cold(monkeypatch, degrees, 10).ok
    assert calls[0] == eliminations


def test_summand_verdicts_check_each_composite_they_use():
    a, b, c = (Generator(n, 0, 2) for n in "abc")
    ab, abc = Cup1Monomial((a, b)), Cup1Monomial((a, b, c))
    counts = {"a": 1, "b": 1, "c": 1}
    images = bundle_images([a, b, c])
    images = ImageTable({**images, abc: images[abc] - TensorElement.of(ab, c)})  # right bidegree, but d(d(abc)) != 0
    assert _summand_verdicts(counts, _Codes(images), 0, 0) == (True,)
    with pytest.raises(DomainError, match=r"d∘d is nonzero on the summand .* at resolution degree -1"):
        _summand_verdicts(counts, _Codes(images), 1, 1)
    # d(ab) does not augment to 0
    images = ImageTable({**bundle_images([a, b]), ab: TensorElement.of(a, b) + TensorElement.of(b, a)})
    with pytest.raises(DomainError, match=r"ρ∘d is nonzero on the summand .* at resolution degree 0"):
        _summand_verdicts({"a": 1, "b": 1}, _Codes(images), 0, 0)


def test_summand_names_a_transported_word_outside_its_multiset():
    a, b = Generator("a", 0, 2), Generator("b", 0, 2)
    # right bidegree, outside the multiset {a, b}
    images = ImageTable({**bundle_images([a, b]), Cup1Monomial((a, b)): TensorElement.of(a, a)})
    with pytest.raises(DomainError, match=r"transported word aa is not a face of dimension 0"):
        _summand_verdicts({"a": 1, "b": 1}, _Codes(images), 1, 1)


def _patterns(size, largest=None):
    """Multiplicity patterns of `size`: partitions, largest part first."""
    if size == 0:
        yield ()
        return
    for part in range(min(size, largest or size), 0, -1):
        yield from ((part, *rest) for rest in _patterns(size - part, part))


def _position_verdicts(counts, table, top):
    """Whether the summand's homology vanishes at each position 0..top,
    through homology_at one position at a time."""
    size = sum(counts.values())
    stratum = _stratum_walk(counts, table.code)
    out = []
    for n in range(top + 1):
        mid = stratum(size - n)
        d_out = IntMatrix([[1] * len(mid)]) if n == 0 else _stratum_boundary(table, mid, stratum(size - n + 1))
        out.append(homology_at(d_out, _stratum_boundary(table, stratum(size - n - 1), mid)).is_trivial)
    return out


def test_summand_verdicts_match_homology_at_on_every_window():
    # every window lo..n_hi of every pattern of size <= 5; and, without the
    # bundle on all names, where the summand is a sphere and one position
    # fails, every window lo..size − 1
    for size in range(1, 6):
        for mults in _patterns(size):
            counts = {f"w{i}": c for i, c in enumerate(mults)}
            n_hi = size - max(mults[0], ceil(size / len(mults)))
            expected = _position_verdicts(counts, _generic_table(len(mults)), n_hi)
            for lo in range(n_hi + 1):
                assert _pattern_verdicts(mults, lo, n_hi) == tuple(expected[lo:]), (mults, lo)
            if len(mults) > 1:
                images = bundle_images([Generator(name, 0, 2) for name in counts])
                sphere = _Codes(images, [letter for letter in images if len(bundle_factors(letter)) < len(mults)])
                expected = _position_verdicts(counts, sphere, size - 1)
                assert expected.count(False) == 1
                for lo in range(size):
                    assert _summand_verdicts(counts, sphere, lo, size - 1) == tuple(expected[lo:]), (mults, lo)


def _letter_boundary(images, src, tgt):
    """∂ from the letter words `src` to `tgt`, by extend_derivation."""
    row_of = {w: i for i, w in enumerate(tgt)}
    columns = [[(row_of[w], c) for w, c in extend_derivation(images, TensorElement({w: 1})).terms.items()] for w in src]
    return IntMatrix.from_columns(range(len(tgt)), columns)


def test_coded_stratum_boundary_matches_the_letter_boundary():
    # every pattern of size <= 5: the ∂ built on code words equals the ∂
    # built on the decoded letter words by extend_derivation
    for size in range(1, 6):
        for mults in _patterns(size):
            counts = {f"w{i}": c for i, c in enumerate(mults)}
            images = bundle_images([Generator(name, 0, 2) for name in counts])
            table = _Codes(images)
            stratum = _stratum_walk(counts, table.code)
            for k in range(2, size + 1):
                src, tgt = stratum(k - 1), stratum(k)
                letters = [[table.decode(w) for w in words] for words in (src, tgt)]
                assert _stratum_boundary(table, src, tgt) == _letter_boundary(images, *letters), (mults, k)


def test_word_cache_is_bounded_and_recomputes_after_eviction():
    r = build_resolution(CgaPresentation.of({"x": 2, "y": 2}, 6))
    x, y = r.letter("x"), r.letter("y")
    rh = build_rh_map({"x": TensorElement.of(x) + TensorElement.of(y), "y": TensorElement.of(x)}, r, r)
    words = [w for k in range(1, 7) for w in product(r.letters, repeat=k)]
    assert len(words) > WORD_CACHE_SIZE
    probe = TensorElement({words[-1]: 1})
    before = rh(probe)
    for word in words[:-1]:
        rh(TensorElement({word: 2}))
    info = rh._word_cache.cache_info()
    assert info.maxsize == WORD_CACHE_SIZE and info.currsize == WORD_CACHE_SIZE
    assert rh(probe) == before
    assert rh._word_cache.cache_info().misses == info.misses + 1  # evicted, so built again


def _words_by_assignment(counts, k, letters):
    """Brute-force stratum: put the copies of each name into distinct
    blocks of k in every way (a bitmask of blocks per name) and keep the
    assignments whose blocks are all nonempty letters of `letters`
    (name tuple -> letter)."""
    names = sorted(counts)
    masks = [[sum(1 << b for b in where) for where in combinations(range(k), counts[n])] for n in names]
    out = []
    for choice in product(*masks):
        union = 0
        for mask in choice:
            union |= mask
        if union != (1 << k) - 1:
            continue  # an empty block
        blocks = [tuple(n for n, mask in zip(names, choice) if mask >> b & 1) for b in range(k)]
        if all(block in letters for block in blocks):
            out.append(tuple(letters[block] for block in blocks))
    return out


def _names(letter):
    return tuple(f.name for f in bundle_factors(letter))


@st.composite
def stratum_inputs(draw):
    """A multiset of total size <= 6 over <= 4 names, and a letter table
    that may lack some bundles, as a truncated resolution does."""
    names = ["w0", "w1", "w2", "w3"][:draw(st.integers(1, 4))]
    counts, spare = {}, 6 - len(names)
    for n in names:
        counts[n] = 1 + draw(st.integers(0, spare))
        spare -= counts[n] - 1
    letters = {_names(letter): letter for letter in bundle_images([Generator(n, 0, 2) for n in names])}
    bundles = sorted(key for key in letters if len(key) > 1)
    dropped = draw(st.sets(st.sampled_from(bundles))) if bundles else set()
    return counts, {key: letter for key, letter in letters.items() if key not in dropped}


@settings(max_examples=80, deadline=None, database=None)
@given(stratum_inputs())
def test_stratum_walk_matches_brute_force(case):
    counts, letters = case
    walk = _stratum_walk(counts, letters)
    size = sum(counts.values())
    assert walk(size + 1) == []
    for k in range(size + 1):
        got = walk(k)
        assert len(set(got)) == len(got)
        assert set(got) == set(_words_by_assignment(counts, k, letters))
        for word in got:
            blocks = [_names(letter) for letter in word]
            assert all(len(set(b)) == len(b) for b in blocks)
            used = {n: sum(b.count(n) for b in blocks) for n in counts}
            assert used == counts and len(word) == k


def test_certify_random_presentations():
    rng = random.Random(41)
    for _ in range(6):
        g = rng.randint(1, 4)
        degrees = {f"x{i}": 2 * rng.randint(1, 4) for i in range(g)}
        m = rng.randint(1, 10)
        r = build_resolution(CgaPresentation.of(degrees, m))
        assert certify_resolution(r).ok


def test_minimality_no_plain_component():
    r = build_resolution(CgaPresentation.of({"a": 2, "b": 2, "c": 4}, 9))
    for b in r.bundles:
        for word in r.images[b].terms:
            assert len(word) >= 2
            assert all(isinstance(l, Cup1Monomial) or l.res_degree == 0 for l in word)


def test_rh_map_identity():
    r = build_resolution(CgaPresentation.of({"x": 2, "y": 2}, 6))
    f = build_rh_map({"x": TensorElement.of(r.letter("x")), "y": TensorElement.of(r.letter("y"))}, r, r)
    xy = r.letter("x⌣₁y")
    assert f.apply(TensorElement.of(xy)) == TensorElement.of(xy)


def test_rh_map_zero():
    r = build_resolution(CgaPresentation.of({"x": 2, "y": 2}, 6))
    f = build_rh_map({"x": TensorElement.zero(), "y": TensorElement.zero()}, r, r)
    for letter in r.letters:
        assert f.apply(TensorElement.of(letter)).is_zero()
    ok, witness = f.verify_chain_map()
    assert ok and witness is None


def test_rh_map_collapsing_example():
    src = build_resolution(CgaPresentation.of({"x": 2, "y": 2}, 6))
    tgt = build_resolution(CgaPresentation.of({"u": 2}, 6))
    u = tgt.letter("u")
    f = build_rh_map({"x": TensorElement.of(u, coeff=2), "y": TensorElement.of(u, coeff=3)}, src, tgt)
    assert f.apply(TensorElement.of(src.letter("x⌣₁y"))).is_zero()


def test_rh_map_functorial_on_generator_images():
    a = build_resolution(CgaPresentation.of({"x": 2, "y": 2}, 6))
    b = build_resolution(CgaPresentation.of({"s": 2, "t": 2}, 6))
    c = build_resolution(CgaPresentation.of({"u": 2, "v": 2}, 6))
    f = build_rh_map({"x": TensorElement.of(b.letter("t")), "y": TensorElement.of(b.letter("s"))}, a, b)
    g = build_rh_map({"s": TensorElement.of(c.letter("u")), "t": TensorElement.of(c.letter("v"))}, b, c)
    gf = build_rh_map({"x": TensorElement.of(c.letter("v")), "y": TensorElement.of(c.letter("u"))}, a, c)
    for letter in a.letters:
        e = TensorElement.of(letter)
        assert g.apply(f.apply(e)) == gf.apply(e)


def test_rh_map_degree_mismatch_rejected():
    src = build_resolution(CgaPresentation.of({"x": 2}, 6))
    tgt = build_resolution(CgaPresentation.of({"u": 4}, 6))
    with pytest.raises(DomainError):
        build_rh_map({"x": TensorElement.of(tgt.letter("u"))}, src, tgt)


def test_extend_homotopy_trivial():
    r = build_resolution(CgaPresentation.of({"x": 2, "y": 2}, 6))
    ident = ResolutionMap.identity(r)
    report = extend_homotopy(ident, ident, {})
    assert report.ok
    assert all(img.is_zero() for img in report.s_images.values())


def test_extend_homotopy_precondition_named():
    r = build_resolution(CgaPresentation.of({"x": 2, "y": 2}, 6))
    ident = ResolutionMap.identity(r)
    zero = build_rh_map({"x": TensorElement.zero(), "y": TensorElement.zero()}, r, r)
    with pytest.raises(PreconditionError, match="x"):
        extend_homotopy(ident, zero, {})


def _solve_s0(r, g, target_elt):
    """Solve d(s0) = target_elt for s0 in the (-1, deg g) stratum of r."""
    deg = g.int_degree
    candidates = [b for b in r.bundles if b.res_degree == -1 and b.int_degree == deg]
    words = [(b,) for b in candidates]
    # include length-2 words bundle·plain etc. only if degrees allow; the
    # instance below only needs single-bundle words
    basis_images = [r.d(TensorElement({w: 1})) for w in words]
    target_words = sorted({w for img in basis_images for w in img.terms} | set(target_elt.terms),
                          key=lambda w: tuple(l.sort_key() for l in w))
    index = {w: i for i, w in enumerate(target_words)}
    mat = IntMatrix(
        [[img.terms.get(w, 0) for img in basis_images] for w in target_words],
        cols=len(words),
    )
    vec = [target_elt.terms.get(w, 0) for w in target_words]
    sol = solve(mat, vec)
    assert sol is not None
    out = TensorElement.zero()
    for c, w in zip(sol, words):
        out = out + TensorElement({w: c})
    return out


def test_extend_homotopy_constructed_instance():
    # beta derived from alpha along a nonzero s0, then s0 re-solved by
    # exact linear algebra and the recursion re-verified
    from cupone.resolution import derivation_homotopic_map

    r = build_resolution(CgaPresentation.of({"w": 4, "x": 2, "y": 2}, 8))
    alpha = ResolutionMap.identity(r)
    w = r.letter("w")
    xy = r.letter("x⌣₁y")
    chosen_s0 = {"w": TensorElement.of(xy, coeff=2)}
    beta = derivation_homotopic_map(alpha, chosen_s0)
    diff = alpha(TensorElement.of(w)) - beta(TensorElement.of(w))
    assert not diff.is_zero()
    s0 = {"w": _solve_s0(r, w, diff), "x": TensorElement.zero(), "y": TensorElement.zero()}
    report = extend_homotopy(alpha, beta, s0)
    assert report.ok, str(report)
    # the level-1 recursion formula on a two-factor bundle, checked literally
    from cupone.cup1 import cup1_pair
    from cupone.algebra import word_multiply
    for b in r.bundles:
        if len(b.factors) != 2:
            continue
        a0, z = b.factors
        s_a0 = report.s_images[a0.label()]
        s_z = report.s_images[z.label()]
        expected = (
            -cup1_pair(alpha(TensorElement.of(a0)), s_z)
            + cup1_pair(s_a0, beta(TensorElement.of(z)))
            + word_multiply(s_z, s_a0)
        )
        assert report.s_images[b.label()] == expected


def _non_chain_instance():
    """α = identity except x⌣₁y ↦ 0, which is not a chain map, with
    s0(w) = 2·x⌣₁y, on {w: 4, x: 2, y: 2} at m = 8."""
    r = build_resolution(CgaPresentation.of({"w": 4, "x": 2, "y": 2}, 8))
    xy = r.letter("x⌣₁y")
    alpha = ResolutionMap(r, r, {**ResolutionMap.identity(r).images, xy: TensorElement.zero()})
    assert not alpha.verify_chain_map()[0]
    return r, alpha, {"w": TensorElement.of(xy, coeff=2)}


def _forced_beta(r, alpha, s0):
    from cupone.resolution import _homotopy

    s_plain = {g: s0.get(g.name, TensorElement.zero()) for g in r.plain}
    return dict(_homotopy(alpha, s_plain)[2])


def test_extend_homotopy_product_law_fails_for_a_non_chain_alpha():
    # β is the forced one, so the law holds on every letter; it cannot
    # hold on products, since α does not commute with d
    r, alpha, s0 = _non_chain_instance()
    beta = ResolutionMap(r, r, _forced_beta(r, alpha, s0))
    report = extend_homotopy(alpha, beta, s0)
    assert not report.ok
    assert report.homotopy_law_failures == ()
    assert report.product_law_failures == ("w·w⌣₁x⌣₁y", "w·x⌣₁y", "w⌣₁x⌣₁y·w", "x⌣₁y·w")


def test_extend_homotopy_names_a_bundle_where_beta_differs_from_the_forced_image():
    r = build_resolution(CgaPresentation.of({"w": 4, "x": 2, "y": 2}, 8))
    alpha = ResolutionMap.identity(r)
    s0 = {"w": TensorElement.of(r.letter("x⌣₁y"), coeff=2)}
    images = _forced_beta(r, alpha, s0)
    assert extend_homotopy(alpha, ResolutionMap(r, r, images), s0).ok
    wx, x, w = r.letter("w⌣₁x"), r.letter("x"), r.letter("w")
    images[wx] = images[wx] + TensorElement.of(x, w)  # right bidegree, off the forced image
    report = extend_homotopy(alpha, ResolutionMap(r, r, images), s0)
    assert not report.ok
    assert report.homotopy_law_failures == ("w⌣₁x",)
    assert "sd+ds != α−β at w⌣₁x" in str(report)


def test_rh_map_three_factor_bundles_take_the_right_most_fold():
    from cupone.cup1 import cup1_pair

    r = build_resolution(CgaPresentation.of({"a": 2, "b": 2, "c": 2}, 6))
    a, b, c = (TensorElement.of(r.letter(name)) for name in "abc")
    f = {"a": b, "b": a + c, "c": c.scale(2)}
    rh = build_rh_map(f, r, r)
    (abc,) = [bundle for bundle in r.bundles if len(bundle.factors) == 3]
    for bundle in r.bundles:
        images = [f[g.name] for g in bundle.factors]
        expected = images[-1]
        for img in images[-2::-1]:
            expected = cup1_pair(img, expected)
        assert rh.images[bundle] == expected
    assert rh.images[abc] == cup1_pair(b, cup1_pair(a + c, c.scale(2)))
    assert not rh.images[abc].is_zero()
