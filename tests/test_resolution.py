import random
import sys
from itertools import combinations, product
from math import ceil, comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cupone import cup1, linalg, resolution
from cupone.algebra import Generator, ImageTable, TensorElement, extend_derivation
from cupone.cup1 import Cup1Monomial, bundle_factors, bundle_images
from cupone.errors import DomainError, PreconditionError, SizeError
from cupone.linalg import IntMatrix, homology_at, solve
from cupone.resolution import (
    INFINITY,
    CgaPresentation,
    DegreeCertificate,
    Resolution,
    ResolutionMap,
    _Codes,
    _resolution_multisets,
    _stratum_boundary,
    _stratum_walk,
    _summand_verdicts,
    build_resolution,
    build_rh_map,
    certify_resolution,
    extend_homotopy,
)


@pytest.mark.parametrize("degrees, m, message", [
    ({"x": 3}, 4, "odd-degree generator x (degree 3) inside the range forced even by m=4"),
    ({"x": 2, "t": 5}, 4, "odd-degree generator t (degree 5) inside the range forced even by m=4"),
    ({"x": 3}, INFINITY, "odd-degree generator x (degree 3) in the polynomial case"),
    ({"x": 2, "t": 3, "s": 5}, 8, "odd-degree generator s (degree 5) inside the range forced even by m=8; "
                                  "odd-degree generator t (degree 3) inside the range forced even by m=8"),
])
def test_presentation_rejects_odd_generators_in_range(degrees, m, message):
    with pytest.raises(PreconditionError) as caught:
        CgaPresentation.of(degrees, m)
    assert str(caught.value) == message


@pytest.mark.parametrize("degrees, m", [
    ({"x": 2, "y": 4}, 8), ({"x": 2}, INFINITY),
    # an odd generator above 2⌊(m+2)/2⌋ − 1 is tolerated for finite m
    ({"x": 2, "t": 9}, 4), ({"x": 2, "t": 7}, 4), ({"t": 5}, 3),
])
def test_presentation_keeps_odd_generators_above_the_range(degrees, m):
    assert CgaPresentation.of(degrees, m).m == m


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


def _bundles_by_subsets(p, m):
    """The labels of the bundles of `p` at range m, from every subset of
    its plain generators."""
    plain = [g for g in p.generators if g.int_degree <= m]
    return sorted((Cup1Monomial(combo) for k in range(2, len(plain) + 1) for combo in combinations(plain, k)
                   if 1 <= sum(g.int_degree for g in combo) - (k - 1) <= m), key=lambda b: b.sort_key())


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.sampled_from([2, 4, 6, 8, 10, 14]), min_size=1, max_size=8), st.integers(1, 14))
def test_bundles_are_the_subsets_in_range(degrees, m):
    p = CgaPresentation.of({f"g{i}": d for i, d in enumerate(degrees)}, m)
    assert build_resolution(p).bundles == _bundles_by_subsets(p, m)


def test_bundles_of_many_generators_are_listed_without_walking_every_subset():
    # 2^40 subsets, of which only the 780 pairs fit in m = 3
    r = build_resolution(CgaPresentation.of({f"g{i:02d}": 2 for i in range(40)}, 3))
    assert len(r.bundles) == 780 and all(len(b.factors) == 2 for b in r.bundles)


def test_the_word_guard_admits_exactly_its_bound(monkeypatch):
    p = CgaPresentation.of(dict.fromkeys("abcde", 2), 6)
    r = build_resolution(p)
    words = sum(len(image.terms) for image in r.images.values())
    assert words == sum(2 ** len(b.factors) - 2 for b in r.bundles) == 3 ** 5 - 2 ** 6 + 1
    monkeypatch.setattr(resolution, "MAX_RESOLUTION_WORDS", words)
    assert len(build_resolution(p).bundles) == 26
    monkeypatch.setattr(resolution, "MAX_RESOLUTION_WORDS", words - 1)
    with pytest.raises(SizeError, match=rf"^the resolution of \{{a: 2, b: 2, c: 2, d: 2, e: 2\}} at m = 6 would have "
                                        rf"at least {words} image words, above the guard of {words - 1}$"):
        build_resolution(p)


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


def test_certify_reports_a_missing_plain_generator():
    # without z, ρ misses the presentation generator z of degree 2 <= m
    good = build_resolution(CgaPresentation.of({"x": 2, "y": 2, "z": 2}, 6))
    plain = [g for g in good.plain if g.name != "z"]
    bundles = [b for b in good.bundles if all(f.name != "z" for f in b.factors)]
    bad = Resolution(good.presentation, good.m, plain, bundles, {l: good.images[l] for l in plain + bundles})
    rep = certify_resolution(bad)
    assert not rep.ok and rep.rho_d_zero and not rep.rho_surjective
    assert rep.failure == "augmentation not surjective in range"
    assert all(c.ok for c in rep.degrees)


def test_certify_raises_on_d_squared_naming_the_letter_and_dd():
    r = build_resolution(CgaPresentation.of(dict.fromkeys("abc", 2), 6))
    top, ab, c = r.letter("a⌣₁b⌣₁c"), r.letter("a⌣₁b"), r.letter("c")
    images = {**r.images, top: r.images[top] - TensorElement.of(ab, c)}
    with pytest.raises(DomainError, match=r"^d\^2 != 0 at a⌣₁b⌣₁c: d\(d\(g\)\) = -abc \+ bac$"):
        certify_resolution(Resolution(r.presentation, r.m, r.plain, r.bundles, images))


def test_certify_reports_rho_d_at_a_symmetrised_bundle():
    r = build_resolution(CgaPresentation.of(dict.fromkeys("ab", 2), 6))
    a, b = r.letter("a"), r.letter("b")
    images = {**r.images, r.letter("a⌣₁b"): TensorElement.of(a, b) + TensorElement.of(b, a)}
    report = certify_resolution(Resolution(r.presentation, r.m, r.plain, r.bundles, images))
    assert not report.ok and not report.rho_d_zero
    assert report.failure == "ρ∘d != 0 at a⌣₁b"


def test_a_resolution_needs_an_image_for_every_letter():
    r = build_resolution(CgaPresentation.of(dict.fromkeys("ab", 2), 6))
    with pytest.raises(DomainError, match="^no differential given for a⌣₁b$"):
        Resolution(r.presentation, r.m, r.plain, r.bundles, {g: r.images[g] for g in r.plain})


def test_certify_names_a_letter_met_only_inside_an_image():
    r = build_resolution(CgaPresentation.of(dict.fromkeys("ab", 2), 6))
    a, ab, z = r.letter("a"), r.letter("a⌣₁b"), Generator("z", 0, 2)
    images = {**r.images, ab: r.images[ab] + TensorElement.of(a, z) - TensorElement.of(z, a)}
    with pytest.raises(DomainError, match="^no differential image for letter z$"):
        certify_resolution(Resolution(r.presentation, r.m, r.plain, r.bundles, images))


def _windows(r):
    """(multiset, j, lo, n_hi) of each summand of `r` that meets the
    range, as `certify_resolution` reads them off `_resolution_multisets`."""
    degrees, out = {g.name: g.int_degree for g in r.plain}, []
    for counts in _resolution_multisets(r.plain, r.m):
        size, j = sum(counts.values()), sum(degrees[name] * c for name, c in counts.items())
        lo, n_hi = max(0, j - r.m), size - max(max(counts.values()), ceil(size / len(counts)))
        if lo <= n_hi:
            out.append((counts, j, lo, n_hi))
    return out


def _degree_certificates(windows):
    """The report's `degrees` from (j, lo, verdicts at lo, lo + 1, ...) of
    every window, each walked on its own multiset."""
    entries = {}  # total degree -> [negative positions, all of them exact, exact at zero]
    for j, lo, verdicts in windows:
        for n, ok in enumerate(verdicts, lo):
            entry = entries.setdefault(j - n, [0, True, True])
            if n:
                entry[0] += 1
                entry[1] = entry[1] and ok
            else:
                entry[2] = entry[2] and ok
    return tuple(DegreeCertificate(t, *entry) for t, entry in sorted(entries.items()))


def test_certify_per_multiset_matches_per_pattern():
    # the pattern walk on build_resolution's output against every window
    # walked on its own multiset
    r = build_resolution(CgaPresentation.of({"x": 2, "y": 4}, 8))
    table = _Codes(r.images, r.letters)
    windows = _windows(r)
    assert len(windows) > len({tuple(sorted(counts.values())) for counts, *_ in windows})
    reference = _degree_certificates((j, lo, _summand_verdicts(counts, table, lo, n_hi))
                                     for counts, j, lo, n_hi in windows)
    report = certify_resolution(r)
    assert report.ok and all(c.ok for c in reference)
    assert report.degrees == reference


ABCD = CgaPresentation.of(dict.fromkeys("abcd", 2), 4)


@pytest.mark.parametrize("tampered", ["a⌣₁b⌣₁c", "a⌣₁b⌣₁d", "a⌣₁c⌣₁d", "b⌣₁c⌣₁d"])
def test_certify_fails_on_each_zeroed_three_factor_bundle(tampered):
    # the four summands of pattern (1, 1, 1) are each walked: one walk per
    # pattern meets only {b, c, d} and passes the other three tampers
    r = build_resolution(ABCD)
    images = {**r.images, r.letter(tampered): TensorElement.zero()}
    report = certify_resolution(Resolution(r.presentation, r.m, r.plain, r.bundles, images))
    assert not report.ok and report.rho_d_zero and report.rho_surjective
    assert report.failure == "homology does not vanish in range at total degree 4"


def test_certify_walks_per_pattern_only_what_equals_its_rebuild(monkeypatch):
    r = build_resolution(ABCD)
    walks, walk = [], resolution._summand_verdicts

    def spy(counts, table, lo, hi):
        walks.append((counts, lo, hi))
        return walk(counts, table, lo, hi)

    monkeypatch.setattr(resolution, "_summand_verdicts", spy)
    windows = _windows(r)
    patterns = {tuple(sorted(counts.values(), reverse=True)) for counts, *_ in windows}
    assert certify_resolution(Resolution(r.presentation, r.m, r.plain, r.bundles, r.images)).ok
    assert len(walks) == len(patterns) < len(windows)
    assert {tuple(sorted(counts.values(), reverse=True)) for counts, _, _ in walks} == patterns
    walks.clear()
    images = {**r.images, r.letter("a⌣₁b⌣₁c"): TensorElement.zero()}
    assert not certify_resolution(Resolution(r.presentation, r.m, r.plain, r.bundles, images)).ok
    assert walks == [(counts, lo, n_hi) for counts, _, lo, n_hi in sorted(windows, key=lambda w: w[2])]
    # m = 0 has no rebuild at m = ∞: nothing to walk, and no error
    walks.clear()
    p = CgaPresentation.of({"x": 2})
    assert certify_resolution(Resolution(p, 0, [], [], {})).ok and walks == []


def _walked_cells(monkeypatch, r):
    """The number of words every stratum walk of `certify_resolution(r)`
    builds, each stratum counted once."""
    sizes, walk = [], resolution._stratum_walk

    def spy(counts, letters):
        stratum, built = walk(counts, letters), {}
        sizes.append(built)

        def counted(k):
            built[k] = len(words := stratum(k))
            return words

        return counted

    monkeypatch.setattr(resolution, "_stratum_walk", spy)
    assert certify_resolution(r).ok
    monkeypatch.undo()
    return sum(sum(built.values()) for built in sizes)


@pytest.mark.parametrize("presentation, truncation", [
    (CgaPresentation.of({"x": 2, "y": 2}), 12),
    (CgaPresentation.of({"x": 2, "y": 4, "z": 2}), 9),
    (ABCD, None),
])
def test_the_cell_count_is_the_number_of_words_the_walk_builds(monkeypatch, presentation, truncation):
    r = build_resolution(presentation, truncation=truncation)
    cells = _walked_cells(monkeypatch, r)
    # the guard admits exactly the resolutions of at most that many cells
    monkeypatch.setattr(resolution, "MAX_CERTIFY_CELLS", cells)
    assert certify_resolution(r).ok
    monkeypatch.setattr(resolution, "MAX_CERTIFY_CELLS", cells - 1)
    with pytest.raises(SizeError, match=f"would walk at least {cells} cells, above the guard of {cells - 1}$"):
        certify_resolution(r)


def _refuse(*args):
    raise AssertionError("rebuilt, checked or walked before the size guard")


@pytest.mark.parametrize("degrees, truncation", [({"x": 2, "y": 2}, 28), ({"x": 2, "y": 2, "z": 2}, 10 ** 5)])
def test_certify_refuses_a_walk_above_the_guard_before_anything_else(monkeypatch, degrees, truncation):
    # at truncation 28, {x: 2, y: 2} walks 761,240 cells, which took 27 s on a 2-core Xeon
    r = build_resolution(CgaPresentation.of(degrees), truncation=truncation)
    for name in ("build_resolution", "extend_derivation", "_Codes", "_summand_verdicts"):
        monkeypatch.setattr(resolution, name, _refuse)
    gens = ", ".join(f"{name}: 2" for name in degrees)
    with pytest.raises(SizeError, match=rf"^certify on \{{{gens}\}} at m = ∞ truncated at total degree {truncation} "
                                        rf"would walk at least \d+ cells, above the guard of 300000$"):
        certify_resolution(r)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; returns the count."""
    calls, original = [0], getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _generic_codes(size):
    """The `_Codes` table of every bundle on `size` generators w0, w1, ...
    of degree 2, the table a summand of that many names is checked on."""
    return _Codes(bundle_images([Generator(f"w{i}", 0, 2) for i in range(size)]))


def test_summand_verdicts_of_the_lowest_window_serve_every_window_above_it():
    mults, hi = (2, 2, 1, 1), 4
    counts, table = {f"w{i}": c for i, c in enumerate(mults)}, _generic_codes(len(mults))
    whole = _summand_verdicts(counts, table, 0, hi)
    assert len(whole) == hi + 1
    assert [_summand_verdicts(counts, table, lo, hi) for lo in range(hi + 1)] == [whole[lo:] for lo in range(hi + 1)]


def test_certify_compiles_one_code_table_and_no_cup1_boundary(monkeypatch):
    # the resolution's own images are compiled once; no other table is built
    tables = _counting(monkeypatch, resolution, "_Codes")
    images = _counting(monkeypatch, cup1, "bundle_images")
    boundaries = _counting(monkeypatch, cup1, "cup1_boundary")
    assert certify_resolution(build_resolution(CgaPresentation.of(dict.fromkeys("abcde", 2), 8))).ok
    assert (tables[0], images[0], boundaries[0]) == (1, 0, 0)


@pytest.mark.parametrize("degrees, eliminations", [
    ({"a": 2, "b": 2, "c": 4, "d": 4, "e": 2}, 77),
    ({"a": 2, "b": 4, "c": 2, "d": 6}, 48),
])
def test_certify_eliminates_each_pattern_boundary_once(monkeypatch, degrees, eliminations):
    # two multisets of one pattern ask for different windows; the lower
    # one is walked first and serves the other, so no ∂ is eliminated
    # twice; a second certify counts the same, as none keeps state.  As
    # `homology` eliminates every map of a window, the count also holds one
    # ρ row, of at most 5! = 120 cells here, for each pattern walked from
    # position 0: 16 and 13 of them
    calls = _counting(monkeypatch, linalg, "invariant_factors")
    r = build_resolution(CgaPresentation.of(degrees, 10))
    assert certify_resolution(r).ok
    assert calls[0] == eliminations
    assert certify_resolution(r).ok
    assert calls[0] == 2 * eliminations


def test_summand_verdicts_check_each_composite_they_use():
    a, b, c = (Generator(n, 0, 2) for n in "abc")
    ab, abc = Cup1Monomial((a, b)), Cup1Monomial((a, b, c))
    counts = {"a": 1, "b": 1, "c": 1}
    images = bundle_images([a, b, c])
    images = ImageTable({**images, abc: images[abc] - TensorElement.of(ab, c)})  # right bidegree, but d(d(abc)) != 0
    assert _summand_verdicts(counts, _Codes(images), 0, 0) == (True,)
    with pytest.raises(DomainError, match=r"summand \{'a': 1, 'b': 1, 'c': 1\}, window -1\.\.-1, maps d_1, d_2, "
                                          r"\.\.\. out of resolution degrees -1, -2, \.\.\.: d∘d is nonzero at degree 2"):
        _summand_verdicts(counts, _Codes(images), 1, 1)
    # d(ab) does not augment to 0
    images = ImageTable({**bundle_images([a, b]), ab: TensorElement.of(a, b) + TensorElement.of(b, a)})
    with pytest.raises(DomainError, match=r"summand \{'a': 1, 'b': 1\}, window 0\.\.0, .* out of resolution degrees "
                                          r"0, -1, \.\.\. \(d_1 = ρ\): d∘d is nonzero at degree 2"):
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


def _position_verdicts(counts, table, top, bottom=0):
    """Whether the summand's homology vanishes at each position
    bottom..top, through homology_at one position at a time."""
    size = sum(counts.values())
    stratum = _stratum_walk(counts, table.code)
    out = []
    for n in range(bottom, top + 1):
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
            table = _generic_codes(len(mults))
            expected = _position_verdicts(counts, table, n_hi)
            for lo in range(n_hi + 1):
                assert _summand_verdicts(counts, table, lo, n_hi) == tuple(expected[lo:]), (mults, lo)
            if len(mults) > 1:
                images = bundle_images([Generator(name, 0, 2) for name in counts])
                sphere = _Codes(images, [letter for letter in images if len(bundle_factors(letter)) < len(mults)])
                expected = _position_verdicts(counts, sphere, size - 1)
                assert expected.count(False) == 1
                for lo in range(size):
                    assert _summand_verdicts(counts, sphere, lo, size - 1) == tuple(expected[lo:]), (mults, lo)


@st.composite
def presentations(draw):
    """1-4 generators of degree 2, 4 or 6, and m in 1..10."""
    degrees = {f"x{i}": draw(st.sampled_from([2, 4, 6])) for i in range(draw(st.integers(1, 4)))}
    return degrees, draw(st.integers(1, 10))


@settings(max_examples=30, deadline=None, database=None)
@given(presentations())
@example(({"a": 2, "b": 4, "c": 2, "d": 6}, 10))  # {a, b, c} and {a, b, d} share a pattern at lo 0 and 2
def test_certify_walks_each_pattern_once_on_the_resolutions_own_letters(case):
    degrees, m = case
    r = build_resolution(CgaPresentation.of(degrees, m))
    walked, walk = {}, resolution._summand_verdicts

    def recorded(counts, table, lo, hi):
        pattern = tuple(sorted(counts.values(), reverse=True))
        assert pattern not in walked
        walked[pattern] = walk(counts, table, lo, hi)
        return walked[pattern]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resolution, "_summand_verdicts", recorded)
        report = certify_resolution(r)
    # each window's slice of its pattern's walk, against homology_at on a
    # table that also holds the bundles of total degree above m; the
    # report's degrees against those per-multiset verdicts
    full, reference = _Codes(bundle_images(r.plain)), []
    for counts, j, lo, n_hi in _windows(r):
        expected = tuple(_position_verdicts(counts, full, n_hi, lo))
        assert walked[tuple(sorted(counts.values(), reverse=True))][lo - n_hi - 1:] == expected, (counts, lo, n_hi)
        reference.append((j, lo, expected))
    assert report.degrees == _degree_certificates(reference)


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


def test_stratum_walk_depth_does_not_grow_with_the_blocks():
    # one name of 3,000 copies: one cell of 3,000 blocks, more than the
    # interpreter's recursion limit
    assert 3000 > sys.getrecursionlimit()
    walk = _stratum_walk({"x": 3000}, {("x",): 0})
    assert walk(3000) == [(0,) * 3000]
    assert walk(2999) == walk(3001) == []


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


def test_map_without_an_image_names_the_letter():
    r = build_resolution(CgaPresentation.of({"x": 2, "y": 2}, 6))
    x, y = r.letter("x"), r.letter("y")
    partial = ResolutionMap(r, r, {x: TensorElement.of(y)})
    assert partial(TensorElement.of(x, x) + TensorElement.unit()) == TensorElement.of(y, y) + TensorElement.unit()
    with pytest.raises(DomainError, match=r"^map has no image for y$"):
        partial(TensorElement.of(x, y))


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
    # beta forced from alpha along a nonzero s0 is a chain map; then s0 is
    # re-solved by exact linear algebra and the recursion re-verified
    r = build_resolution(CgaPresentation.of({"w": 4, "x": 2, "y": 2}, 8))
    alpha = ResolutionMap.identity(r)
    w = r.letter("w")
    xy = r.letter("x⌣₁y")
    chosen_s0 = {"w": TensorElement.of(xy, coeff=2)}
    beta = ResolutionMap(r, r, _forced_beta(r, alpha, chosen_s0))
    assert beta.verify_chain_map() == (True, None)
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
