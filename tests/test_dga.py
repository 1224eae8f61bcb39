import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cupone import dga as dga_module
from cupone.dga import (
    BigradedDGA,
    DgaMap,
    SimplicialComplex,
    free_truncated_dga,
    simplicial_cochain_dga,
    tensor_dga,
    two_stage_hom_dga,
)
from cupone.errors import DomainError
from cupone.linalg import FGAbelianGroup
from cupone.twisting import TwistingElement, homotopy_orbit_check


def test_validation_catches_broken_leibniz():
    # d(e·e) declared nonzero although both Leibniz terms vanish
    bidegrees = {"1": (0, 0), "e": (1, 0), "ee": (2, 0), "h": (3, 0)}
    products = {
        ("1", "1"): {"1": 1}, ("1", "e"): {"e": 1}, ("e", "1"): {"e": 1},
        ("1", "ee"): {"ee": 1}, ("ee", "1"): {"ee": 1},
        ("1", "h"): {"h": 1}, ("h", "1"): {"h": 1},
        ("e", "e"): {"ee": 1},
    }
    with pytest.raises(DomainError, match="Leibniz"):
        BigradedDGA("bad", bidegrees, {"ee": {"h": 1}}, products, {"1": 1})


def test_validation_catches_broken_unit():
    bidegrees = {"1": (0, 0), "e": (1, 0)}
    products = {("1", "1"): {"1": 1}}
    with pytest.raises(DomainError, match="unit"):
        BigradedDGA("bad", bidegrees, {}, products, {"1": 1})


def test_simplicial_cochain_interval():
    dga = simplicial_cochain_dga([[0, 1]])
    assert {deg: len(v) for deg, v in dga.components().items()} == {(0, 0): 2, (1, 0): 1}
    v0 = dga.basis_element("[0]")
    v1 = dga.basis_element("[1]")
    e = dga.basis_element("[0,1]")
    assert v0.d() == e.scale(-1)
    assert v1.d() == e
    assert v0 * v0 == v0
    assert v0 * e == e
    assert e * v1 == e
    assert (v0 * v1).is_zero()


def test_circle_cochain_cohomology_ranks():
    dga = simplicial_cochain_dga([[0, 1], [1, 2], [0, 2]])
    from cupone.linalg import homology

    d0 = dga.differential_matrix(0, 0)
    # cochain complex: H^0 = ker d0 = Z, H^1 = coker d0 = Z
    h = homology([d0.transpose()])
    assert [str(g) for g in h] == ["Z", "Z"]


def test_hom_dga_two_stage_ranks():
    groups = [FGAbelianGroup(0), FGAbelianGroup.from_divisors([2])]
    hom = two_stage_hom_dga(groups)
    assert len(hom.basis_of(1, 0)) == 1
    assert len(hom.basis_of(0, 0)) == 2
    assert len(hom.basis_of(-1, 0)) == 1
    # d of the stage-raising generator is ±2 times identity components
    label = hom.basis_of(1, 0)[0]
    img = hom.basis_element(label).d()
    assert img.is_zero()
    down = hom.basis_of(-1, 0)[0]
    img = hom.basis_element(down).d()
    assert sorted(abs(c) for c in img.terms.values()) == [2, 2]


def test_hom_dga_trivial_group():
    hom = two_stage_hom_dga([FGAbelianGroup(1)])
    assert list(hom.components()) == [(0, 0)]
    assert hom.unit == hom.basis_element(hom.basis_of(0, 0)[0])


def test_tensor_with_unit_coefficients_is_isomorphic():
    B = simplicial_cochain_dga([[0, 1]])
    C = BigradedDGA("Z", {"c": (0, 0)}, {}, {("c", "c"): {"c": 1}}, {"c": 1})
    A = tensor_dga(B, C)
    assert {deg: len(v) for deg, v in A.components().items()} == {deg: len(v) for deg, v in B.components().items()}


def test_tensor_rank_bookkeeping():
    B = simplicial_cochain_dga([[0, 1]])  # ranks (2, 1)
    C = BigradedDGA(
        "C", {"c0": (0, 0), "c1": (1, 0)}, {},
        {("c0", "c0"): {"c0": 1}, ("c0", "c1"): {"c1": 1}, ("c1", "c0"): {"c1": 1}},
        {"c0": 1},
    )
    A = tensor_dga(B, C)
    # A^{1,t} = B^0⊗C^{1,t} + B^1⊗C^{0,t}: 2·1 + 1·1
    assert len(A.basis_of(1, 0)) == 3
    assert len(A.basis_of(0, 0)) == 2
    assert len(A.basis_of(2, 0)) == 1


def test_tensor_rejects_bigraded_left_factor():
    C = BigradedDGA(
        "C", {"1": (0, 0), "c": (0, 1)}, {},
        {("1", "1"): {"1": 1}, ("1", "c"): {"c": 1}, ("c", "1"): {"c": 1}},
        {"1": 1},
    )
    B = simplicial_cochain_dga([[0, 1]])
    with pytest.raises(DomainError, match="singly graded"):
        tensor_dga(C, B)


def test_free_truncated_dga_words_and_leibniz():
    F = free_truncated_dga([("x", 1, -1), ("y", 2, -1)], {"x": [(1, ("y",))]}, 4)
    x = F.basis_element("x")
    y = F.basis_element("y")
    assert x.d() == y
    xx = x * x
    assert xx == F.basis_element("x·x")
    # d(x·x) = y·x - x·y (x has odd total degree 0? no: |x| = 1 + (-1) = 0 even)
    assert xx.d() == F.basis_element("y·x") + F.basis_element("x·y")


def leibniz_oracle(generators, diffs, max_r=None, min_t=None):
    """The differential table of the free truncated dga, built word by
    word as the constructor first did: each image of a letter put in its
    place, with the Koszul sign of the letters before it, and kept when
    the new word lies in the window.  Words without a differential are
    left out."""
    gens = {nm: (r, t) for nm, r, t in generators}

    def fits(w):
        r, t = sum(gens[nm][0] for nm in w), sum(gens[nm][1] for nm in w)
        return (max_r is None or r <= max_r) and (min_t is None or t >= min_t)

    def wlabel(w):
        return "·".join(w) if w else "1"

    words, frontier = [()], [()]
    while frontier:
        frontier = [w + (nm,) for w in frontier for nm in gens if fits(w + (nm,))]
        words.extend(frontier)
    table = {}
    for w in words:
        image, sign = {}, 1
        for pos, nm in enumerate(w):
            for coeff, img_word in diffs.get(nm, ()):
                new_word = w[:pos] + tuple(img_word) + w[pos + 1:]
                if fits(new_word):
                    image[wlabel(new_word)] = image.get(wlabel(new_word), 0) + sign * coeff
            if sum(gens[nm]) % 2:
                sign = -sign
        image = {label: c for label, c in image.items() if c}
        if image:
            table[wlabel(w)] = image
    return table


@st.composite
def free_generator_sets(draw):
    """(generators, diffs, window) for 1..3 generators a, b, c: a max_r
    window of first degrees 1..2, or a min_t window of second degrees
    −2..−1.  Each image is 0..3 words of 0..3 letters, repeats and zero
    coefficients allowed, with no regard to bidegree or d² = 0."""
    names = "abc"[:draw(st.integers(1, 3))]
    if draw(st.booleans()):
        window = {"max_r": draw(st.integers(1, 3))}
        generators = [(nm, draw(st.integers(1, 2)), draw(st.integers(-2, 1))) for nm in names]
    else:
        window = {"min_t": draw(st.integers(-3, -1))}
        generators = [(nm, draw(st.integers(-1, 2)), draw(st.integers(-2, -1))) for nm in names]
    word = st.lists(st.sampled_from(names), max_size=3).map(tuple)
    image = st.lists(st.tuples(st.integers(-2, 2), word), max_size=3)
    diffs = draw(st.dictionaries(st.sampled_from(names), image, max_size=3))
    return generators, diffs, window


@settings(max_examples=150, deadline=None, database=None)
@given(free_generator_sets())
def test_free_truncated_differential_equals_the_word_by_word_leibniz_rule(case):
    # the table the constructor hands to BigradedDGA, before validation,
    # which random images would fail
    generators, diffs, window = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dga_module, "BigradedDGA", lambda name, bidegrees, diff, products, unit: diff)
        table = free_truncated_dga(generators, diffs, **window)
    assert {label: image for label, image in table.items() if image} == leibniz_oracle(generators, diffs, **window)


@pytest.mark.parametrize("generators, diffs, window", [
    # the 84-element dga of the twisting tests, an r-window
    ([("u1", 1, -1), ("u2", 2, -2), ("x2", 2, -1), ("y2", 2, -1), ("x3", 3, -2)], {"u1": [(1, ("y2",))]}, {"max_r": 5}),
    # a t-window with u odd and v even: the three images of u add up to d(u) = 2v,
    # and d(u·u) = 2(v·u − u·v)
    ([("u", 0, -1), ("v", 1, -1), ("w", 1, -2)], {"u": [(1, ("v",)), (2, ("v",)), (-1, ("v",))]}, {"min_t": -3}),
])
def test_validated_free_dgas_carry_the_word_by_word_differential(generators, diffs, window):
    F = free_truncated_dga(generators, diffs, **window)
    assert F.diff == leibniz_oracle(generators, diffs, **window)


def test_free_truncated_requires_positive_first_degree():
    with pytest.raises(DomainError):
        free_truncated_dga([("x", 0, 0)], {}, 3)


def test_dga_map_identity_and_validation():
    F = free_truncated_dga([("x", 1, -1), ("y", 2, -1)], {"x": [(1, ("y",))]}, 3)
    ident = DgaMap.identity(F)
    assert ident.apply(F.basis_element("x·x")) == F.basis_element("x·x")
    # a non-chain-map is rejected: send x to 0 but keep y
    with pytest.raises(DomainError, match="chain map"):
        DgaMap(F, F, {**{l: {l: 1} for l in F.bidegrees}, "x": {}})


def test_dga_map_rejects_an_unknown_source_label():
    F = free_truncated_dga([("x", 1, -1), ("y", 2, -1)], {"x": [(1, ("y",))]}, 3)
    with pytest.raises(DomainError, match="'z' is not a basis label"):
        DgaMap(F, F, {**{l: {l: 1} for l in F.bidegrees}, "z": {"x": 1}})


@pytest.mark.parametrize("diff, products, message", [
    ({"a": {"zz": 1}}, {}, "d(a): 'zz' is not a basis label"),
    ({}, {("a", "a"): {"zz": 1}}, "a·a: 'zz' is not a basis label"),
])
def test_unvalidated_dga_still_rejects_an_unknown_label(diff, products, message):
    # labels are checked where the tables enter, whatever `validate` says
    with pytest.raises(DomainError) as info:
        BigradedDGA("t", {"a": (0, 0)}, diff, products, {"a": 1}, validate=False)
    assert str(info.value) == message


def test_an_image_in_another_dga_is_named():
    A = free_truncated_dga([("a", 1, -1)], {}, 2)
    B = free_truncated_dga([("b", 1, -1)], {}, 2)
    images = {**{l: {l: 1} for l in A.bidegrees}, "a": B.basis_element("b")}
    with pytest.raises(DomainError, match=r"^φ\(a\) is not an element of the target dga$"):
        DgaMap(A, A, images)
    f = DgaMap.identity(A)
    with pytest.raises(DomainError, match=r"^s\(a·a\) is not an element of the target dga$"):
        homotopy_orbit_check(f, f, {"a·a": B.basis_element("b")}, TwistingElement.zero(A, 2))
    with pytest.raises(DomainError, match="^twisting component at level 2 is not an element of its dga$"):
        TwistingElement(A, 2, {2: B.basis_element("b·b")})


def test_a_map_rejects_an_element_of_another_dga():
    # two copies of one free truncated dga share every label, but not their elements
    A = free_truncated_dga([("a", 1, -1)], {}, 2)
    B = free_truncated_dga([("a", 1, -1)], {}, 2)
    ident = DgaMap.identity(A)
    assert ident.apply(A.basis_element("a")) == A.basis_element("a")
    with pytest.raises(DomainError, match="^id: the argument is not an element of the source dga$"):
        ident.apply(B.basis_element("a"))


def test_simplicial_complex_closure():
    X = SimplicialComplex([[0, 1, 2]])
    assert X.simplices == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
