import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cupone.algebra import (
    Generator,
    ImageTable,
    TensorElement,
    extend_derivation,
    word_bidegree,
    word_multiply,
)
from cupone.cup1 import Cup1Monomial
from cupone.errors import DegreeError, DomainError


def gens(spec):
    return {name: Generator(name, r, i) for name, (r, i) in spec.items()}


def test_multiply_bilinear_concatenation():
    g = gens({"x": (0, 2), "y": (0, 2)})
    x, y = g["x"], g["y"]
    two_xy = TensorElement.of(x, y, coeff=2)
    three_y = TensorElement.of(y, coeff=3)
    assert word_multiply(two_xy, three_y) == TensorElement.of(x, y, y, coeff=6)


def test_multiply_unit_law():
    x = Generator("x", 0, 2)
    w = TensorElement.of(x, x) + TensorElement.of(x, coeff=-3)
    assert word_multiply(TensorElement.unit(), w) == w
    assert word_multiply(w, TensorElement.unit()) == w


def test_multiply_noncommutative_expansion():
    g = gens({"x": (0, 2), "y": (0, 2)})
    x, y = g["x"], g["y"]
    left = TensorElement.of(x) - TensorElement.of(y)
    right = TensorElement.of(x) + TensorElement.of(y)
    expected = (
        TensorElement.of(x, x) + TensorElement.of(x, y)
        - TensorElement.of(y, x) - TensorElement.of(y, y)
    )
    assert word_multiply(left, right) == expected


def test_a_table_rejects_two_letters_of_one_label():
    x1 = Generator("x", 0, 2)
    x2 = Generator("x", 0, 4)
    with pytest.raises(DomainError, match=r"letter 'x' appears with bidegrees \(0, 2\) and \(0, 4\)"):
        ImageTable({x1: TensorElement.zero(), x2: TensorElement.zero()})


def test_derivation_koszul_sign_odd_generator():
    u = Generator("u", -1, 2)  # total degree 1, odd
    v = Generator("v", 0, 2)
    images = {u: TensorElement.of(v), v: TensorElement.zero()}
    duu = extend_derivation(images, TensorElement.of(u, u))
    assert duu == TensorElement.of(v, u) - TensorElement.of(u, v)


def test_zero_derivation():
    g = gens({"x": (0, 2), "y": (0, 4)})
    images = {letter: TensorElement.zero() for letter in g.values()}
    w = TensorElement.of(g["x"], g["y"], g["x"], coeff=5)
    assert extend_derivation(images, w).is_zero()


def test_derivation_hand_expansion():
    g = gens({"x": (0, 2), "y": (0, 2), "z": (-1, 4)})
    x, y, z = g["x"], g["y"], g["z"]
    images = {
        x: TensorElement.zero(),
        y: TensorElement.zero(),
        z: TensorElement.of(x, y) - TensorElement.of(y, x),
    }
    dxz = extend_derivation(images, TensorElement.of(x, z))
    assert dxz == TensorElement.of(x, x, y) - TensorElement.of(x, y, x)


def test_derivation_rejects_bad_image_degree():
    x = Generator("x", 0, 2)
    z = Generator("z", -1, 4)
    with pytest.raises(DegreeError):
        extend_derivation({z: TensorElement.of(x)}, TensorElement.of(z))


def test_leibniz_property_random():
    rng = random.Random(5)
    pool = [Generator(n, -rng.randint(0, 2), rng.randint(0, 4) + 1) for n in "abcdef"]
    images = {}
    for g in pool:
        # an image of the right bidegree: a single word of matching degree, or zero
        images[g] = TensorElement.zero()
    # give some letters nonzero closed-image words built from other letters
    a, b, c = pool[0], pool[1], pool[2]
    big = Generator("w", -1, a.int_degree + b.int_degree)
    images[big] = TensorElement.of(a, b) if (a.res_degree, b.res_degree) == (0, 0) else TensorElement.zero()
    pool.append(big)
    for _ in range(80):
        w1 = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
        u = TensorElement({w1: rng.randint(-3, 3)})
        v = TensorElement({w2: rng.randint(-3, 3)})
        left = extend_derivation(images, word_multiply(u, v))
        sign = -1 if sum(l.total_degree for l in w1) % 2 else 1
        right = word_multiply(extend_derivation(images, u), v) + word_multiply(u, extend_derivation(images, v)).scale(sign)
        assert left == right


def test_homogeneous_parts_and_bidegree():
    g = gens({"x": (0, 2), "y": (0, 4)})
    mixed = TensorElement.of(g["x"]) + TensorElement.of(g["y"])
    with pytest.raises(DegreeError):
        mixed.bidegree()
    parts = {word_bidegree(word) for word in mixed.terms}
    assert set(parts) == {(0, 2), (0, 4)}
    assert TensorElement.zero().bidegree() is None


def test_element_formatting():
    g = gens({"x": (0, 2), "y": (0, 2)})
    e = TensorElement.of(g["x"], g["y"]) - TensorElement.of(g["y"], g["x"])
    assert str(e) == "xy - yx"
    assert str(TensorElement.zero()) == "0"
    assert str(TensorElement.unit(3)) == "3"


# ---------------------------------------------------------------------------
# the reference oracle for extend_derivation's splice


def reference_extend_derivation(images, x):
    """The Leibniz extension as the product prefix·d(letter)·suffix through
    `word_multiply`, fetching and checking the image at every occurrence;
    `extend_derivation` splices the image words into place instead."""
    def image_of(letter):
        try:
            image = images[letter]
        except KeyError:
            raise DomainError(f"no differential image for letter {letter.label()}") from None
        deg = image.bidegree()
        if deg is not None and deg != (letter.res_degree + 1, letter.int_degree):
            raise DegreeError(f"image of {letter.label()} has bidegree {deg}")
        return image

    out = TensorElement()
    for word, coeff in x.terms.items():
        sign = 1
        for pos, letter in enumerate(word):
            image = image_of(letter)
            if not image.is_zero():
                prefix = TensorElement({word[:pos]: coeff * sign})
                suffix = TensorElement({word[pos + 1:]: 1})
                out = out + word_multiply(word_multiply(prefix, image), suffix)
            if letter.total_degree % 2:
                sign = -sign
    return out


PLAIN = [Generator("a", 0, 2), Generator("b", 0, 2), Generator("c", 0, 4), Generator("e", 0, 2)]
ODD = Generator("u", -1, 4)  # total degree 3: its image lives on plain words of degree 4
BUNDLES = [Cup1Monomial(combo) for k in (2, 3) for combo in combinations(PLAIN, k)]
IMPOSTOR = Generator("a", 0, 4)  # the label of a with another bidegree
COEFFS = st.integers(-3, 3).filter(bool)


def _block(factors):
    return factors[0] if len(factors) == 1 else Cup1Monomial(tuple(factors))


def _right_words(letter):
    """Words of the bidegree (res+1, int) an image of `letter` must have:
    for a bundle, one split of its factors into two ordered blocks; for u,
    plain words of internal degree 4; none for a plain letter."""
    if isinstance(letter, Cup1Monomial):
        fs = letter.factors
        out = []
        for mask in range(1, 2 ** len(fs) - 1):
            left = [f for i, f in enumerate(fs) if mask >> i & 1]
            right = [f for i, f in enumerate(fs) if not mask >> i & 1]
            out.append((_block(left), _block(right)))
        return out
    if letter == ODD:
        a, b, c, e = PLAIN
        return [(c,), (a, b), (b, a), (e, e), (a, a)]
    return []


@st.composite
def derivation_inputs(draw):
    """(images, x, impostor?) over plain letters, bundles and the odd
    letter u.  Each image is right or zero; in a faulty table it may also
    be missing, of a wrong bidegree, or inhomogeneous."""
    impostor, faulty = draw(st.booleans()), draw(st.booleans())
    alphabet = PLAIN + BUNDLES + [ODD] + ([IMPOSTOR] if impostor else [])
    kinds = ["right", "zero"] + (["missing", "wrong", "mixed"] if faulty else [])
    images = {}
    for letter in alphabet:
        right = _right_words(letter)
        kind = draw(st.sampled_from(kinds if right else [k for k in kinds if k not in ("right", "mixed")]))
        if kind == "missing":
            continue
        terms = {}
        if kind in ("right", "mixed"):
            for w in draw(st.lists(st.sampled_from(right), min_size=1, max_size=4)):
                terms[w] = terms.get(w, 0) + draw(COEFFS)
        if kind in ("wrong", "mixed"):
            w = (letter,) if letter.res_degree == 0 else (PLAIN[0], letter)
            terms[w] = draw(st.integers(1, 2))
        images[letter] = TensorElement(terms)
    words = st.lists(st.sampled_from(alphabet), min_size=1, max_size=4).map(tuple)
    x = TensorElement(draw(st.dictionaries(words, COEFFS, min_size=1, max_size=3)))
    return images, x, impostor


def _outcome(fn, images, x):
    try:
        return fn(images, x)
    except DomainError as exc:
        return exc


@settings(max_examples=150, deadline=None, database=None)
@given(derivation_inputs())
def test_splice_matches_the_product_expansion(case):
    images, x, impostor = case
    expected = _outcome(reference_extend_derivation, images, x)
    got = _outcome(extend_derivation, images, x)
    table = _outcome(lambda images, _: ImageTable(images), images, x)
    if isinstance(table, DomainError):
        # stricter on malformed input only: a wrong or mixed image, or the
        # impostor beside a, is rejected when the table is built, used or not
        assert (type(got), str(got)) == (type(table), str(table))
        assert type(got) is DegreeError or (impostor and "appears with bidegrees" in str(got))
    elif isinstance(expected, DomainError):
        assert (type(got), str(got)) == (type(expected), str(expected))
    else:
        assert got.terms == expected.terms


def test_a_clash_no_product_meets_is_rejected_when_the_table_is_built():
    a2, a4 = Generator("a", 0, 2), Generator("a", 0, 4)
    u = Generator("u", -1, 4)
    images = {a2: TensorElement.zero(), a4: TensorElement.zero(), u: TensorElement.of(a2, a2)}
    x = TensorElement.of(u) + TensorElement.of(a4)
    # no product ever holds both letters, so a per-product check would pass
    assert reference_extend_derivation(images, x) == TensorElement.of(a2, a2)
    message = r"letter 'a' appears with bidegrees \(0, 2\) and \(0, 4\)"
    for fn, args in ((ImageTable, (images,)), (extend_derivation, (images, x))):
        with pytest.raises(DomainError, match=message):
            fn(*args)


# ---------------------------------------------------------------------------
# the image table: every image and the universe checked once, when it is built


def _raised(fn, *args):
    with pytest.raises((DomainError, DegreeError)) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_a_bad_image_is_rejected_when_the_table_is_built():
    x, z = Generator("x", 0, 2), Generator("z", -1, 4)
    element = TensorElement.of(x, z)
    for images, error in (
        ({x: TensorElement.zero(), z: TensorElement.of(x)},
         (DegreeError, "image of z has bidegree (0, 2), expected (0, 4)")),
        ({x: TensorElement.zero(), z: TensorElement.of(x, x) + TensorElement.of(x)},
         (DegreeError, "element is not homogeneous: bidegrees [(0, 2), (0, 4)]")),
    ):
        assert _raised(ImageTable, images) == error
        assert _raised(extend_derivation, images, element) == error  # a plain dict is put in a table
    table = ImageTable({x: TensorElement.zero()})  # z is missing: only a call that meets z fails
    assert extend_derivation(table, TensorElement.of(x, x)).is_zero()
    for _ in range(3):
        assert _raised(extend_derivation, table, element) == (DomainError, "no differential image for letter z")


def test_an_image_never_used_is_checked_when_the_table_is_built():
    x, y, z = Generator("x", 0, 2), Generator("y", 0, 2), Generator("z", -1, 4)
    images = {x: TensorElement.zero(), y: TensorElement.zero(), z: TensorElement.of(y)}
    with pytest.raises(DegreeError, match=r"image of z has bidegree \(0, 2\), expected \(0, 4\)"):
        ImageTable(images)
    with pytest.raises(DegreeError, match=r"image of z has bidegree \(0, 2\), expected \(0, 4\)"):
        extend_derivation(images, TensorElement.of(x, y, x))


def test_the_table_is_read_only_and_a_new_table_is_checked():
    x, y, z = Generator("x", 0, 2), Generator("y", 0, 2), Generator("z", -1, 4)
    table = ImageTable({x: TensorElement.zero(), y: TensorElement.zero(), z: TensorElement.of(x, y)})
    element = TensorElement.of(z, x)
    assert extend_derivation(table, element) == TensorElement.of(x, y, x)
    with pytest.raises(TypeError):
        table[z] = TensorElement.of(y)
    with pytest.raises(TypeError):
        del table[x]
    assert extend_derivation(table, element) == TensorElement.of(x, y, x)
    with pytest.raises(DegreeError, match=r"image of z has bidegree \(0, 2\), expected \(0, 4\)"):
        ImageTable({**table, z: TensorElement.of(y)})
    assert extend_derivation(ImageTable({**table, z: TensorElement.of(y, x)}), element) == TensorElement.of(y, x, x)


def test_the_universe_is_checked_over_keys_and_image_words():
    a2, a4, u = Generator("a", 0, 2), Generator("a", 0, 4), Generator("u", -1, 4)
    table = ImageTable({a2: TensorElement.zero(), u: TensorElement.of(a2, a2)})
    assert extend_derivation(table, TensorElement.of(u)) == TensorElement.of(a2, a2)
    with pytest.raises(DomainError, match=r"letter 'a' appears with bidegrees \(0, 2\) and \(0, 4\)"):
        ImageTable({**table, a4: TensorElement.zero()})  # the label a as a key
    v = Generator("v", -1, 6)
    with pytest.raises(DomainError, match=r"letter 'a' appears with bidegrees \(0, 2\) and \(0, 4\)"):
        ImageTable({**table, v: TensorElement.of(a2, a4)})  # the label a inside an image word
    # a letter that shares a label with a key but is not one has no image
    with pytest.raises(DomainError, match="no differential image for letter a"):
        extend_derivation(table, TensorElement.of(a4))
