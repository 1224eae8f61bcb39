import os
import pickle
import random
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cupone

from cupone.algebra import Generator, TensorElement, extend_derivation, word_multiply
from cupone.cup1 import (
    Cup1Monomial,
    bundle_images,
    closed_images,
    cup1_boundary,
    cup1_letters,
    cup1_pair,
    hirsch_expand,
    normalize_cup1,
)
from cupone.errors import DomainError


def unshuffle_splittings(n):
    """All (i; j) unshuffles of {1..n}: proper nonempty complementary
    increasing index pairs.  The brute-force enumerator that is the
    independent oracle for the boundary term count."""
    out = []
    for mask in range(1, 2 ** n - 1):
        left = tuple(i + 1 for i in range(n) if mask >> i & 1)
        right = tuple(i + 1 for i in range(n) if not mask >> i & 1)
        out.append((left, right))
    return out


def even_gens(names, degree=2):
    return [Generator(n, 0, degree) for n in names]


def closed(letters):
    return {g: TensorElement.zero() for g in letters}


def all_images(letters):
    """Differential table covering every sub-bundle of the letters."""
    zero = closed(letters)
    images = dict(zero)
    for k in range(2, len(letters) + 1):
        for combo in combinations(letters, k):
            images[Cup1Monomial(combo)] = cup1_boundary(Cup1Monomial(combo), zero)
    return images


def boundary_oracle(plain, bundles):
    """The table of closed_images, by the general formula of cup1_boundary."""
    known = closed(plain)
    for b in sorted(bundles, key=lambda b: len(b.factors)):
        known[b] = cup1_boundary(b, known)
    return {**closed(plain), **{b: known[b] for b in bundles}}


@settings(max_examples=120, deadline=None, database=None)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=6), st.data())
def test_closed_images_match_cup1_boundary(degrees, data):
    # mixed degrees, odd ones too, and every bundle or a partial list of
    # bundles, whose missing tails closed_images adds
    plain = [Generator(f"g{i}", 0, deg) for i, deg in enumerate(degrees)]
    bundles = [Cup1Monomial(c) for k in range(2, len(plain) + 1) for c in combinations(plain, k)]
    if bundles and data.draw(st.booleans()):
        bundles = data.draw(st.lists(st.sampled_from(bundles), unique=True))
    table = closed_images(plain, bundles)
    assert dict(table) == boundary_oracle(plain, bundles)


def test_closed_images_match_cup1_boundary_on_face_bundles():
    # the partial lists face_boundary passes: the bundles of one face's word
    from cupone.permutohedron import default_letters, enumerate_faces
    from faces import monomial_of_face

    for n in range(2, 6):
        letters = default_letters(n)
        for faces in enumerate_faces(n).values():
            for face in faces:
                word = next(iter(monomial_of_face(face, letters).terms))
                bundles = [letter for letter in word if isinstance(letter, Cup1Monomial)]
                assert dict(closed_images(letters, bundles)) == boundary_oracle(letters, bundles)


def test_closed_images_name_a_factor_without_an_image():
    a, b = even_gens("ab")
    with pytest.raises(DomainError, match="no differential image for factor b"):
        closed_images([a], [Cup1Monomial((a, b))])


def test_normalize_swap_sign():
    a, b = even_gens("ab")
    sign, letter = normalize_cup1([b, a])
    assert sign == -1 and letter == Cup1Monomial((a, b))


def test_normalize_repeated_even_factor_is_zero():
    a, = even_gens("a")
    assert normalize_cup1([a, a]) is None


def test_normalize_two_swaps():
    a, b, c = even_gens("abc")
    sign, letter = normalize_cup1([c, a, b])
    assert sign == 1 and letter == Cup1Monomial((a, b, c))


def test_normalize_single_factor_is_plain():
    a, = even_gens("a")
    assert normalize_cup1([a]) == (1, a)


def test_normalize_rejects_nested_and_odd_repeats():
    a, b, c = even_gens("abc")
    with pytest.raises(DomainError, match="not bundles"):
        normalize_cup1([Cup1Monomial((a, b)), c])
    with pytest.raises(DomainError, match="nesting"):
        normalize_cup1([Generator("n", -1, 4), a])
    odd = Generator("u", 0, 3)
    with pytest.raises(DomainError, match="odd"):
        normalize_cup1([odd, odd])
    with pytest.raises(DomainError):
        normalize_cup1([])


def test_normalize_permutation_signs_consistent():
    # normalizing a permutation returns the permutation's accumulated sign,
    # and normalizing a canonical bundle is the identity
    rng = random.Random(9)
    letters = [Generator(n, 0, 2 * rng.randint(1, 3)) for n in "abcd"]
    for perm in permutations(range(4)):
        arranged = [letters[i] for i in perm]
        sign, bundle = normalize_cup1(arranged)
        assert bundle == Cup1Monomial(tuple(letters))
        again = normalize_cup1(list(bundle.factors))
        assert again == (1, bundle)
        # re-permuting and normalizing twice accumulates to the same sign
        sign2, bundle2 = normalize_cup1(arranged)
        assert (sign2, bundle2) == (sign, bundle)


def test_hirsch_binary_even():
    a, b, c = even_gens("abc")
    result = hirsch_expand(c, (a, b))
    ca = cup1_letters(c, a)
    cb = cup1_letters(c, b)
    expected = word_multiply(ca, TensorElement.of(b)) + word_multiply(TensorElement.of(a), cb)
    assert result == expected


def test_hirsch_single_letter():
    a, c = even_gens("ac")
    assert hirsch_expand(c, (a,)) == cup1_letters(c, a)
    with pytest.raises(DomainError):
        hirsch_expand(c, ())


def test_hirsch_three_letters_even():
    a, b, c, e = even_gens("abce")
    result = hirsch_expand(c, (a, b, e))
    expected = (
        word_multiply(cup1_letters(c, a), TensorElement.of(b, e))
        + word_multiply(TensorElement.of(a), word_multiply(cup1_letters(c, b), TensorElement.of(e)))
        + word_multiply(TensorElement.of(a, b), cup1_letters(c, e))
    )
    assert result == expected


def test_hirsch_association_independence():
    # expanding against u·v with the binary element-level formula agrees
    # with the flat letterwise expansion, for either split point
    rng = random.Random(17)
    letters = [Generator(n, 0, 2 * rng.randint(1, 3)) for n in "abcdef"]
    c = letters[0]
    for _ in range(60):
        word = tuple(rng.sample(letters[1:], rng.randint(2, 4)))
        flat = hirsch_expand(c, word)
        for cut in range(1, len(word)):
            u, v = word[:cut], word[cut:]
            du = sum(l.total_degree for l in u)
            sign = -1 if (du * (c.total_degree + 1)) % 2 else 1
            split = (
                word_multiply(hirsch_expand(c, u), TensorElement({v: 1}))
                + word_multiply(TensorElement({u: 1}), hirsch_expand(c, v)).scale(sign)
            )
            assert split == flat


def test_cup_pair_unit_annihilates():
    a, = even_gens("a")
    one = TensorElement.unit()
    assert cup1_pair(one, TensorElement.of(a)).is_zero()
    assert cup1_pair(TensorElement.of(a), one).is_zero()


def test_boundary_binary_closed():
    x, y = even_gens("xy")
    d = cup1_boundary(Cup1Monomial((x, y)), closed([x, y]))
    assert d == TensorElement.of(x, y) - TensorElement.of(y, x)


def test_boundary_hexagon_terms():
    a, b, c = even_gens("abc")
    d = cup1_boundary(Cup1Monomial((a, b, c)), closed([a, b, c]))
    ab = Cup1Monomial((a, b))
    ac = Cup1Monomial((a, c))
    bc = Cup1Monomial((b, c))
    expected = (
        -TensorElement.of(ab, c) - TensorElement.of(b, ac) + TensorElement.of(ac, b)
        + TensorElement.of(c, ab) + TensorElement.of(a, bc) - TensorElement.of(bc, a)
    )
    assert d == expected


def test_boundary_term_count_and_unshuffles():
    letters = even_gens("abcdefg")
    for n in range(2, 7):
        bundle = Cup1Monomial(tuple(letters[:n]))
        d = cup1_boundary(bundle, closed(letters[:n]))
        assert len(d.terms) == 2 ** n - 2
        assert all(abs(c) == 1 for c in d.terms.values())
        # unsigned terms match the independent unshuffle enumerator
        seen = set()
        for word in d.terms:
            assert len(word) == 2
            left = tuple(sorted(letters.index(f) + 1 for f in (word[0].factors if isinstance(word[0], Cup1Monomial) else (word[0],))))
            right = tuple(sorted(letters.index(f) + 1 for f in (word[1].factors if isinstance(word[1], Cup1Monomial) else (word[1],))))
            seen.add((left, right))
        assert seen == set(unshuffle_splittings(n))


def test_boundary_n5_count():
    letters = even_gens("abcde")
    d = cup1_boundary(Cup1Monomial(tuple(letters)), closed(letters))
    assert len(d.terms) == 30


def test_boundary_squares_to_zero_sweep():
    # d^2 = 0 for bundles with closed factors, n <= 5, internal degrees <= 12
    rng = random.Random(23)
    for trial in range(12):
        n = rng.randint(2, 5)
        letters = [Generator(f"g{i}", 0, 2 * rng.randint(1, 6)) for i in range(n)]
        images = all_images(letters)
        bundle = Cup1Monomial(tuple(letters))
        dd = extend_derivation(images, cup1_boundary(bundle, closed(letters)))
        assert dd.is_zero()


def test_pair_kills_repeated_factor():
    # (x − y)⌣₁x = x⌣₁y: the x⌣₁x term dies, and −(y⌣₁x) = +(x⌣₁y)
    x, y = even_gens("xy")
    mixed = cup1_pair(TensorElement.of(x) - TensorElement.of(y), TensorElement.of(x))
    assert mixed == cup1_letters(x, y)


def test_right_hirsch_compatible_with_boundary():
    # d((ab)⌣₁c) computed by Leibniz+binary matches the boundary formula
    # applied with u = ab, certifying the derived left-composite rule
    rng = random.Random(31)
    letters = [Generator(n, 0, 2 * rng.randint(1, 3)) for n in "abcde"]
    images = all_images(letters)

    def d(elt):
        return extend_derivation(images, elt)

    for _ in range(40):
        a, b, c = rng.sample(letters, 3)
        u = TensorElement.of(a, b)
        v = TensorElement.of(c)
        du_deg = a.total_degree + b.total_degree
        sign_u = -1 if du_deg % 2 else 1
        sign_uv = -1 if (du_deg * (c.total_degree + 1)) % 2 else 1
        lhs = d(cup1_pair(u, v))
        rhs = (
            cup1_pair(d(u), v)
            - cup1_pair(u, d(v)).scale(sign_u)
            + word_multiply(u, v).scale(sign_u)
            - word_multiply(v, u).scale(sign_uv)
        )
        assert lhs == rhs


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.integers(0, 6), min_size=2, max_size=6))
def test_boundary_of_random_bundles_property(halves):
    # closed factors of mixed even degrees 0..12: d² = 0 and 2^n − 2 unit terms
    letters = [Generator(f"g{i}", 0, 2 * h) for i, h in enumerate(halves)]
    bundle = Cup1Monomial(tuple(letters))
    d = cup1_boundary(bundle, closed(letters))
    assert len(d.terms) == 2 ** len(letters) - 2
    assert all(abs(c) == 1 for c in d.terms.values())
    assert extend_derivation(bundle_images(letters), d).is_zero()


names = st.sampled_from("abcdef")
even = st.integers(0, 4).map(lambda h: 2 * h)


@settings(max_examples=100, deadline=None, database=None)
@given(names, even, st.data())
def test_equal_letters_hash_equal_however_built(name, degree, data):
    g = Generator(name, 0, degree)
    other = Generator(data.draw(names.filter(lambda n: n != name)), -1, degree + 2)
    rebuilt = type(other)(name=name, res_degree=0, int_degree=degree)
    assert rebuilt == g and hash(rebuilt) == hash(g) and {g: 1}[rebuilt] == 1
    assert hash(pickle.loads(pickle.dumps(g))) == hash(g)

    factors = data.draw(st.lists(names, min_size=2, max_size=5, unique=True))
    letters = [Generator(n, 0, degree) for n in factors]
    _, bundle = normalize_cup1(data.draw(st.permutations(letters)))
    direct = Cup1Monomial(tuple(sorted(letters, key=lambda l: l.name)))
    assert bundle == direct and hash(bundle) == hash(direct) and {direct: 1}[bundle] == 1
    copies = tuple(Generator(f.name, f.res_degree, f.int_degree) for f in direct.factors)
    replaced = type(direct)(factors=copies)
    assert replaced == direct and hash(replaced) == hash(direct)
    assert replaced.int_degree == direct.int_degree == degree * len(factors)


def test_unpickled_letters_rehash_under_another_hash_seed():
    # a hash carried over from the pickling process would miss a fresh equal key
    env = {**os.environ, "PYTHONPATH": str(Path(cupone.__file__).resolve().parents[1])}
    setup = (
        "import pickle, sys\n"
        "from cupone.algebra import Generator\n"
        "from cupone.cup1 import Cup1Monomial\n"
        "a, b = Generator('alpha', 0, 2), Generator('beta', 0, 4)\n"
        "letters = [a, Cup1Monomial((a, b))]\n"
    )
    dump = setup + "sys.stdout.write(pickle.dumps(letters).hex())"
    load = setup + (
        "table = {letter: i for i, letter in enumerate(letters)}\n"
        "print([table[x] for x in pickle.loads(bytes.fromhex(sys.stdin.read()))])"
    )
    blob = subprocess.run([sys.executable, "-c", dump], env={**env, "PYTHONHASHSEED": "1"},
                          capture_output=True, text=True, check=True, timeout=60).stdout
    out = subprocess.run([sys.executable, "-c", load], env={**env, "PYTHONHASHSEED": "2"}, input=blob,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.strip() == "[0, 1]"
