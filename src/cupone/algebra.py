"""Free bigraded tensor algebras over the integers.

Elements are finite integer combinations of words in bigraded letters
(plain generators, or cup-one bundles from the cup1 module).  Words are
plain tuples; elements are sparse term maps with no stored zeros, so
syntactic equality is equality.  Differentials are Koszul-signed
derivations extended from letter images.

The letters of one computation must form a universe: no label may name
two bidegrees.  `word_multiply` checks the letters of both factors on
every product.  `extend_derivation` builds no products: it splices image
words into place and checks the letters of its input and of the images
it used once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import DegreeError, DomainError


@dataclass(frozen=True)
class Generator:
    """A bigraded algebra generator.

    `res_degree` is the (non-positive) resolution degree, `int_degree`
    the (non-negative) internal degree; total degree is their sum.
    """

    name: str
    res_degree: int = 0
    int_degree: int = 0

    def __post_init__(self):
        if not self.name:
            raise DomainError("generator needs a name")
        if self.res_degree > 0:
            raise DomainError(f"generator {self.name}: resolution degree must be <= 0")
        if self.int_degree < 0:
            raise DomainError(f"generator {self.name}: internal degree must be >= 0")
        # letters key every term map, so the hash is computed once
        object.__setattr__(self, "_hash", hash((self.name, self.res_degree, self.int_degree)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild through __init__: a string hash differs between processes
        return (type(self), (self.name, self.res_degree, self.int_degree))

    @property
    def bidegree(self):
        return (self.res_degree, self.int_degree)

    @property
    def total_degree(self):
        return self.res_degree + self.int_degree

    def sort_key(self):
        return (0, self.name)

    def label(self):
        return self.name

    def __str__(self):
        return self.name


def word_bidegree(word):
    r = sum(letter.res_degree for letter in word)
    i = sum(letter.int_degree for letter in word)
    return (r, i)


def word_total_degree(word):
    return sum(letter.total_degree for letter in word)


def _merge(into, pairs, coeff=1):
    """Add coeff·c at key into the sparse map `into`, in place, for each
    (key, c) of `pairs`; entries that cancel are removed."""
    for key, c in pairs:
        new = into.get(key, 0) + coeff * c
        if new:
            into[key] = new
        else:
            into.pop(key, None)


def _word_key(word):
    return (len(word), tuple(letter.sort_key() for letter in word))


def format_word(word):
    """Readable word form: bundles are parenthesized inside longer words."""
    if not word:
        return "1"
    parts = []
    for letter in word:
        text = letter.label()
        if len(word) > 1 and letter.sort_key()[0] == 1:
            text = f"({text})"
        parts.append(text)
    return "".join(parts)


class TensorElement:
    """Integer combination of words in bigraded letters.

    The empty word is the unit.  Elements may be inhomogeneous; anything
    needing a Koszul sign works per homogeneous part.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for word, coeff in terms.items():
                if coeff:
                    clean[tuple(word)] = int(coeff)
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def unit(cls, coeff=1):
        return cls({(): coeff})

    @classmethod
    def of(cls, *letters, coeff=1):
        return cls({tuple(letters): coeff})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        _merge(out, other.terms.items())
        return TensorElement(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TensorElement({w: -c for w, c in self.terms.items()})

    def scale(self, k):
        if not k:
            return TensorElement()
        return TensorElement({w: k * c for w, c in self.terms.items()})

    def __rmul__(self, k):
        if isinstance(k, int):
            return self.scale(k)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return word_multiply(self, other)

    def homogeneous_parts(self):
        """Map bidegree -> homogeneous element."""
        parts = {}
        for word, coeff in self.terms.items():
            parts.setdefault(word_bidegree(word), {})[word] = coeff
        return {deg: TensorElement(t) for deg, t in sorted(parts.items())}

    def bidegree(self):
        """Bidegree of a homogeneous element; None for zero; DegreeError if mixed."""
        degs = {word_bidegree(w) for w in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeError(f"element is not homogeneous: bidegrees {sorted(degs)}")
        return degs.pop()

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _word_key(item[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for word, coeff in self.sorted_terms():
            body = format_word(word)
            if body == "1":
                text = str(abs(coeff))
            elif abs(coeff) == 1:
                text = body
            else:
                text = f"{abs(coeff)}{body}"
            if not chunks:
                chunks.append(text if coeff > 0 else f"-{text}")
            else:
                chunks.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(chunks)

    def __repr__(self):
        return f"<TensorElement {self}>"


def _check_universe(*term_maps):
    """DomainError if a label names two bidegrees among the letters of the
    words of `term_maps`; letters are compared in first-seen order."""
    named = {}
    # the distinct letters of every word of every map
    for letter in dict.fromkeys(chain.from_iterable(chain.from_iterable(term_maps))):
        key = letter.label()
        prev = named.setdefault(key, letter)
        if prev.bidegree != letter.bidegree:
            raise DomainError(
                f"letter {key!r} appears with bidegrees {prev.bidegree} and {letter.bidegree}"
            )


def word_multiply(x, y):
    """Bilinear concatenation product of the free algebra."""
    _check_universe(x.terms, y.terms)
    out = {}
    for wx, cx in x.terms.items():
        _merge(out, ((wx + wy, cy) for wy, cy in y.terms.items()), cx)
    return TensorElement(out)


def _letter_image(images, letter):
    """The image of `letter`, which must be homogeneous of bidegree
    (res+1, int) of the letter, or zero."""
    try:
        image = images[letter]
    except KeyError:
        raise DomainError(f"no differential image for letter {letter.label()}") from None
    deg = image.bidegree()
    if deg is not None and deg != (letter.res_degree + 1, letter.int_degree):
        raise DegreeError(
            f"image of {letter.label()} has bidegree {deg}, "
            f"expected {(letter.res_degree + 1, letter.int_degree)}"
        )
    return image


def extend_derivation(images, x):
    """Koszul-signed Leibniz extension of letter images to an element.

    d(uw) = d(u)·w + (−1)^{|u|} u·d(w) with |u| the total degree, so the
    terms of d(word) put each word of d(letter) in place of one letter of
    the word.  The image of every letter used must be homogeneous of
    bidegree (res+1, int) of its letter; each is fetched and checked once.
    """
    used = {}  # letter -> (image terms, whether the letter's total degree is odd)
    out = {}
    for word, coeff in x.terms.items():
        sign = coeff
        for pos, letter in enumerate(word):
            entry = used.get(letter)
            if entry is None:
                entry = used[letter] = (_letter_image(images, letter).terms, letter.total_degree % 2)
            terms, odd = entry
            if terms:
                head, tail = word[:pos], word[pos + 1:]
                _merge(out, ((head + w + tail, c) for w, c in terms.items()), sign)
            if odd:
                sign = -sign
    _check_universe(x.terms, *(terms for terms, _ in used.values()))
    return TensorElement(out)


class FreeDGA:
    """Presentation of a free bigraded dga: letters plus differential images."""

    def __init__(self, letters, images):
        self.letters = list(letters)
        self.images = dict(images)
        missing = [l for l in self.letters if l not in self.images]
        if missing:
            raise DomainError(f"no differential given for {missing[0].label()}")

    def d(self, element):
        return extend_derivation(self.images, element)


@dataclass(frozen=True)
class DSquaredReport:
    ok: bool
    checked: int
    witness_letter: object = None
    witness: object = None

    def __str__(self):
        if self.ok:
            return f"d^2 = 0 on all {self.checked} generators checked"
        return f"d^2 != 0 at {self.witness_letter.label()}: d(d(g)) = {self.witness}"


def check_d_squared(dga, max_total_degree):
    """Verify d∘d = 0 on every generator of total degree <= the bound."""
    checked = 0
    for letter in sorted(dga.letters, key=lambda l: l.sort_key()):
        if letter.total_degree > max_total_degree:
            continue
        checked += 1
        dd = dga.d(dga.d(TensorElement.of(letter)))
        if not dd.is_zero():
            return DSquaredReport(False, checked, letter, dd)
    return DSquaredReport(True, checked)
