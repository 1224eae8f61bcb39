"""Free bigraded tensor algebras over the integers.

Elements are finite integer combinations of words in bigraded letters
(plain generators, or cup-one bundles from the cup1 module).  Words are
plain tuples.  One base, `Combination`, holds a sparse term map with no
stored zeros, so syntactic equality is equality; it owns the arithmetic,
the linear extension of key images and the split by degree, for the
words here and for the basis labels of the dga module.  Differentials
are Koszul-signed derivations extended from letter images.

Letters and images are checked once, where they enter: an `ImageTable`
checks, when it is built, that each image is zero or homogeneous of the
bidegree (res+1, int) of its letter, and that no label names two
bidegrees among its keys and the letters of its image words.
`extend_derivation` then only reads the table: a letter it differentiates
must be a key, so it lies in the checked universe.  `word_multiply`
checks nothing: terms are keyed by letter objects, so a label that names
two bidegrees never changes a coefficient; it can only make a printed
label ambiguous.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain

from .errors import DegreeError, DomainError
from .record import Record, _set


class Generator(Record):
    """A bigraded algebra generator.

    `res_degree` is the (non-positive) resolution degree, `int_degree`
    the (non-negative) internal degree; total degree is their sum.
    """

    name: str
    res_degree: int = 0
    int_degree: int = 0

    def __init__(self, name, res_degree=0, int_degree=0):
        if not name:
            raise DomainError("generator needs a name")
        if res_degree > 0:
            raise DomainError(f"generator {name}: resolution degree must be <= 0")
        if int_degree < 0:
            raise DomainError(f"generator {name}: internal degree must be >= 0")
        # letters key every term map, so the hash is computed once
        _set(self, "name", name)
        _set(self, "res_degree", res_degree)
        _set(self, "int_degree", int_degree)
        _set(self, "_hash", hash((name, res_degree, int_degree)))

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


def _linear(terms, image_of):
    """Σ c·image_of(key) over the (key, c) of the term map `terms`, as a
    term map without zeros; image_of(key) is a term map, or None for zero."""
    out = {}
    for key, c in terms.items():
        image = image_of(key)
        if image:
            _merge(out, image.items(), c)
    return out


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


class Combination:
    """A finite integer combination of keys, the base of `TensorElement` and
    of the dga module's `DgaElement`: `terms` maps each key to a nonzero
    int, so equal combinations have equal maps.  A kind whose elements lie
    in several modules names a foreign element in `_foreign`; elements of
    different modules are unequal and do not add."""

    __slots__ = ("terms",)

    def _like(self, terms):
        """The element of this kind and module with the term map `terms`,
        which holds only nonzero ints; the map is taken over, not copied."""
        element = object.__new__(type(self))
        element.terms = terms
        return element

    def _foreign(self, other):
        """The DomainError for adding `other` to this element if it lies in
        another module; None if it does not."""
        return None

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms and self._foreign(other) is None

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        error = self._foreign(other)
        if error is not None:
            raise error
        out = dict(self.terms)
        _merge(out, other.terms.items())
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def scale(self, k):
        return self._like({key: k * c for key, c in self.terms.items()} if k else {})

    def __rmul__(self, k):
        if isinstance(k, int):
            return self.scale(k)
        return NotImplemented

    def linear(self, image_of, into=None):
        """Σ c·image_of(key) over the terms c·key, as an element of the kind
        and module of `into` (of this element by default); image_of(key)
        is a term map, or None for zero."""
        return (self if into is None else into)._like(_linear(self.terms, image_of))

    def by_degree(self, degree_of):
        """Map degree -> the part of the element in that degree, in degree
        order; degree_of(key) is the degree of a key."""
        parts = {}
        for key, c in self.terms.items():
            parts.setdefault(degree_of(key), {})[key] = c
        return {deg: self._like(t) for deg, t in sorted(parts.items())}

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


class TensorElement(Combination):
    """Integer combination of words in bigraded letters.

    The empty word is the unit.  Elements may be inhomogeneous; anything
    needing a Koszul sign works per homogeneous part.
    """

    __slots__ = ()

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

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return word_multiply(self, other)

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


def word_multiply(x, y):
    """Bilinear concatenation product of the free algebra.  Terms are keyed
    by letter objects, so no coefficient depends on labels; the letters
    are not checked here (see the module docstring)."""
    out = {}
    for wx, cx in x.terms.items():
        _merge(out, ((wx + wy, cy) for wy, cy in y.terms.items()), cx)
    return x._like(out)


class ImageTable(Mapping):
    """Differential images of letters, a read-only mapping letter ->
    TensorElement, checked once, when it is built: each image must be
    zero or homogeneous of bidegree (res+1, int) of its letter, and no
    label may name two bidegrees among the keys and the letters of the
    image words.  Images are values: an image changed in place is not
    checked again.

    >>> x, z = Generator("x", 0, 2), Generator("z", -1, 4)
    >>> ImageTable({x: TensorElement.zero(), z: TensorElement.of(x)})
    Traceback (most recent call last):
        ...
    cupone.errors.DegreeError: image of z has bidegree (0, 2), expected (0, 4)
    """

    __slots__ = ("_images", "_entries")

    def __init__(self, images=()):
        self._images = dict(images)
        self._entries = {}  # letter -> (image terms, whether the letter's total degree is odd)
        for letter, image in self._images.items():
            deg, want = image.bidegree(), (letter.res_degree + 1, letter.int_degree)
            if deg is not None and deg != want:
                raise DegreeError(f"image of {letter.label()} has bidegree {deg}, expected {want}")
            self._entries[letter] = (image.terms, letter.total_degree % 2)
        named = {}
        words = chain.from_iterable(image.terms for image in self._images.values())
        for letter in dict.fromkeys(chain(self._images, chain.from_iterable(words))):
            prev = named.setdefault(letter.label(), letter)
            if prev.bidegree != letter.bidegree:
                raise DomainError(f"letter {letter.label()!r} appears with bidegrees {prev.bidegree} and {letter.bidegree}")

    def __getitem__(self, letter):
        return self._images[letter]

    def __iter__(self):
        return iter(self._images)

    def __len__(self):
        return len(self._images)

    def __repr__(self):
        return f"ImageTable({self._images!r})"


def _splice(entries, terms):
    """The Leibniz extension of letter images to the term map `terms`, as
    a term map: entries[letter] is (image term map, whether the letter's
    total degree is odd), for letter objects or integer codes alike, and
    d(uw) = d(u)·w + (−1)^{|u|} u·d(w) puts each word of d(letter) in place
    of one letter of a word.  A letter without an entry raises KeyError."""
    out = {}
    for word, coeff in terms.items():
        sign = coeff
        for pos, letter in enumerate(word):
            image, odd = entries[letter]
            if image:
                head, tail = word[:pos], word[pos + 1:]
                for w, c in image.items():  # _merge, inlined in the loop every ∂ runs
                    key = head + w + tail
                    new = out.get(key, 0) + sign * c
                    if new:
                        out[key] = new
                    else:
                        del out[key]
            if odd:
                sign = -sign
    return out


def extend_derivation(images, x):
    """Koszul-signed Leibniz extension of letter images to an element.

    d(uw) = d(u)·w + (−1)^{|u|} u·d(w) with |u| the total degree (see
    `_splice`).  `images` is an `ImageTable`, or a mapping that is put in
    one, and checked, for this call.  Every letter of `x` must be a key;
    the images come from the checked table, so the call is lookups and
    splices.
    """
    table = images if isinstance(images, ImageTable) else ImageTable(images)
    try:
        return x._like(_splice(table._entries, x.terms))
    except KeyError as missing:
        raise DomainError(f"no differential image for letter {missing.args[0].label()}") from None


class FreeDGA:
    """Presentation of a free bigraded dga: letters plus differential
    images, an `ImageTable` (taken as it is) or a mapping put in one."""

    def __init__(self, letters, images):
        self.letters = list(letters)
        self.images = images if isinstance(images, ImageTable) else ImageTable(images)
        missing = [l for l in self.letters if l not in self.images]
        if missing:
            raise DomainError(f"no differential given for {missing[0].label()}")

    def d(self, element):
        return extend_derivation(self.images, element)


class DSquaredReport(Record):
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
