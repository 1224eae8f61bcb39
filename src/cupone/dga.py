"""Finite-rank bigraded differential graded algebras.

A BigradedDGA stores chosen bases per bidegree (r, t), the differential
of bidegree (1, 0) and the product as structure constants on basis
labels.  Bidegrees absent from the table are genuinely zero modules;
constructors populate every component of their natural finite support,
so dropped products encode honest truncation.

Elements are `Combination`s of basis labels (see the algebra module).  A
label is checked once, where it enters: in the tables, when a dga is
built, validated or not; in map and homotopy images, which must be
elements of the target; and in `DgaElement(dga, terms)`.  Results of
operations are not checked again.

Every product runs through one kernel, `_product(rows, left, right)`, on
plain term maps: a dga stores its product table only by rows
(`rows[l1][l2]` is the table of l1·l2), so a product visits only the
left labels that have a row.  `DgaElement.__mul__` calls it, and so
does validation, which works on term maps without building elements.

Construction from tables validates d² = 0 and the unit laws label by
label, and the Leibniz rule and associativity over the nonzero structure
constants: only the pairs and triples where some term of a law can be
nonzero are evaluated, in the sorted order of the all-basis loops, so the
first failure is the same.  Dga maps and derivation homotopies check
their product laws the same way.  A tensor product B ⊗ C is the one
exception: the tensor product of two dgas under the Koszul formulas is a
dga (Félix–Halperin–Thomas, Rational Homotopy Theory, GTM 205, §3), so
once B and C are validated, the tensor's tables are only checked to be
those formulas, entry by entry, in time linear in the tables.

Constructors: simplicial cochains with the front/back-face cup product,
the two-stage Hom dga of a graded abelian group, tensor products
B ⊗ C with the Koszul sign, and free r-truncated dgas for tests.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import Combination, _linear, _merge, _splice
from .errors import DegreeError, DomainError, SizeError
from .linalg import IntMatrix

# Validation time grows with the structure constants.  On a 2-core Xeon
# with Python 3.11.7, the densest dgas here at 256 basis elements, the
# two-stage Hom dgas of 16 coordinates (4,096 products), build and
# validate in about 0.3 s, and the cochains of the solid 7-simplex (255
# elements) in about 0.03 s.
MAX_VALIDATED_BASIS = 256
# A tensor B ⊗ C is checked against its factors in time linear in its
# tables, so its guard is set by time and memory, not by validation.  On
# the same host `build_DX` takes 1.6 s on RP² with H = Z^16 (7,936
# elements, 270,336 products), 1.0 s on ΣRP² with (Z/2)^5 (9,500), 1.7 s
# on T² with Z^16 (10,752, at 216 MB max RSS) and 1.7 s on the solid
# 6-simplex with (Z/2)^5 (12,700): about 2 s at this bound.
MAX_TENSOR_BASIS = 12_000


class DgaElement(Combination):
    """Sparse element of a BigradedDGA: label -> integer coefficient."""

    __slots__ = ("dga",)

    def __init__(self, dga, terms=None):
        self.dga = dga
        self.terms = {}
        if terms:
            for label, c in terms.items():
                if c:
                    if label not in dga.bidegrees:
                        raise DomainError(f"unknown basis label {label!r}")
                    self.terms[label] = int(c)

    def _like(self, terms):
        element = object.__new__(DgaElement)
        element.dga = self.dga
        element.terms = terms
        return element

    def _foreign(self, other):
        return None if other.dga is self.dga else DomainError("elements of different dgas")

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        error = self._foreign(other)
        if error is not None:
            raise error
        return self._like(_product(self.dga.rows, self.terms, other.terms))

    def d(self):
        return self.linear(self.dga.diff.get)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for label in sorted(self.terms):
            c = self.terms[label]
            body = label if abs(c) == 1 else f"{abs(c)}·{label}"
            chunks.append(("+ " if c > 0 else "- ") + body if chunks else (body if c > 0 else f"-{body}"))
        return " ".join(chunks)


class BigradedDGA:
    """Bigraded dga given by bases, differential table and product table."""

    def __init__(self, name, bidegrees, diff, products, unit, validate=True):
        self.name = name
        self.bidegrees = dict(bidegrees)
        self.diff = {l: dict(t) for l, t in diff.items() if t}
        self.rows = {}  # l1 -> l2 -> the table of l1·l2
        for (l1, l2), table in products.items():
            if table:
                self.rows.setdefault(l1, {})[l2] = dict(table)
        self.unit_coeffs = dict(unit)
        self._labels_by_bidegree = {}
        for label, deg in sorted(self.bidegrees.items()):
            self._labels_by_bidegree.setdefault(deg, []).append(label)
        for label, table in self.diff.items():
            self._check_labels(f"d({label})", label, *table)
        for l1, row in self.rows.items():
            for l2, table in row.items():
                self._check_labels(f"{l1}·{l2}", l1, l2, *table)
        if validate:
            self._validate()

    @property
    def products(self):
        """The product table as (l1, l2) -> the table of l1·l2, a new dict
        read from `rows`, which the library itself walks."""
        return dict(_product_items(self.rows))

    # -- helpers -----------------------------------------------------------

    def element(self, terms=None):
        return DgaElement(self, terms)

    def basis_element(self, label, coeff=1):
        return DgaElement(self, {label: coeff})

    @property
    def unit(self):
        return DgaElement(self, self.unit_coeffs)

    def basis_of(self, r, t):
        return list(self._labels_by_bidegree.get((r, t), ()))

    @property
    def top_level(self):
        """The highest first degree of a basis element, 0 for none: every
        A^{r,t} above it is zero."""
        return max(self._labels_by_bidegree, default=(0, 0))[0]

    def components(self):
        return {deg: list(labels) for deg, labels in sorted(self._labels_by_bidegree.items())}

    def total_degree(self, label):
        r, t = self.bidegrees[label]
        return r + t

    def differential_matrix(self, r, t):
        """Matrix of d from (r, t) to (r+1, t) on the sorted bases."""
        src = self.basis_of(r, t)
        return IntMatrix.from_columns(self.basis_of(r + 1, t), [self.diff.get(l, {}).items() for l in src])

    # -- validation --------------------------------------------------------

    def _validate(self):
        _check_basis_size(len(self.bidegrees))
        for label, table in self.diff.items():
            r, t = self.bidegrees[label]
            for l2 in table:
                if self.bidegrees[l2] != (r + 1, t):
                    raise DegreeError(f"d({label}) hits {l2} outside bidegree {(r + 1, t)}")
        rows, diff = self.rows, self.diff
        for l1, l2 in _product_support(rows):
            r1, t1 = self.bidegrees[l1]
            r2, t2 = self.bidegrees[l2]
            for l3 in rows[l1][l2]:
                if self.bidegrees[l3] != (r1 + r2, t1 + t2):
                    raise DegreeError(f"{l1}·{l2} hits {l3} outside bidegree {(r1 + r2, t1 + t2)}")
        one = self.unit.terms
        if _linear(one, diff.get):
            raise DomainError("d(1) != 0")
        for label in sorted(self.bidegrees):
            if _linear(diff.get(label, {}), diff.get):
                raise DomainError(f"d² != 0 at {label}")
            e = {label: 1}
            if _product(rows, one, e) != e or _product(rows, e, one) != e:
                raise DomainError(f"unit law fails at {label}")
        # Outside these supports both sides of a law are zero, so visiting
        # them in sorted order finds the same first failure as all pairs.
        pairs = set(_product_support(rows))
        pairs.update(_product_support(rows, diff.items()), _product_support(rows, None, diff.items()))
        for l1, l2 in sorted(pairs):
            sign = -1 if self.total_degree(l1) % 2 else 1
            rhs = _product(rows, diff.get(l1, {}), {l2: 1})
            _merge(rhs, _product(rows, {l1: 1}, diff.get(l2, {})).items(), sign)
            if _linear(rows.get(l1, {}).get(l2, {}), diff.get) != rhs:
                raise DomainError(f"Leibniz fails at {l1}·{l2}")
        triples = {(l1, l2, l3) for (l1, l2), l3 in _product_support(rows, _product_items(rows))}
        triples.update((l1, l2, l3) for l1, (l2, l3) in _product_support(rows, None, _product_items(rows)))
        for l1, l2, l3 in sorted(triples):
            left = _product(rows, rows.get(l1, {}).get(l2, {}), {l3: 1})
            if left != _product(rows, {l1: 1}, rows.get(l2, {}).get(l3, {})):
                raise DomainError(f"associativity fails at {l1}·{l2}·{l3}")

    def _check_labels(self, where, *labels):
        for label in labels:
            if label not in self.bidegrees:
                raise DomainError(f"{where}: {label!r} is not a basis label")

    def __repr__(self):
        return f"<BigradedDGA {self.name}: {len(self.bidegrees)} basis elements>"


class DgaMap:
    """A bigrading-preserving dga map, validated on construction."""

    def __init__(self, source, target, images, name="φ"):
        self.source = source
        self.target = target
        self.name = name
        self.images = {label: target.element() for label in source.bidegrees}
        for label, img in images.items():
            self.images[label] = img if isinstance(img, DgaElement) else target.element(img)
        self._validate()

    def apply(self, element):
        if element.dga is not self.source:
            raise DomainError(f"{self.name}: the argument is not an element of the source dga")
        return linear_extension(self.target, self.images, element)

    __call__ = apply

    def compose(self, other):
        if other.target is not self.source:
            raise DomainError("composition mismatch")
        return DgaMap(
            other.source,
            self.target,
            {l: self.apply(img) for l, img in other.images.items()},
            name=f"{self.name}∘{other.name}",
        )

    def _validate(self):
        check_bidegree_shift(self.source, self.target, self.images, (0, 0), self.name)
        for label in sorted(self.source.bidegrees):
            e = self.source.basis_element(label)
            if self.apply(e.d()) != self.apply(e).d():
                raise DomainError(f"{self.name} is not a chain map at {label}")
        tables = {label: img.terms for label, img in self.images.items()}
        pairs = set(_product_support(self.source.rows))
        pairs.update(_product_support(self.target.rows, tables.items(), tables.items()))
        for l1, l2 in sorted(pairs):
            e1 = self.source.basis_element(l1)
            e2 = self.source.basis_element(l2)
            if self.apply(e1 * e2) != self.apply(e1) * self.apply(e2):
                raise DomainError(f"{self.name} is not multiplicative at {l1}·{l2}")
        if self.apply(self.source.unit) != self.target.unit:
            raise DomainError(f"{self.name} does not preserve the unit")

    @classmethod
    def identity(cls, dga):
        return cls(dga, dga, {l: {l: 1} for l in dga.bidegrees}, name="id")


def _check_basis_size(n):
    """The validation guard, also run by constructors before they build any table."""
    if n > MAX_VALIDATED_BASIS:
        raise SizeError(f"basis of size {n} exceeds the validation guard")


def _product(rows, left, right):
    """The product of the term maps `left` and `right` under the row index
    `rows` (l1 -> l2 -> the table of l1·l2), as a term map without zeros.
    Only left labels with a row are visited; entries cancel as in
    `_merge`, also where a table holds a 0."""
    out = {}
    for l1, c1 in left.items():
        row = rows.get(l1)
        if row:
            for l2, c2 in right.items():
                table = row.get(l2)
                if table:
                    _merge(out, table.items(), c1 * c2)
    return out


def _product_items(rows):
    """Yield ((l1, l2), the table of l1·l2) for each product of the row index `rows`."""
    for l1, row in rows.items():
        for l2, table in row.items():
            yield (l1, l2), table


def _product_support(rows, left=None, right=None):
    """Yield the pairs (x, y), with repeats, for which left(x)·right(y) can
    be nonzero under the row index `rows`: left(x) hits the left label
    and right(y) the right label of some product with a table.  `left` and
    `right` are iterables of (key, table) pairs, each table keyed by the
    labels its key hits; None is the identity.  Any bilinear law built
    from such terms holds trivially outside the union of the supports of
    its terms."""

    def preimages(pairs):
        pre = {}
        for key, image in pairs:
            for label in image:
                pre.setdefault(label, []).append(key)
        return pre

    left_pre = None if left is None else preimages(left)
    right_pre = None if right is None else preimages(right)
    for m1, row in rows.items():
        xs = (m1,) if left_pre is None else left_pre.get(m1, ())
        for m2 in row:
            ys = (m2,) if right_pre is None else right_pre.get(m2, ())
            yield from ((x, y) for x in xs for y in ys)


def linear_extension(target, images, element):
    """Linear extension of basis-label images, elements of `target`, to an
    element of the source; a label without an image maps to zero."""
    return element.linear(lambda label: images[label].terms if label in images else None, target.element())


def check_bidegree_shift(source, target, images, shift, name):
    """Check that the image of every label of bidegree (r, t) is an element
    of `target` in bidegree (r, t) + shift; `name` labels the map in the
    error."""
    for label, img in images.items():
        if label not in source.bidegrees:
            raise DomainError(f"{name}: {label!r} is not a basis label of the source")
        if img.dga is not target:
            raise DomainError(f"{name}({label}) is not an element of the target dga")
        r, t = source.bidegrees[label]
        want = (r + shift[0], t + shift[1])
        for l2 in img.terms:
            if target.bidegrees[l2] != want:
                raise DegreeError(f"{name}({label}) must lie in bidegree {want}")


# ---------------------------------------------------------------------------
# simplicial complexes and their cochain dgas


class SimplicialComplex:
    """A finite abstract simplicial complex on integer vertices."""

    def __init__(self, simplices):
        closed = set()
        for vertices in simplices:
            vertices = [int(v) for v in vertices]
            s = tuple(sorted(set(vertices)))
            if not s:
                raise DomainError("empty simplex")
            if len(s) < len(vertices):
                raise DomainError(f"simplex {vertices} repeats a vertex")
            if 2 ** len(s) - 1 > MAX_VALIDATED_BASIS:
                raise SizeError(f"a simplex on {len(s)} vertices has more faces than the validation guard allows")
            for k in range(1, len(s) + 1):
                for face in combinations(s, k):
                    closed.add(face)
        if not closed:
            raise DomainError("empty complex")
        self.simplices = sorted(closed, key=lambda s: (len(s), s))


def _simplex_label(s):
    return "[" + ",".join(str(v) for v in s) + "]"


def simplicial_cochain_dga(complex_, name=None):
    """Simplicial cochains with the front-face/back-face cup product.

    The basis in degree i is the dual of the i-simplices; the coboundary
    carries the usual alternating vertex-insertion signs and the product
    is (σ* ⌣ τ*)(ρ) = σ*(front ρ)·τ*(back ρ)."""
    X = complex_ if isinstance(complex_, SimplicialComplex) else SimplicialComplex(complex_)
    bidegrees = {_simplex_label(s): (len(s) - 1, 0) for s in X.simplices}

    diff = {}
    for t in X.simplices:
        if len(t) > 1:
            for pos in range(len(t)):  # the facet without vertex pos
                diff.setdefault(_simplex_label(t[:pos] + t[pos + 1:]), {})[_simplex_label(t)] = -1 if pos % 2 else 1

    products = {}
    for rho in X.simplices:
        for cut in range(len(rho)):
            front = rho[: cut + 1]
            back = rho[cut:]
            key = (_simplex_label(front), _simplex_label(back))
            products.setdefault(key, {})[_simplex_label(rho)] = 1

    unit = {_simplex_label(s): 1 for s in X.simplices if len(s) == 1}
    return BigradedDGA(name or "C*(X)", bidegrees, diff, products, unit)


# ---------------------------------------------------------------------------
# the two-stage Hom dga of a graded abelian group


def _stage_sizes(group):
    """(free+torsion, torsion) coordinate counts of the two-stage resolution."""
    return group.rank + len(group.torsion), len(group.torsion)


def _hom_label(q, j, b, q2, j2, b2):
    return f"E({q},{j},{b}|{q2},{j2},{b2})"


def two_stage_hom_dga(graded_group, name=None):
    """Hom(R, R) of the canonical two-stage free resolutions of a graded
    abelian group, with the composition product.

    A basis element sends coordinate b of stage j over degree q to
    coordinate b2 of stage j2 over degree q2 and has bidegree
    (j − j2, q − q2).  The differential is ∂∘f − (−1)^{|f|} f∘∂."""
    groups = dict(enumerate(graded_group))
    sizes = {q: _stage_sizes(g) for q, g in groups.items()}
    orders = {q: list(g.torsion) for q, g in groups.items()}

    _check_basis_size(sum(n0 + n1 for n0, n1 in sizes.values()) ** 2)
    coords = []  # (q, j, b)
    for q, (n0, n1) in sorted(sizes.items()):
        coords.extend((q, 0, b) for b in range(n0))
        coords.extend((q, 1, b) for b in range(n1))

    bidegrees = {}
    for (q, j, b) in coords:
        for (q2, j2, b2) in coords:
            bidegrees[_hom_label(q, j, b, q2, j2, b2)] = (j - j2, q - q2)

    def boundary_pairs(q):
        """∂: stage-1 coordinate i maps to order_i times torsion coordinate."""
        rank = groups[q].rank
        return [(i, rank + i, orders[q][i]) for i in range(len(orders[q]))]

    diff = {}
    for (q, j, b) in coords:
        for (q2, j2, b2) in coords:
            label = _hom_label(q, j, b, q2, j2, b2)
            image = {}
            sign = -1 if ((j - j2) + (q - q2)) % 2 else 1
            # postcompose with ∂ on the target
            if j2 == 1:
                for (src, dst, order) in boundary_pairs(q2):
                    if src == b2:
                        _merge(image, [(_hom_label(q, j, b, q2, 0, dst), order)])
            # precompose with ∂ on the source
            if j == 0:
                for (src, dst, order) in boundary_pairs(q):
                    if dst == b:
                        _merge(image, [(_hom_label(q, 1, src, q2, j2, b2), -sign * order)])
            if image:
                diff[label] = image

    products = {}
    for (q, j, b) in coords:
        for (q2, j2, b2) in coords:
            left = _hom_label(q, j, b, q2, j2, b2)
            for (q3, j3, b3) in coords:
                right = _hom_label(q3, j3, b3, q, j, b)
                # left ∘ right: right feeds (q, j, b) into left
                products[(left, right)] = {_hom_label(q3, j3, b3, q2, j2, b2): 1}

    unit = {_hom_label(q, j, b, q, j, b): 1 for (q, j, b) in coords}
    return BigradedDGA(name or "Hom(R,R)", bidegrees, diff, products, unit)


# ---------------------------------------------------------------------------
# tensor products and free truncated dgas


def tensor_label(bl, cl):
    return f"{bl}⊗{cl}"


def tensor_dga(B, C, name=None):
    """B ⊗̂ C with components A^{r,t} = ⊕_{r=i+j} B^i ⊗ C^{j,t}.

    B must be concentrated in second degree 0.  The differential is
    d(b⊗c) = db⊗c + (−1)^{|b|} b⊗dc and the product is
    (b⊗c)(b′⊗c′) = (−1)^{|c||b′|} bb′⊗cc′.  With these formulas the tensor
    product of two dgas is a dga (Félix–Halperin–Thomas, Rational
    Homotopy Theory, GTM 205, §3), so the tensor's laws follow from its
    factors' laws.  B and C must be valid dgas, as every constructor
    checks; one built with `validate=False` is taken on trust.  The
    tensor's own tables are not validated as raw tables: `_check_tensor`
    compares its bases, tables and unit with the formulas entry by entry,
    in time linear in the tables, under the guard `MAX_TENSOR_BASIS`."""
    for label, (r, t) in B.bidegrees.items():
        if t != 0:
            raise DomainError("the left tensor factor must be a singly graded dga")
    n = len(B.bidegrees) * len(C.bidegrees)
    if n > MAX_TENSOR_BASIS:
        raise SizeError(f"basis of size {n} exceeds the validation guard")
    labels = {bl: {cl: tensor_label(bl, cl) for cl in C.bidegrees} for bl in B.bidegrees}
    bidegrees = {}
    diff = {}
    for bl, (i, _z) in B.bidegrees.items():
        row, bd = labels[bl], B.diff.get(bl, {})
        sign = -1 if i % 2 else 1
        for cl, (j, t) in C.bidegrees.items():
            bidegrees[row[cl]] = (i + j, t)
            # db⊗c and b⊗dc have distinct labels, as d raises a degree
            image = {labels[bl2][cl]: c for bl2, c in bd.items() if c}
            image.update((row[cl2], sign * c) for cl2, c in C.diff.get(cl, {}).items() if c)
            if image:
                diff[row[cl]] = image

    products = {}
    for (bl1, bl2), btable in _product_items(B.rows):
        tb = B.total_degree(bl2)
        for (cl1, cl2), ctable in _product_items(C.rows):
            sign = -1 if (C.total_degree(cl1) * tb) % 2 else 1
            out = {labels[bl3][cl3]: sign * cb * cc for bl3, cb in btable.items() for cl3, cc in ctable.items() if cb * cc}
            if out:
                products[(labels[bl1][cl1], labels[bl2][cl2])] = out

    unit = {labels[bl][cl]: cb * cc for bl, cb in B.unit_coeffs.items() for cl, cc in C.unit_coeffs.items() if cb * cc}
    A = BigradedDGA(name or f"{B.name}⊗{C.name}", bidegrees, diff, products, unit, validate=False)
    _check_tensor(A, B, C)
    return A


def _nonzero(table):
    return sum(1 for c in table.values() if c)


def _check_tensor(A, B, C):
    """Check that the dga A is B ⊗ C by the formulas of `tensor_dga`.

    The walk runs over A's own labels and entries, each label decoded to
    its factor pair, and compares every bidegree, differential image,
    product table and the unit with the formulas read from the factor
    tables.  An entry the formulas do not give is named with its
    coefficient and theirs; a table with fewer entries than the factors
    predict is named with a term it lacks.  The cost is linear in A's
    tables."""
    pair_of = {tensor_label(bl, cl): (bl, cl) for bl in B.bidegrees for cl in C.bidegrees}
    stray = sorted(A.bidegrees.keys() ^ pair_of.keys())
    if stray:
        if stray[0] in A.bidegrees:
            raise DomainError(f"{A.name} has the basis label {stray[0]!r}, which is no pair of factor labels")
        raise DomainError(f"{A.name} lacks the basis label {stray[0]!r} of a pair of factor labels")

    def sizes(F):
        """Per label of F: the nonzero terms of its differential and the
        nonzero products in its row."""
        return ({l: _nonzero(t) for l, t in F.diff.items()},
                {l: sum(1 for t in row.values() if _nonzero(t)) for l, row in F.rows.items()})

    (b_terms, b_products), (c_terms, c_products) = sizes(B), sizes(C)
    for label, deg in A.bidegrees.items():
        bl, cl = pair_of[label]
        i, (j, t) = B.bidegrees[bl][0], C.bidegrees[cl]
        if deg != (i + j, t):
            raise DegreeError(f"{label} has bidegree {deg} where the factors give {(i + j, t)}")

        bd, cd = B.diff.get(bl, {}), C.diff.get(cl, {})
        sign = -1 if i % 2 else 1
        image = A.diff.get(label, {})
        for l2, c in image.items():
            bl2, cl2 = pair_of[l2]
            want = (bd.get(bl2, 0) if cl2 == cl else 0) + (sign * cd.get(cl2, 0) if bl2 == bl else 0)
            if c != want or not want:
                raise DomainError(f"d({label}) has {c} at {l2} where the Koszul formula gives {want}")
        if len(image) != b_terms.get(bl, 0) + c_terms.get(cl, 0):
            terms = [tensor_label(b2, cl) for b2, c in bd.items() if c] + [tensor_label(bl, c2) for c2, c in cd.items() if c]
            lost = next(l2 for l2 in terms if l2 not in image)
            raise DomainError(f"d({label}) lacks the term {lost} that the Koszul formula gives")

        brow, crow = B.rows.get(bl, {}), C.rows.get(cl, {})
        row = A.rows.get(label, {})
        odd = (j + t) % 2
        for l2, table in row.items():
            bl2, cl2 = pair_of[l2]
            btable, ctable = brow.get(bl2, {}), crow.get(cl2, {})
            sign = -1 if odd and B.bidegrees[bl2][0] % 2 else 1
            for l3, c in table.items():
                bl3, cl3 = pair_of[l3]
                want = sign * btable.get(bl3, 0) * ctable.get(cl3, 0)
                if c != want or not want:
                    raise DomainError(f"{label}·{l2} has {c} at {l3} where the tensor formula gives {want}")
            # the entries are distinct nonzero terms of the formula, so at most
            # its number; that is the tables' sizes unless they hold zeros
            if len(table) != len(btable) * len(ctable) and len(table) != _nonzero(btable) * _nonzero(ctable):
                lost = next(l3 for b3, cb in btable.items() for c3, cc in ctable.items()
                            if cb * cc and (l3 := tensor_label(b3, c3)) not in table)
                raise DomainError(f"{label}·{l2} lacks the term {lost} that the tensor formula gives")
        if len(row) != b_products.get(bl, 0) * c_products.get(cl, 0):
            lost = next(l2 for b2, bt in brow.items() for c2, ct in crow.items()
                        if _nonzero(bt) and _nonzero(ct) and (l2 := tensor_label(b2, c2)) not in row)
            raise DomainError(f"{label}·{lost} is zero where the tensor formula gives a product")

    unit = {tensor_label(bl, cl): cb * cc for bl, cb in B.unit_coeffs.items() for cl, cc in C.unit_coeffs.items() if cb * cc}
    wrong = sorted(l for l in unit.keys() | A.unit_coeffs.keys() if unit.get(l, 0) != A.unit_coeffs.get(l, 0))
    if wrong:
        raise DomainError(f"the unit has {A.unit_coeffs.get(wrong[0], 0)} at {wrong[0]} where the factors give "
                          f"{unit.get(wrong[0], 0)}")


def free_truncated_dga(generators, diffs, max_r=None, min_t=None, name=None):
    """Free associative dga on bigraded generators, truncated to a window.

    Two window shapes: words of first degree <= max_r (needs every
    generator to have first degree >= 1), or words of second degree
    >= min_t (needs every generator to have second degree <= −1).  A
    min_t window is closed under the differential, which preserves the
    second degree; an r-window drops d at its top edge.

    `generators`: list of (name, r, t); `diffs`: name -> list of
    (coeff, word) with word a tuple of generator names, where the
    coefficients of repeated words add up.  A word's differential is the
    Koszul-signed Leibniz extension `_splice` of these images, with the
    terms outside the window dropped.
    """
    if max_r is None and min_t is None:
        raise DomainError("free truncated dga needs a window bound")
    gens = {}
    for (nm, r, t) in generators:
        if max_r is not None and r < 1:
            raise DomainError("an r-window needs generators of first degree >= 1")
        if max_r is None and t > -1:
            raise DomainError("a t-window needs generators of second degree <= -1")
        if nm in gens:
            raise DomainError(f"duplicate generator {nm}")
        gens[nm] = (r, t)

    def bidegree(w):
        return sum(gens[nm][0] for nm in w), sum(gens[nm][1] for nm in w)

    def in_window(r, t):
        return (max_r is None or r <= max_r) and (min_t is None or t >= min_t)

    def fits(w):
        return in_window(*bidegree(w))

    words = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for nm in gens:
                cand = w + (nm,)
                if fits(cand):
                    nxt.append(cand)
        words.extend(nxt)
        frontier = nxt

    def wlabel(w):
        return "·".join(w) if w else "1"

    labelled = [(w, wlabel(w), *bidegree(w)) for w in words]
    bidegrees = {label: (r, t) for _w, label, r, t in labelled}

    products = {}
    for w1, l1, r1, t1 in labelled:
        for w2, l2, r2, t2 in labelled:
            if in_window(r1 + r2, t1 + t2):
                products[(l1, l2)] = {wlabel(w1 + w2): 1}

    # name -> (image term map on words, total degree odd), the form `_splice` reads
    entries = {nm: ({}, (r + t) % 2) for nm, (r, t) in gens.items()}
    for nm, (image, _odd) in entries.items():
        _merge(image, ((tuple(img_word), coeff) for coeff, img_word in diffs.get(nm, ())))
    diff = {wlabel(w): {} for w in words}  # BigradedDGA drops the empty images
    for w in words:
        _merge(diff[wlabel(w)], ((wlabel(v), c) for v, c in _splice(entries, {w: 1}).items() if fits(v)))

    return BigradedDGA(name or "T(V)/window", bidegrees, diff, products, {"1": 1})
