"""Exact linear algebra over the integers.

Smith normal form with unimodular transform certificates, integer linear
solving, homology of bounded chain complexes, and finitely generated
abelian groups in invariant-factor canonical form.  All arithmetic uses
Python's arbitrary-precision integers; nothing here ever rounds.

Matrices are stored sparsely, as rows of nonzero entries: boundary maps
are built column by column with `IntMatrix.from_columns`, multiplied and
checked for ∂∘∂ = 0 on the sparse rows.  One sparse gcd elimination
reduces every matrix.  `invariant_factors` reads only its pivots;
`solve`, `kernel_basis` and `smith_normal_form` also have it record its
row and column operations as sparse unimodular U and V, with U·M·V
nonzero exactly at the pivots.

>>> m = IntMatrix([[2, 4], [6, 8]])
>>> invariant_factors(m)
(2, 4)
>>> solve(m, (2, 6)), solve(m, (1, 0))
((1, 0), None)
>>> kernel_basis(IntMatrix([[1, 2, 3]]))
[(-2, 1, 0), (-3, 0, 1)]
"""

from __future__ import annotations

from math import gcd

from .algebra import _merge
from .errors import DomainError
from .record import Record, _set


class IntMatrix:
    """Immutable integer matrix stored sparsely.

    `sparse_rows` maps a row index to a dict {column index: value} of that
    row's nonzero entries; rows without a nonzero entry are absent and no
    zero is ever stored, so equal matrices have equal `sparse_rows`.
    `entries` is a dense tuple-of-row-tuples view, built on each access.
    """

    __slots__ = ("rows", "cols", "sparse_rows")

    def __init__(self, entries, cols=None):
        rows = [tuple(int(v) for v in row) for row in entries]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DomainError("ragged matrix rows")
            if cols is not None and cols != width:
                raise DomainError("explicit column count disagrees with the rows")
        else:
            width = 0 if cols is None else cols
        self.rows = len(rows)
        self.cols = width
        self.sparse_rows = {}
        for i, row in enumerate(rows):
            nonzero = {j: v for j, v in enumerate(row) if v}
            if nonzero:
                self.sparse_rows[i] = nonzero

    @classmethod
    def _of_sparse(cls, rows, cols, sparse_rows):
        """Wrap sparse rows that hold no zero value and no empty row."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.sparse_rows = rows, cols, sparse_rows
        return m

    @classmethod
    def zeros(cls, rows, cols):
        return cls._of_sparse(rows, cols, {})

    @classmethod
    def from_columns(cls, row_keys, columns):
        """Matrix with one row per key of `row_keys`, in that order, and one
        column per entry of `columns`, each an iterable of (row key, value)
        pairs; values at the same key add up, and sums that cancel are not
        stored."""
        index = {key: i for i, key in enumerate(row_keys)}
        sparse = {}
        for j, column in enumerate(columns):
            for key, value in column:
                row = sparse.setdefault(index[key], {})
                new = row.get(j, 0) + value
                if new:
                    row[j] = new
                else:
                    row.pop(j, None)
        return cls._of_sparse(len(row_keys), len(columns), {i: row for i, row in sorted(sparse.items()) if row})

    @property
    def entries(self):
        out = []
        for i in range(self.rows):
            dense = [0] * self.cols
            for j, v in self.sparse_rows.get(i, {}).items():
                dense[j] = v
            out.append(tuple(dense))
        return tuple(out)

    def __getitem__(self, ij):
        i, j = ij
        if not (-self.rows <= i < self.rows and -self.cols <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        return self.sparse_rows.get(i % self.rows, {}).get(j % self.cols, 0)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        stored = frozenset((i, j, v) for i, row in self.sparse_rows.items() for j, v in row.items())
        return hash((self.rows, self.cols, stored))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    def transpose(self):
        out = {}
        for i, row in self.sparse_rows.items():
            for j, v in row.items():
                out.setdefault(j, {})[i] = v
        return IntMatrix._of_sparse(self.cols, self.rows, dict(sorted(out.items())))

    def mul(self, other):
        if self.cols != other.rows:
            raise DomainError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = other.sparse_rows
        out = {}
        for i, row in self.sparse_rows.items():
            acc = {}
            for k, a in row.items():
                for j, b in right.get(k, {}).items():
                    acc[j] = acc.get(j, 0) + a * b
            acc = {j: v for j, v in acc.items() if v}
            if acc:
                out[i] = acc
        return IntMatrix._of_sparse(self.rows, other.cols, out)

    def mul_vector(self, vec):
        if self.cols != len(vec):
            raise DomainError("vector length mismatch")
        rows = self.sparse_rows
        return tuple(sum(a * vec[j] for j, a in rows[i].items()) if i in rows else 0 for i in range(self.rows))


def _eliminate(m, transforms=False):
    """Sparse gcd elimination of M by unimodular row and column operations.

    Returns (pivots, U, V): `pivots` lists (row, column, value), at most one
    per row and per column; with `transforms`, U is a dict of sparse rows
    and V a dict of sparse columns, unimodular, with U·M·V nonzero exactly
    at the pivots.  Without them U and V are None and only the working rows
    are copied.  Pivots have minimal |value|, preferring sparse rows, to
    limit entry growth; a nonzero remainder in the pivot column makes a
    smaller pivot and restarts the step.
    """
    rows = {i: dict(row) for i, row in m.sparse_rows.items()}
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    u = {i: {i: 1} for i in range(m.rows)} if transforms else None
    v = {j: {j: 1} for j in range(m.cols)} if transforms else None

    def add_row(dst, src, mult):
        rdst = rows.get(dst)
        if rdst is None:
            rdst = rows[dst] = {}
        for j, val in rows[src].items():
            new = rdst.get(j, 0) + mult * val
            if new:
                rdst[j] = new
                cols.setdefault(j, set()).add(dst)
            else:
                rdst.pop(j, None)
                cols[j].discard(dst)
        if not rdst:
            del rows[dst]
        if u is not None:
            _merge(u[dst], u[src].items(), mult)

    pivots = []
    while rows:
        pi, pj, pv = None, None, None
        for i, row in rows.items():
            for j, val in row.items():
                if pv is None or abs(val) < abs(pv) or (abs(val) == abs(pv) and len(row) < len(rows[pi])):
                    pi, pj, pv = i, j, val
            if abs(pv) == 1:
                break

        # clear the pivot column by row operations
        stuck = False
        for i in list(cols.get(pj, ())):
            if i == pi:
                continue
            q = rows[i][pj] // pv
            if q:
                add_row(i, pi, -q)
            if i in rows and rows[i].get(pj):
                stuck = True
                break
        if stuck:
            continue
        # clear the pivot row by column operations col_j -= q·col_pj, which
        # touch no other row now that the pivot column is zero elsewhere
        prow = rows.pop(pi)
        for j in prow:
            cols[j].discard(pi)
        if v is not None:
            for j, val in prow.items():
                if j != pj and val // pv:
                    _merge(v[j], v[pj].items(), -(val // pv))
        if any(val % pv for val in prow.values()):
            # remainders are left in the row: keep going with smaller pivots
            rows[pi] = {j: (val % pv if j != pj else val) for j, val in prow.items() if (val % pv if j != pj else val)}
            for j in rows[pi]:
                cols.setdefault(j, set()).add(pi)
            continue
        pivots.append((pi, pj, pv))
    return pivots, u, v


def smith_normal_form(matrix):
    """Return (D, U, V) with D = U·M·V, U and V unimodular, D diagonal with
    a divisibility chain d1 | d2 | ... and nonnegative diagonal.

    The pivots of `_eliminate` are moved onto the diagonal and made
    positive; each pair diag(a, b) off the chain becomes diag(g, ab/g) by
    the rows [[s, t], [−b/g, a/g]] and the columns [[1, −tb/g], [1, sa/g]],
    where sa + tb = g = gcd(a, b).
    """
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    pivots, u, v = _eliminate(m, transforms=True)
    rows = [r for r, _, _ in pivots]
    cols = [c for _, c, _ in pivots]
    rows += sorted(set(range(m.rows)) - set(rows))
    cols += sorted(set(range(m.cols)) - set(cols))
    u = [u[r] for r in rows]
    v = [v[c] for c in cols]
    diag = []
    for k, (_, _, d) in enumerate(pivots):
        if d < 0:
            u[k] = {j: -x for j, x in u[k].items()}
        diag.append(abs(d))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if b % a:
                g = gcd(a, b)
                s = pow(a // g, -1, b // g)
                t = (g - s * a) // b
                new = []  # rows i, j of U, then columns i, j of V, each p·x + q·y
                for x, p, y, q in ((u[i], s, u[j], t), (u[i], -b // g, u[j], a // g),
                                   (v[i], 1, v[j], 1), (v[i], -t * b // g, v[j], s * a // g)):
                    out = {}
                    _merge(out, x.items(), p)
                    _merge(out, y.items(), q)
                    new.append(out)
                u[i], u[j], v[i], v[j] = new
                diag[i], diag[j] = g, a // g * b
    d = IntMatrix._of_sparse(m.rows, m.cols, {k: {k: x} for k, x in enumerate(diag)})
    v_by_rows = IntMatrix._of_sparse(m.cols, m.cols, dict(enumerate(v))).transpose()
    return d, IntMatrix._of_sparse(m.rows, m.rows, dict(enumerate(u))), v_by_rows


def _chain_from_diagonal(diag):
    """Invariant factors of diag(d1..dk): one gcd/lcm pass makes each d_i
    divide every later entry.  Units divide everything, so they skip the
    pass and lead the chain."""
    vals = [abs(d) for d in diag if d != 0]
    units = [1] * sum(1 for d in vals if d == 1)
    vals = [d for d in vals if d != 1]
    for i in range(len(vals) - 1):
        for j in range(i + 1, len(vals)):
            if vals[j] % vals[i] != 0:
                g = gcd(vals[i], vals[j])
                vals[i], vals[j] = g, vals[i] // g * vals[j]
    return units + vals


def invariant_factors(matrix):
    """Nonzero invariant factors of an integer matrix: the chain of the
    pivots of the sparse elimination, without transforms."""
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    pivots, _, _ = _eliminate(m)
    return tuple(_chain_from_diagonal([d for _, _, d in pivots]))


def solve(matrix, rhs):
    """One integer solution x of M·x = rhs, or None when none exists.

    With D = U·M·V, M·x = rhs iff D·y = U·rhs for x = V·y."""
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    if len(rhs) != m.rows:
        raise DomainError("right-hand side length mismatch")
    return _solution(_eliminate(m, transforms=True), rhs)


def _solution(elimination, rhs):
    """`solve` on the result of `_eliminate(M, transforms=True)`, so that
    one elimination serves many right-hand sides."""
    pivots, u, v = elimination
    c = [sum(x * rhs[j] for j, x in u[i].items()) for i in range(len(u))]
    x = [0] * len(v)
    for r, col, d in pivots:
        if c[r] % d:
            return None
        y, c[r] = c[r] // d, 0
        for k, val in v[col].items():
            x[k] += y * val
    return None if any(c) else tuple(x)


def kernel_basis(matrix):
    """Basis of the lattice {x : M·x = 0}, as a list of integer tuples:
    the columns of V at the non-pivot columns, in column order."""
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    return _kernel(_eliminate(m, transforms=True))


def _kernel(elimination):
    """`kernel_basis` on the result of `_eliminate(M, transforms=True)`."""
    pivots, _, v = elimination
    pivot_cols = {c for _, c, _ in pivots}
    return [tuple(v[j].get(k, 0) for k in range(len(v))) for j in range(len(v)) if j not in pivot_cols]


class FGAbelianGroup(Record):
    """A finitely generated abelian group Z^rank + Z/d1 + ... in canonical
    invariant-factor form (d1 | d2 | ..., every d >= 2).

    >>> FGAbelianGroup.from_divisors([0, 30, 4])
    FGAbelianGroup(rank=1, torsion=(2, 60))
    >>> print(FGAbelianGroup(1, (2, 60)))
    Z + Z/2 + Z/60
    """

    rank: int
    torsion: tuple = ()

    def __init__(self, rank, torsion=()):
        if rank < 0:
            raise DomainError("negative rank")
        chain = tuple(torsion)
        if any(d < 2 for d in chain):
            raise DomainError("invariant factors must be >= 2")
        for a, b in zip(chain, chain[1:]):
            if b % a != 0:
                raise DomainError(f"torsion {chain} is not a divisibility chain")
        _set(self, "rank", rank)
        _set(self, "torsion", chain)

    @classmethod
    def from_divisors(cls, divisors):
        """Canonicalize an arbitrary list of cyclic orders (0 means Z)."""
        rank = sum(1 for d in divisors if d == 0)
        torsion = _chain_from_diagonal([d for d in divisors if d != 0])
        return cls(rank, tuple(d for d in torsion if d >= 2))

    @property
    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    def order(self):
        """Group order, or None when infinite."""
        if self.rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel_group(matrix):
    """Z^rows / (column lattice of M) as an FGAbelianGroup."""
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    return group_at(m.rows, 0, invariant_factors(m))


def homology(boundaries):
    """Homology groups of a bounded complex of free Z-modules.

    `boundaries` is a list [d1, d2, ...] with d_k : C_k -> C_{k-1}; the
    chain groups are inferred from the matrix shapes.  Returns
    [H_0, H_1, ...] with H_k = ker d_k / im d_{k+1}.  Raises DomainError
    if consecutive boundaries do not compose to zero, naming the degree.
    """
    mats = [b if isinstance(b, IntMatrix) else IntMatrix(b) for b in boundaries]
    for k in range(len(mats) - 1):
        if mats[k].cols != mats[k + 1].rows:
            raise DomainError(f"boundary shapes disagree between degrees {k + 1} and {k + 2}")
        if mats[k].mul(mats[k + 1]).sparse_rows:
            raise DomainError(f"d∘d is nonzero at degree {k + 2}")

    dims = [mats[0].rows if mats else 0] + [m.cols for m in mats]
    facts = [()] + [invariant_factors(m) for m in mats] + [()]
    # H_k from the rank of d_k and the invariant factors of d_{k+1}
    return [group_at(dim, len(facts[k]), facts[k + 1]) for k, dim in enumerate(dims)]


def group_at(dim, rank_out, in_factors):
    """ker(d_out)/im(d_in) at a free module of rank `dim`, from the rank
    of the outgoing map and the invariant factors of the incoming one."""
    free = dim - rank_out - len(in_factors)
    return FGAbelianGroup.from_divisors([0] * free + [d for d in in_factors if d >= 2])


def homology_at(d_out, d_in):
    """ker(d_out)/im(d_in) for one position, given the two adjacent maps.

    This is the middle group of the complex [d_out, d_in], so d∘d = 0 is
    checked.  Either map may be None, meaning the zero map from/to the
    zero module; the other one is then a one-map complex.
    """
    if d_out is None and d_in is None:
        raise DomainError("homology_at needs at least one map to size the module")
    maps = [d for d in (d_out, d_in) if d is not None]
    return homology(maps)[0 if d_out is None else 1]
