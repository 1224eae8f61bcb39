"""Exact linear algebra over the integers.

Smith normal form with unimodular transform certificates, integer linear
solving, homology of bounded chain complexes, and finitely generated
abelian groups in invariant-factor canonical form.  All arithmetic uses
Python's arbitrary-precision integers; nothing here ever rounds.

Matrices are stored sparsely, as rows of nonzero entries: boundary maps
are built column by column with `IntMatrix.from_columns`, multiplied and
checked for ∂∘∂ = 0 on the sparse rows, and reduced by the sparse
elimination of `invariant_factors` without a dense copy.  Only the Smith
normal form with transforms (behind `solve` and `kernel_basis`) works
on dense arrays.
"""

from __future__ import annotations

from math import gcd

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
    def identity(cls, n):
        return cls._of_sparse(n, n, {i: {i: 1} for i in range(n)})

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

    def column(self, j):
        if not -self.cols <= j < self.cols:
            raise IndexError(f"column {j} outside a {self.rows}x{self.cols} matrix")
        j %= self.cols
        return tuple(self.sparse_rows.get(i, {}).get(j, 0) for i in range(self.rows))

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DomainError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def _min_abs_pivot(a, start_row, start_col, nrows, ncols):
    """Position of a nonzero entry of minimal |value| in the trailing block."""
    best = None
    best_val = None
    for i in range(start_row, nrows):
        row = a[i]
        for j in range(start_col, ncols):
            v = row[j]
            if v:
                av = abs(v)
                if best is None or av < best_val:
                    best, best_val = (i, j), av
                    if av == 1:
                        return best
    return best


def smith_normal_form(matrix):
    """Return (D, U, V) with D = U·M·V, U and V unimodular, D diagonal with
    a divisibility chain d1 | d2 | ... and nonnegative diagonal.

    Pivots are chosen by minimal absolute value to limit entry growth.
    """
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    nr, nc = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i, k, q):  # row_i -= q * row_k
        ai, ak = a[i], a[k]
        ui, uk = u[i], u[k]
        for j in range(nc):
            ai[j] -= q * ak[j]
        for j in range(nr):
            ui[j] -= q * uk[j]

    def col_op(j, k, q):  # col_j -= q * col_k
        for row in a:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while True:
        pos = _min_abs_pivot(a, t, t, nr, nc)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        while True:
            # reduce the pivot column, then the pivot row
            p = a[t][t]
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // p
                    row_op(i, t, q)
                    if a[i][t]:  # remainder smaller than |p|: better pivot
                        swap_rows(i, t)
                        break
            else:
                p = a[t][t]
                for j in range(t + 1, nc):
                    if a[t][j]:
                        q = a[t][j] // p
                        col_op(j, t, q)
                        if a[t][j]:
                            swap_cols(j, t)
                            break
                else:
                    break
                continue
            continue
        t += 1

    rank = t
    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di and dj % di != 0:
                changed = True
                # fold d_{i+1} into position i and re-split as gcd/lcm
                col_op(i, i + 1, -1)  # col_i += col_{i+1}
                while True:
                    p = a[i][i]
                    q = a[i + 1][i] // p
                    row_op(i + 1, i, q)
                    if a[i + 1][i] == 0:
                        break
                    swap_rows(i + 1, i)
                # clear the (i, i+1) entry created by the row ops
                p = a[i][i]
                if a[i][i + 1]:
                    col_op(i + 1, i, a[i][i + 1] // p)

    for i in range(rank):
        if a[i][i] < 0:
            for j in range(nc):
                a[i][j] = -a[i][j]
            for j in range(nr):
                u[i][j] = -u[i][j]

    return IntMatrix(a, cols=nc), IntMatrix(u, cols=nr), IntMatrix(v, cols=nc)


def _chain_from_diagonal(diag):
    """Invariant factors of diag(d1..dk): gcd/lcm passes until d_i | d_{i+1}.
    Units divide everything, so they skip the passes and lead the chain."""
    vals = [abs(d) for d in diag if d != 0]
    units = [1] * sum(1 for d in vals if d == 1)
    vals = [d for d in vals if d != 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals) - 1):
            for j in range(i + 1, len(vals)):
                if vals[j] % vals[i] != 0:
                    g = gcd(vals[i], vals[j])
                    vals[i], vals[j] = g, vals[i] // g * vals[j]
                    changed = True
        vals.sort()
    return units + vals


def invariant_factors(matrix):
    """Nonzero invariant factors of an integer matrix (no transforms).

    Uses a sparse gcd-elimination; the result equals the nonzero diagonal
    of the Smith normal form.
    """
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    rows = {i: dict(row) for i, row in m.sparse_rows.items()}
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)

    pivots = []
    while rows:
        # pivot of minimal |value|, preferring sparse rows
        pi, pj, pv = None, None, None
        for i, row in rows.items():
            for j, val in row.items():
                if pv is None or abs(val) < abs(pv) or (abs(val) == abs(pv) and len(row) < len(rows[pi])):
                    pi, pj, pv = i, j, val
            if abs(pv) == 1:
                break

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

        # clear the pivot column
        stuck = False
        for i in list(cols.get(pj, ())):
            if i == pi:
                continue
            val = rows[i][pj]
            q = val // pv
            if q:
                add_row(i, pi, -q)
            if i in rows and rows[i].get(pj):
                # remainder nonzero: swap roles and restart with smaller pivot
                stuck = True
                break
        if stuck:
            continue
        # clear the pivot row by column operations (bookkeeping only on rows)
        prow = rows.pop(pi)
        for j in prow:
            cols[j].discard(pi)
        bad = [j for j, val in prow.items() if j != pj and val % pv != 0]
        if bad:
            # put the row back reduced mod pivot and keep going
            rows[pi] = {j: (val % pv if j != pj else val) for j, val in prow.items() if (val % pv if j != pj else val)}
            # the mod-reduction is a unimodular column operation (subtract
            # multiples of the pivot column); pivot column is zero elsewhere
            for j in rows[pi]:
                cols.setdefault(j, set()).add(pi)
            continue
        pivots.append(pv)

    return tuple(_chain_from_diagonal(pivots))


def solve(matrix, rhs):
    """One integer solution x of M·x = rhs, or None when none exists."""
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    if len(rhs) != m.rows:
        raise DomainError("right-hand side length mismatch")
    d, u, v = smith_normal_form(m)
    c = u.mul_vector(tuple(rhs))
    y = [0] * m.cols
    for i in range(m.rows):
        di = d[i, i] if i < min(d.rows, d.cols) else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            if i < m.cols:
                y[i] = c[i] // di
    return v.mul_vector(tuple(y))


def kernel_basis(matrix):
    """Basis of the lattice {x : M·x = 0}, as a list of integer tuples."""
    m = matrix if isinstance(matrix, IntMatrix) else IntMatrix(matrix)
    d, _u, v = smith_normal_form(m)
    basis = []
    for j in range(m.cols):
        dj = d[j, j] if j < min(d.rows, d.cols) else 0
        if dj == 0:
            basis.append(v.column(j))
    return basis


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

    def direct_sum(self, other):
        return FGAbelianGroup.from_divisors(
            [0] * (self.rank + other.rank) + list(self.torsion) + list(other.torsion)
        )

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
    factors = invariant_factors(m)
    divisors = [d for d in factors if d >= 2] + [0] * (m.rows - len(factors))
    return FGAbelianGroup.from_divisors(divisors)


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
