"""Exact linear algebra over the rationals.

Graded-piece computations reduce to rank and right-nullspace of matrices
with a few hundred rows; both are done over the integers after clearing
denominators row by row. A rank is first computed modulo one fixed prime:
that rank never exceeds the rank over Q, so a full rank modulo the prime is
exact and is returned as is. Any other rank, and every nullspace, comes from
fraction-free (Bareiss) elimination. Pivoting is deterministic (leftmost
column, first nonzero row), so repeated runs reproduce the same echelon form
bit for bit.

MatrixQ is the small dense matrix used for group elements acting on forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import SingularMatrixError


def _int_rows(rows):
    # Scale each row to coprime integers; row scaling changes neither the
    # row span nor the right nullspace.
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fr)) if fr else 1
        ints = [int(f * mult) for f in fr]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def row_echelon_int(m):
    """In-place Bareiss elimination; returns (echelon, pivot_columns).

    All divisions are exact by Sylvester's determinant identity, so the
    echelon entries stay integers of minor-determinant size.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c, ncols):
                row_i[j] = (row_i[j] * pivot - mic * row_r[j]) // prev
        pivots.append(c)
        prev = pivot
        r += 1
    return m, pivots


# The largest prime below 2^30: residues fit in one CPython digit, and
# their products in two.
_PRIME = 1073741789


def _full_rank_mod_p(m):
    """Whether the integer matrix m has rank min(nrows, ncols) modulo _PRIME.

    A pivot row updates only the rows with a nonzero entry in its column,
    and only at its own nonzero entries, which keeps sparse Macaulay
    matrices cheap. The pass stops as soon as a full rank is reached or has
    become impossible. m is left unchanged.
    """
    p = _PRIME
    ncols = len(m[0])
    target = min(len(m), ncols)
    active = [[v % p for v in row] for row in m]
    rank = 0
    for c in range(ncols):
        i = next((i for i, row in enumerate(active) if row[c]), None)
        if i is None:
            if c + 1 - rank > ncols - target:
                return False
            continue
        pivot = active.pop(i)
        rank += 1
        if rank == target:
            return True
        inv = pow(pivot[c], -1, p)
        tail = [(j, v * inv % p) for j, v in enumerate(pivot[c + 1 :], c + 1) if v]
        for row in active:
            f = row[c]
            if f:
                for j, b in tail:
                    row[j] = (row[j] - f * b) % p
    return rank == target


def rank_rows(rows):
    """Rank of the matrix whose rows are the given rational vectors.

    A full rank modulo a prime is exact, because reduction modulo a prime
    can only lower the rank; any other matrix is recomputed by Bareiss
    elimination over the integers.
    """
    if not rows:
        return 0
    m = _int_rows(rows)
    if _full_rank_mod_p(m):
        return min(len(m), len(m[0]))
    _, pivots = row_echelon_int(m)
    return len(pivots)


def nullspace_rows(rows, ncols=None):
    """Basis of the right nullspace {x : M x = 0}, one vector per free column.

    Vectors are normalized with 1 in their free coordinate and 0 in the
    other free coordinates; they are returned in ascending free-column
    order, which makes the basis canonical for the fixed pivoting rule.
    """
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [[Fraction(i == j) for j in range(ncols)] for i in range(ncols)]
    m, pivots = row_echelon_int(_int_rows(rows))
    ncols = len(m[0])
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = Fraction(0)
            for j in range(pc + 1, ncols):
                if x[j]:
                    s += m[r][j] * x[j]
            x[pc] = -s / m[r][pc]
        basis.append(x)
    return basis


class MatrixQ:
    """Dense exact rational matrix; immutable after construction."""

    __slots__ = ("entries",)

    def __init__(self, rows):
        self.entries = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if self.entries:
            w = len(self.entries[0])
            if any(len(row) != w for row in self.entries):
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, MatrixQ) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"MatrixQ({[list(map(str, row)) for row in self.entries]})"

    def transpose(self):
        return MatrixQ(list(zip(*self.entries))) if self.entries else MatrixQ([])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return MatrixQ(
            [
                [
                    sum((self.entries[i][k] * other.entries[k][j] for k in range(self.ncols)), Fraction(0))
                    for j in range(other.ncols)
                ]
                for i in range(self.nrows)
            ]
        )

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        m = [list(row) for row in self.entries]
        sign = 1
        result = Fraction(1)
        for c in range(n):
            pr = next((i for i in range(c, n) if m[i][c] != 0), None)
            if pr is None:
                return Fraction(0)
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                sign = -sign
            pivot = m[c][c]
            result *= pivot
            for i in range(c + 1, n):
                factor = m[i][c] / pivot
                if factor:
                    for j in range(c, n):
                        m[i][j] -= factor * m[c][j]
        return sign * result

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        m = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(self.entries)]
        for c in range(n):
            pr = next((i for i in range(c, n) if m[i][c] != 0), None)
            if pr is None:
                raise SingularMatrixError("matrix is singular")
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
            pivot = m[c][c]
            m[c] = [v / pivot for v in m[c]]
            for i in range(n):
                if i != c and m[i][c]:
                    factor = m[i][c]
                    m[i] = [a - factor * b for a, b in zip(m[i], m[c])]
        return MatrixQ([row[n:] for row in m])
