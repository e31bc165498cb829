"""Fraction-free (Bareiss) elimination over the integers: the reference
oracle that the library's modular kernel is tested against.

It shares no code with `assoform.linalg`: rows are cleared of denominators
here, eliminated with exact divisions, and back-substituted in Fractions.
"""

from fractions import Fraction
from math import lcm


def row_echelon_int(m):
    """In-place Bareiss elimination; returns (echelon, pivot_columns).

    Pivoting takes the leftmost column with a nonzero entry at or below the
    current row, and the first such row. All divisions are exact by
    Sylvester's determinant identity, so the echelon entries stay integers
    of minor-determinant size.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        pivot = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            row_i = m[i]
            for j in range(c, ncols):
                row_i[j] = (row_i[j] * pivot - mic * row_r[j]) // prev
        pivots.append(c)
        prev = pivot
        r += 1
    return m, pivots


def integer_rows(rows):
    """Each rational row times the lcm of its denominators."""
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fr)) if fr else 1
        out.append([int(f * mult) for f in fr])
    return out


def rank(rows):
    return len(row_echelon_int(integer_rows(rows))[1]) if rows else 0


def nullspace(rows, ncols):
    """One kernel vector per free column, 1 there and 0 at the other free
    columns, in ascending free-column order."""
    if not rows:
        return [[Fraction(i == j) for j in range(ncols)] for i in range(ncols)]
    m, pivots = row_echelon_int(integer_rows(rows))
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = sum((m[r][j] * x[j] for j in range(pc + 1, ncols) if x[j]), Fraction(0))
            x[pc] = -s / m[r][pc]
        basis.append(x)
    return basis
