"""Exact linear algebra over the rationals.

Graded-piece computations reduce to rank and right-nullspace of matrices
with a few hundred rows; both are done over the integers after clearing
denominators row by row, and both come from one certified kernel,
`_kernel`:
- `_EchelonModP` eliminates the sparse integer rows modulo a prime, with
  a fixed pivoting rule (leftmost column, first row to reach it);
- for each free column, `_lift` solves the square system of the pivot
  rows with that coordinate 1 and the other free coordinates 0, by Dixon
  p-adic lifting and rational reconstruction;
- the prime is kept only when every lifted vector kills every row over
  the integers and has no entry in a pivot column right of its free
  column. That proves the pivot columns modulo the prime are those over
  Q; any other prime is replaced by the next prime below it.
`rank_rows` takes a full rank modulo the prime as exact and reads any
other rank off the kernel, `nullspace_rows` returns the kernel in the
canonical normalization of the pivoting rule, and `kernel_line` returns
a kernel that must be one line, such as the socle of a Gorenstein
algebra.

MatrixQ is the small dense matrix used for group elements acting on forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .errors import AssoformError, DegenerateSocleError, SingularMatrixError


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


def _sparse(m):
    # dense integer rows as dicts from column to nonzero entry, lazily
    return ({c: a for c, a in enumerate(row) if a} for row in m)


# The largest prime below 2^30: residues fit in one CPython digit, and
# their products in two.
_PRIME = 1073741789


def rank_rows(rows):
    """Rank of the matrix whose rows are the given rational vectors.

    The cleared rows are eliminated modulo _PRIME by `_EchelonModP`. A full
    rank modulo a prime is exact, because reduction modulo a prime can only
    lower the rank; any other rank is the number of columns less the
    length of the certified kernel, which starts from the same elimination.
    """
    if not rows:
        return 0
    m = _int_rows(rows)
    ncols = len(m[0])
    target = min(len(m), ncols)
    ech = _EchelonModP(_sparse(m), ncols, _PRIME, target)
    if len(ech.col) == target:
        return target
    return ncols - len(_kernel(list(_sparse(m)), ncols, ech))


def nullspace_rows(rows, ncols=None):
    """Basis of the right nullspace {x : M x = 0}, one vector per free column.

    Vectors are normalized with 1 in their free coordinate and 0 in the
    other free coordinates; they are returned in ascending free-column
    order, which makes the basis canonical for the fixed pivoting rule.
    They are the certified kernel vectors of the cleared rows, each divided
    by its free coordinate.
    """
    if not rows and ncols is None:
        raise ValueError("ncols required for an empty matrix")
    m = _int_rows(rows)
    basis = []
    for x in _kernel(list(_sparse(m)), len(m[0]) if m else ncols):
        den = next(v for v in reversed(x) if v)  # the free coordinate
        basis.append([Fraction(v, den) for v in x])
    return basis


def _prev_prime(p):
    """The largest prime below p, by trial division."""
    for q in range(p - 1, 1, -1):
        if all(q % d for d in range(2, isqrt(q) + 1)):
            return q
    raise ValueError(f"no prime below {p}")


def _norm_bits(row):
    # an upper bound on log2 of the Euclidean norm of a sparse integer row
    return (sum(a * a for a in row.values()).bit_length() + 1) // 2


class _EchelonModP:
    """Row echelon form modulo p of sparse integer rows, built row by row.

    This is the library's one modular elimination. `rank_rows` reads the
    number of pivots as a certificate of full rank; `_kernel` replays the
    stored elimination while it lifts. rows may be any iterable of dicts
    from column to int; it is read once, in order.

    A row is reduced by the pivot rows in ascending order of their leading
    columns, so each pivot row is zero before its leading column, and the
    pivot rows restricted to the pivot columns are triangular. Elimination
    stops once `target` pivots are found. Stored per pivot, in the order
    found: its leading column, the row it came from, the inverse of the
    leading entry it was normalized by, the earlier pivots subtracted from
    it with their factors, and the nonzero entries after its leading
    column. Together these replay the elimination on any right-hand side.

    While a row is reduced it is packed into one integer, an entry per
    fixed-width slot, so that subtracting a multiple of a pivot row is one
    big-integer multiply-add. Pivot rows are kept reduced modulo p, so a
    slot gains less than p^2 per subtraction, and the width leaves room for
    one subtraction per column; a slot is reduced modulo p only when the
    scan reaches it.
    """

    def __init__(self, rows, ncols, p, target):
        self.p = p
        self.width = -(-(2 * p.bit_length() + (ncols + 1).bit_length()) // 8) * 8
        self.lead = {}  # leading column -> pivot index
        self.col, self.source, self.inv, self.lower, self.entries = [], [], [], [], []
        self._tails = []  # packed normalized entries after the leading column
        for i, row in enumerate(rows):
            if len(self.col) == target:
                break
            self._insert(i, row, ncols)

    def _insert(self, i, row, ncols):
        p, width, lead = self.p, self.width, self.lead
        mask = (1 << width) - 1
        v = sum((a % p) << (width * c) for c, a in row.items())
        start = 0  # the column of v's lowest slot; the columns before it are cleared
        js, fs = [], []
        while v:
            c = start + ((v & -v).bit_length() - 1) // width
            v >>= width * (c - start)
            f = (v & mask) % p
            v >>= width
            start = c + 1
            if not f:
                continue
            k = lead.get(c)
            if k is None:
                self._add_pivot(i, c, f, v, js, fs)
                return
            js.append(k)
            fs.append(f)
            v += (p - f) * self._tails[k]

    def _add_pivot(self, i, c, f, v, js, fs):
        p, nbytes = self.p, self.width // 8
        s = pow(f, -1, p)
        raw = v.to_bytes(nbytes * -(-v.bit_length() // self.width), "little")
        slots = (raw[j : j + nbytes] for j in range(0, len(raw), nbytes))
        tail = [int.from_bytes(slot, "little") * s % p for slot in slots]
        self.lead[c] = len(self.col)
        self.col.append(c)
        self.source.append(i)
        self.inv.append(s)
        self.lower.append((js, fs))
        self.entries.append([(j, a) for j, a in enumerate(tail, c + 1) if a])
        packed = b"".join(a.to_bytes(nbytes, "little") for a in tail)
        self._tails.append(int.from_bytes(packed, "little"))


def _reconstruct(residues, modulus):
    """Integers (nums, den) with nums[k] = den * residues[k] modulo modulus.

    Entries are reconstructed one at a time against a running common
    denominator (Wang's rational reconstruction, with every numerator and
    the final denominator at most isqrt((modulus - 1) // 2)), so an entry
    whose denominator divides the running one needs no Euclid run. Returns
    None when some entry has no such fraction; the fractions are unique
    when they exist.
    """
    bound = isqrt((modulus - 1) // 2)
    den = 1
    scaled = []
    for u in residues:
        w = den * u % modulus
        if w > modulus // 2:
            w -= modulus
        if abs(w) > bound:
            r0, r1, t0, t1 = modulus, w % modulus, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if not 0 < abs(t1) <= bound // den:
                return None
            w = r1 if t1 > 0 else -r1
            den *= abs(t1)
        scaled.append((w, den))
    return [w * (den // d) for w, d in scaled], den


# Dixon steps between two attempts at rational reconstruction
_RECONSTRUCT_EVERY = 2


def _pivot_system(rows, ech):
    """The parts of `_lift`'s square system that no free column changes.

    By pivot: the integer pivot row on the pivot columns, as (pivot
    indices, entries), and the stored entries after its leading column on
    the same columns. Then the pivots in back-substitution order, and the
    bit length 2 log2(H) + 1 past which a reconstruction is final, with H
    Hadamard's bound on the minors of the pivot rows.
    """
    lead = ech.lead
    square = []
    for i in ech.source:
        entries = [(lead[c], a) for c, a in rows[i].items() if c in lead]
        square.append(([k for k, _ in entries], [a for _, a in entries]))
    upper = []
    for entries in ech.entries:
        entries = [(lead[c], a) for c, a in entries if c in lead]
        upper.append(([j for j, _ in entries], [a for _, a in entries]))
    backward = sorted(range(len(ech.col)), key=ech.col.__getitem__, reverse=True)
    stop_bits = 2 * sum(_norm_bits(rows[i]) for i in ech.source) + 1
    return square, upper, backward, stop_bits


def _lift(rows, ncols, ech, system, free):
    """The kernel vector of the rows with free coordinate `free`, as integers.

    free is a column without a pivot in ech, and system is
    `_pivot_system(rows, ech)`. Fixing that coordinate to 1 and the other
    free coordinates to 0 leaves a square system in the pivot columns,
    nonsingular modulo p, whose solution is lifted p-adically (Dixon):
    each step solves modulo p by replaying the stored elimination, then
    divides the residual by p after one sparse integer matrix-vector
    product. Reconstruction is tried every few steps, and a candidate is
    returned, with its free coordinate positive, once it kills every row
    exactly. By Cramer's rule the solution's numerators and denominators
    are minors of the pivot rows, so at most Hadamard's bound H; once
    p^steps > 2 H^2 the reconstruction is the solution itself, and if it
    fails the check no kernel vector with these free coordinates exists
    and None is returned.
    """
    square, upper, backward, stop_bits = system
    p, col = ech.p, ech.col
    K = len(col)
    # the right-hand side of free coordinate 1
    r = [-rows[i].get(free, 0) for i in ech.source]
    solution, modulus, step = [0] * K, 1, 0
    while True:
        w = [0] * K
        for k, (js, fs) in enumerate(ech.lower):
            w[k] = (r[k] - sum(map(mul, fs, map(w.__getitem__, js)))) * ech.inv[k] % p
        y = [0] * K
        for k in backward:
            js, us = upper[k]
            y[k] = (w[k] - sum(map(mul, us, map(y.__getitem__, js)))) % p
        r = [
            (rk - sum(map(mul, vals, map(y.__getitem__, idx)))) // p
            for rk, (idx, vals) in zip(r, square)
        ]
        solution = [a + b * modulus for a, b in zip(solution, y)]
        modulus *= p
        step += 1
        final = modulus.bit_length() > stop_bits  # modulus is odd, so > 2 H^2
        if final or step % _RECONSTRUCT_EVERY == 0:
            found = _reconstruct(solution, modulus)
            if found is not None:
                x = [0] * ncols
                for c, a in zip(col, found[0]):
                    x[c] = a
                x[free] = found[1]
                if all(sum(a * x[c] for c, a in row.items()) == 0 for row in rows):
                    return x
            if final:
                return None


def _kernel(rows, ncols, ech=None):
    """A basis of the right kernel over Q of sparse integer rows, certified.

    One integer vector per free column of the elimination modulo a prime,
    in ascending order of that column, which is the vector's last nonzero
    entry; the vector is 0 in every other free column. A prime is kept
    when `_lift` returns each vector and no vector has an entry in a pivot
    column right of its free column. Then:
    - the vectors kill every row exactly and are independent, so the rank
      over Q is at most the number of pivots, which bounds it from below;
    - each free column is a combination of the columns left of it, so the
      pivot columns modulo the prime are the leftmost pivot columns over
      Q, and each vector is, up to scale, the one a fraction-free
      elimination over Q back-substitutes for its free column.
    Any other prime is retried with the next prime below it, found by
    trial division. A prime that misses the pivot columns over Q divides
    every maximal minor on those columns, each bounded by Hadamard's
    inequality through the largest row norms, so a correct program never
    tries primes whose product exceeds that bound. ech, if given, is the
    complete elimination of rows modulo _PRIME.
    """
    bound = sum(sorted(map(_norm_bits, rows), reverse=True)[:ncols])
    p, tried = _PRIME, 1
    while True:
        if ech is None:
            ech = _EchelonModP(rows, ncols, p, ncols)
        free_cols = [c for c in range(ncols) if c not in ech.lead]
        system = _pivot_system(rows, ech) if free_cols else None
        kernel = []
        for free in free_cols:
            x = _lift(rows, ncols, ech, system, free)
            if x is None or any(x[c] for c in ech.col if c > free):
                break
            kernel.append(x)
        else:
            return kernel
        tried *= p
        if tried.bit_length() > bound + 1:
            raise AssoformError(f"no prime certified a kernel of {len(rows)}x{ncols} rows")
        p, ech = _prev_prime(p), None


def kernel_line(rows, ncols):
    """A nonzero integer vector spanning the right kernel of integer rows.

    rows are sparse, dicts from column to int. The kernel must be one line
    over Q, as the socle of a Gorenstein algebra is; otherwise
    DegenerateSocleError reports its dimension. The vector is the one
    `_kernel` certifies, so it kills every row exactly.
    """
    kernel = _kernel(rows, ncols)
    if len(kernel) != 1:
        raise DegenerateSocleError(f"socle has dimension {len(kernel)}, expected 1")
    return kernel[0]


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

    def _gauss_jordan(self):
        """(det, rows of the inverse), the rows None when the matrix is singular.

        One Gauss-Jordan elimination over Q of the matrix beside the
        identity, pivoting on the first nonzero entry of each column.
        """
        if self.nrows != self.ncols:
            raise ValueError("matrix is not square")
        n = self.nrows
        m = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(self.entries)]
        det = Fraction(1)
        for c in range(n):
            pr = next((i for i in range(c, n) if m[i][c] != 0), None)
            if pr is None:
                return Fraction(0), None
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                det = -det
            pivot = m[c][c]
            det *= pivot
            m[c] = [v / pivot if v else v for v in m[c]]
            for i in range(n):
                if i != c and m[i][c]:
                    factor = m[i][c]
                    m[i] = [a - factor * b if b else a for a, b in zip(m[i], m[c])]
        return det, [row[n:] for row in m]

    def det(self):
        return self._gauss_jordan()[0]

    def inverse(self):
        rows = self._gauss_jordan()[1]
        if rows is None:
            raise SingularMatrixError("matrix is singular")
        return MatrixQ(rows)
