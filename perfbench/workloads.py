"""Seeded inputs for the benchmark workloads.

A workload is a stream of cycles. One cycle is a fixed mix of operations
(command, shape and input kind); every cycle draws fresh random inputs, so
shapes repeat across cycles while no input repeats inside a run. Inputs are
built here with small exact helpers of the benchmark's own, so the program
under test receives only command lines.

Random dense forms and tuples are kept only when a certificate proves them
nondegenerate: the Macaulay matrix of the ideal in the degree just above
the socle has full rank modulo a prime, which forces full rank over Q.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

POOL = tuple(k for k in range(-5, 6) if k)
CERT_PRIME = 32749

ASSOC_MIX = (
    # (n, d, dense forms, diagonal forms) per cycle. One cycle fills a run.
    # Thirteen dense (3,6) forms rank just below the five largest operations,
    # so the tail percentile (the 11th-largest time) falls in their middle;
    # diagonal (4,3) forms with dense (3,4) ones form a block around the
    # median. Both statistics then sit inside a block of like operations
    # rather than on the boundary between two shapes.
    (2, 6, 5, 5),
    (2, 8, 5, 5),
    (3, 4, 4, 4),
    (4, 3, 3, 15),
    (3, 5, 4, 2),
    (3, 6, 13, 2),
    (5, 3, 1, 1),
    (4, 4, 2, 1),
)
VERIFY_MIX = (
    # (suite, count): counts even out the cost of one op across suites
    ("quartic", 12),
    ("quintic", 5),
    ("cubic", 10),
    ("involution", 6),
    ("equivariance", 2),
    ("apolarity", 12),
    ("hilbert", 6),
)
INVERSE_SHAPES = ((2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (4, 3))

# Ceiling probe: diagonal assoc forms in order of Macaulay-matrix size, each
# given PROBE_LIMIT_S seconds. The first rung is a ladder shape far inside
# the limit, so the count of rungs passed is never 0 at the baseline; the
# later rungs are the sizes beyond the ladder.
PROBE_RUNGS = ((3, 6), (4, 5), (6, 3), (4, 6), (5, 4))
PROBE_LIMIT_S = 3.0

# Mixes small enough for the benchmark's own tests.
TINY = {
    "assoc": ((2, 4, 2, 1), (3, 3, 1, 1)),
    "verify": (("quartic", 1), ("hilbert", 1), ("apolarity", 1), ("equivariance", 1)),
    "inverse": ((2, 4), (3, 3)),
    "probe": ((2, 4), (3, 3)),
}


@dataclass(frozen=True)
class Op:
    """One CLI call, the exit code a correct program gives, and oracle data."""

    kind: str
    argv: tuple
    expect_code: int = 0
    n: int = 0
    d: int = 0
    poly: tuple = ()  # the input form as sorted (exponents, coefficient) pairs
    in_u: bool | None = None  # membership in U, where the construction fixes it
    digest: bool = False  # whether stdout is held to a recorded SHA-256


# --- exact polynomial helpers: dicts from exponent tuples to rationals ---


def monomials(n, d):
    """Exponent tuples of total degree d in n variables."""
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1) for rest in monomials(n - 1, d - e)]


def unit(n, i, e=1):
    """The exponent tuple of z_i^e."""
    return tuple(e if j == i else 0 for j in range(n))


def mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def power(f, k):
    out = {(0,) * len(next(iter(f))): 1}
    for _ in range(k):
        out = mul(out, f)
    return out


def add(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def partial(f, i):
    return {m[:i] + (m[i] - 1,) + m[i + 1 :]: c * m[i] for m, c in f.items() if m[i]}


def text(f, letter):
    """Polynomial text in the CLI grammar, highest exponents first."""
    pieces = []
    for m in sorted(f, reverse=True):
        c = Fraction(f[m])
        factors = "*".join(
            f"{letter}{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e
        )
        pieces.append((c < 0, f"{abs(c)}*{factors}"))
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


def det(rows):
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            result = -result
        result *= m[c][c]
        for i in range(c + 1, n):
            factor = m[i][c] / m[c][c]
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[c])]
    return result


def rank_mod_p(rows, p=CERT_PRIME):
    """Rank of an integer matrix modulo p, a lower bound on its rank over Q."""
    rows = [[v % p for v in r] for r in rows]
    rank = 0
    nrows = len(rows)
    for _ in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, nrows) if rows[i][0]), None)
        if piv is None:
            for i in range(rank, nrows):
                rows[i] = rows[i][1:]
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        head = rows[rank]
        inv = pow(head[0], p - 2, p)
        tail = [v * inv % p for v in head[1:]]
        for i in range(rank + 1, nrows):
            row = rows[i]
            f = row[0]
            rows[i] = [(a - f * b) % p for a, b in zip(row[1:], tail)] if f else row[1:]
        rank += 1
    return rank


def certified_finite_colength(forms, n, e):
    """True only if the integer tuple's ideal is full in degree n(e-1)+1."""
    k = n * (e - 1) + 1
    cols = {m: i for i, m in enumerate(monomials(n, k))}
    rows = []
    for shift in monomials(n, k - e):
        for f in forms:
            row = [0] * len(cols)
            for m, c in f.items():
                row[cols[tuple(a + b for a, b in zip(m, shift))]] = c
            rows.append(row)
    return rank_mod_p(rows) == len(cols)


def dense_form(rng, n, d):
    return {m: rng.choice(POOL) for m in monomials(n, d)}


def linear_form(rng, n):
    return {unit(n, i): rng.choice(POOL) for i in range(n)}


def nondegenerate_dense_form(rng, n, d):
    while True:
        f = dense_form(rng, n, d)
        if certified_finite_colength([partial(f, i) for i in range(n)], n, d - 1):
            return f


def finite_colength_tuple(rng, n, e):
    while True:
        forms = [dense_form(rng, n, e) for _ in range(n)]
        if certified_finite_colength(forms, n, e):
            return forms


def rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


# --- operations ---


def _assoc(kind, f, n, d):
    argv = ("assoc", text(f, "z"), "--n", str(n), "--d", str(d))
    return Op(kind, argv, 0, n, d, poly=tuple(sorted(f.items())), digest=True)


def assoc_dense(rng, n, d):
    return _assoc("assoc-dense", nondegenerate_dense_form(rng, n, d), n, d)


def assoc_diagonal(rng, n, d):
    return _assoc("assoc-diagonal", {unit(n, i, d): rational(rng) for i in range(n)}, n, d)


def verify_op(rng, suite, count):
    argv = ("verify", suite, "--seed", str(rng.randrange(1, 2**31)), "--count", str(count))
    return Op("verify", argv, digest=True)


def _inverse(F, n, d, in_u=None):
    kind = "inverse-binary" if n == 2 else "inverse-higher"
    argv = ("inverse-system", text(F, "e"), "--n", str(n), "--d", str(d))
    return Op(kind, argv, 0, n, d, poly=tuple(sorted(F.items())), in_u=in_u)


def _hilbert(forms, n, d, code):
    kind = "hilbert" if code == 0 else "hilbert-refused"
    return Op(kind, ("hilbert", *(text(f, "z") for f in forms)), code, n, d)


def inverse_dense(rng, n, d):
    """A generic dense dual form of degree n(d-2)."""
    return _inverse({m: rng.choice(POOL) for m in monomials(n, n * (d - 2))}, n, d)


def inverse_low_rank(rng, n, d):
    """A sum of n-1 powers of linear forms, which is never in U."""
    F = {}
    while not F:  # powers of opposite linear forms can cancel
        for _ in range(n - 1):
            F = add(F, power(linear_form(rng, n), n * (d - 2)))
    return _inverse(F, n, d, in_u=False)


def inverse_orbit(rng, n, d):
    """n independent linear forms multiplied and raised to d-2.

    This is the GL-orbit of the diagonal forms' associated form
    (e1...en)^(d-2), so it always lies in U.
    """
    while True:
        frame = [linear_form(rng, n) for _ in range(n)]
        if det([[l[unit(n, j)] for j in range(n)] for l in frame]):
            break
    product = frame[0]
    for l in frame[1:]:
        product = mul(product, l)
    return _inverse(power(product, d - 2), n, d, in_u=True)


def hilbert_tuple(rng, n, d):
    return _hilbert(finite_colength_tuple(rng, n, d - 1), n, d, 0)


def hilbert_common_factor(rng, n, d):
    """A tuple with a common linear factor, which the program must refuse."""
    common = linear_form(rng, n)
    return _hilbert([mul(common, dense_form(rng, n, d - 2)) for _ in range(n)], n, d, 2)


INVERSE_KINDS = (inverse_dense, inverse_low_rank, inverse_orbit, hilbert_tuple, hilbert_common_factor)


class Workload:
    """Operation source for one workload and seed.

    One generator serves warm-up, probe and every cycle of a run, and it
    redraws any command line it has produced before, so no input repeats
    inside a run.
    """

    def __init__(self, name, seed, tiny=False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.tiny = tiny
        self.seen = set()

    def _fresh(self, make, *args):
        while True:
            op = make(self.rng, *args)
            if op.argv not in self.seen:
                self.seen.add(op.argv)
                return op

    def cycle(self):
        ops = []
        if self.name == "assoc-ladder":
            for n, d, dense, diagonal in TINY["assoc"] if self.tiny else ASSOC_MIX:
                ops += [self._fresh(assoc_dense, n, d) for _ in range(dense)]
                ops += [self._fresh(assoc_diagonal, n, d) for _ in range(diagonal)]
        elif self.name == "verify-suites":
            for suite, count in TINY["verify"] if self.tiny else VERIFY_MIX:
                ops.append(self._fresh(verify_op, suite, count))
        else:
            for n, d in TINY["inverse"] if self.tiny else INVERSE_SHAPES:
                ops += [self._fresh(make, n, d) for make in INVERSE_KINDS]
        self.rng.shuffle(ops)
        return ops

    def warmup(self):
        """Small operations that touch each command path once.

        They are drawn from a generator of their own with a fixed seed, so
        set-up does the same work whatever the run's seed.
        """
        rng, self.rng = self.rng, random.Random(f"{self.name}:warm-up")
        try:
            if self.name == "assoc-ladder":
                return [self._fresh(assoc_dense, 2, 4), self._fresh(assoc_diagonal, 3, 3)]
            if self.name == "verify-suites":
                return [self._fresh(verify_op, suite, 1) for suite, _ in VERIFY_MIX]
            return [self._fresh(make, 2, 4) for make in INVERSE_KINDS]
        finally:
            self.rng = rng

    def probe(self):
        rungs = TINY["probe"] if self.tiny else PROBE_RUNGS
        return [self._fresh(assoc_diagonal, n, d) for n, d in rungs]


WORKLOADS = ("assoc-ladder", "verify-suites", "inverse-systems")
