"""Seeded random generators for forms, tuples, matrices, and frames.

Coefficients are drawn uniformly from {-5,...,5} minus {0} so exact
arithmetic stays cheap. Matrix entries and shear factors lie in -3..3,
and a unimodular matrix is a product of at most 4 shears. A draw is
rejected by `draw` when the computation that consumes it raises its own
degenerate-input error (a singular matrix, a degenerate form, a tuple of
infinite colength); each rejection logs one line with that error's
message, and a draw gives up after _MAX_REJECTIONS.
"""

from __future__ import annotations

import logging
from fractions import Fraction

from .errors import RejectionSamplingError, SingularMatrixError
from .linalg import MatrixQ
from .milnor import PolyTuple
from .poly import Poly, Space, monomial_basis

logger = logging.getLogger("assoform.sampling")

COEFF_POOL = tuple(k for k in range(-5, 6) if k != 0)

_MAX_REJECTIONS = 1000
_BOUND = 3
_SHEARS = 4


def random_form(rng, nvars, degree):
    """Dense z-space form with every coefficient drawn from the nonzero pool."""
    return Poly(
        nvars,
        Space.Z,
        {m: Fraction(rng.choice(COEFF_POOL)) for m in monomial_basis(nvars, degree)},
    )


def draw(rng, make, evaluate, reject):
    """Return (x, evaluate(x)) for the first x = make(rng) that is not rejected.

    A draw is rejected when make or evaluate raises `reject`; each rejection
    logs one line with the error's message, and the draw gives up with
    RejectionSamplingError after the cap. Any other exception propagates.
    """
    for _ in range(_MAX_REJECTIONS):
        try:
            x = make(rng)
            return x, evaluate(x)
        except reject as exc:
            logger.info("rejected draw: %s", exc)
    raise RejectionSamplingError(
        f"rejection sampling gave up after {_MAX_REJECTIONS} draws ({reject.__name__})"
    )


def random_tuple(rng, nvars, degree):
    """Tuple of nvars random forms of the given degree, with no check."""
    return PolyTuple([random_form(rng, nvars, degree) for _ in range(nvars)])


def random_invertible_matrix(rng, n):
    m, _ = draw(
        rng,
        lambda r: MatrixQ(
            [[Fraction(r.randint(-_BOUND, _BOUND)) for _ in range(n)] for _ in range(n)]
        ),
        MatrixQ.inverse,
        SingularMatrixError,
    )
    return m


def random_unimodular_matrix(rng, n):
    """Product of elementary shears; determinant is exactly one."""
    m = MatrixQ.identity(n)
    for _ in range(_SHEARS):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        rows = [
            [
                Fraction(1 if r == c else 0)
                + (Fraction(rng.randint(-_BOUND, _BOUND)) if (r, c) == (i, j) else 0)
                for c in range(n)
            ]
            for r in range(n)
        ]
        m = m @ MatrixQ(rows)
    return m


def random_linear_frame(rng):
    """Pair of binary linear forms with a nonzero coefficient determinant."""
    m = random_invertible_matrix(rng, 2)
    return tuple(Poly(2, Space.Z, {(1, 0): m[i, 0], (0, 1): m[i, 1]}) for i in range(2))
