"""Seeded random generators for forms, tuples, matrices, and frames.

Coefficients are drawn uniformly from {-5,...,5} minus {0} so exact
arithmetic stays cheap; draws that violate a requested property
(nondegeneracy, finite colength, invertibility) are rejected by `draw`,
which logs one line per rejection and gives up after _MAX_REJECTIONS.
"""

from __future__ import annotations

import logging
from fractions import Fraction

from .linalg import MatrixQ
from .milnor import PolyTuple, is_finite_colength, is_nondegenerate
from .poly import Poly, Space, monomial_basis

logger = logging.getLogger("assoform.sampling")

COEFF_POOL = tuple(k for k in range(-5, 6) if k != 0)

_MAX_REJECTIONS = 1000


def random_form(rng, nvars, degree, space=Space.Z):
    """Dense form with every coefficient drawn from the nonzero pool."""
    return Poly(
        nvars,
        space,
        {m: Fraction(rng.choice(COEFF_POOL)) for m in monomial_basis(nvars, degree)},
    )


def draw(rng, make, ok, what):
    """Call make(rng) until ok accepts; log each rejection, give up after the cap."""
    for _ in range(_MAX_REJECTIONS):
        x = make(rng)
        if ok(x):
            return x
        logger.info("rejected draw, wanted %s", what)
    raise RuntimeError(f"rejection sampling failed to find {what}")


def random_nondegenerate_form(rng, nvars, degree):
    return draw(
        rng,
        lambda r: random_form(r, nvars, degree),
        is_nondegenerate,
        "a nondegenerate form",
    )


def random_finite_colength_tuple(rng, nvars, degree):
    """Tuple of nvars random forms of the given degree with finite colength."""
    return draw(
        rng,
        lambda r: PolyTuple([random_form(r, nvars, degree) for _ in range(nvars)]),
        is_finite_colength,
        "a finite-colength tuple",
    )


def random_invertible_matrix(rng, n, bound=3):
    return draw(
        rng,
        lambda r: MatrixQ(
            [[Fraction(r.randint(-bound, bound)) for _ in range(n)] for _ in range(n)]
        ),
        lambda m: m.det() != 0,
        "an invertible matrix",
    )


def random_unimodular_matrix(rng, n, shears=4, bound=3):
    """Product of elementary shears; determinant is exactly one."""
    m = MatrixQ.identity(n)
    for _ in range(shears):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        rows = [
            [
                Fraction(1 if r == c else 0)
                + (Fraction(rng.randint(-bound, bound)) if (r, c) == (i, j) else 0)
                for c in range(n)
            ]
            for r in range(n)
        ]
        m = m @ MatrixQ(rows)
    return m


def random_linear_frame(rng, bound=3):
    """Pair of binary linear forms with a nonzero coefficient determinant."""
    a, b, c, d = draw(
        rng,
        lambda r: [Fraction(r.randint(-bound, bound)) for _ in range(4)],
        lambda e: e[0] * e[3] - e[1] * e[2] != 0,
        "an invertible linear frame",
    )
    return (
        Poly(2, Space.Z, {(1, 0): a, (0, 1): b}),
        Poly(2, Space.Z, {(1, 0): c, (0, 1): d}),
    )
