"""Acceptance suite: ten end-to-end checks with runtime caps.

Every check uses exact rational arithmetic, so every comparison is literal
equality; each test prints a single pass/fail line with its elapsed time.
"""

import math
import random
import time
from fractions import Fraction

from assoform.apolarity import in_U
from assoform.duality import (
    INFINITY,
    Family,
    InvolutionStatus,
    involution_check,
    mobius,
)
from assoform.errors import NondegeneracyError
from assoform.invariants import (
    SylvesterQuintic,
    TernaryCubicFamily,
    catalecticant,
    delta_cubic_family,
    j_cubic_family,
    j_quartic,
    k_cubic,
    k_quartic,
    quintic_covariants,
    verify_cubic_identity,
    verify_quartic_identity,
    verify_quintic_identity,
    verify_quintic_relation,
)
from assoform.milnor import associated_form
from assoform.poly import Poly, Space
from assoform.sampling import COEFF_POOL, draw, random_form, random_linear_frame
from assoform.suites import run_suite


def _finish(num, label, ok, elapsed, cap):
    verdict = "PASS" if ok and elapsed < cap else "FAIL"
    print(f"acceptance {num:02d} {label}: {verdict} ({elapsed:.2f}s, cap {cap}s)")
    assert ok, label
    assert elapsed < cap, f"{label} exceeded {cap}s at {elapsed:.2f}s"


def _quartic(t):
    return Poly(2, Space.Z, {(4, 0): 1, (2, 2): Fraction(t), (0, 4): 1})


def _cubic(t):
    return Poly(
        3,
        Space.Z,
        {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): Fraction(t)},
    )


QUARTIC_TS = [Fraction(k) for k in range(-12, 13) if abs(k) != 2][:23] + [
    Fraction(1, 2),
    Fraction(-7, 3),
]
CUBIC_TS = [Fraction(k) for k in range(-12, 13) if k != -3][:23] + [
    Fraction(1, 2),
    Fraction(-7, 3),
]
assert len(QUARTIC_TS) == 25 and len(CUBIC_TS) == 25


def test_01_diagonal_form_reproduction():
    start = time.monotonic()
    rng = random.Random(101)
    ok = True
    for n, d in ((2, 4), (2, 5), (3, 3), (3, 4), (4, 3)):
        for _ in range(3):
            a = [
                Fraction(rng.choice(COEFF_POOL), rng.randint(1, 3)) for _ in range(n)
            ]
            f = Poly(
                n,
                Space.Z,
                {
                    tuple(d if j == i else 0 for j in range(n)): a[i]
                    for i in range(n)
                },
            )
            prod = math.prod(a)
            nu = n * (d - 2)
            coeff = Fraction(math.factorial(nu), math.factorial(d) ** n) / prod
            expected = Poly(n, Space.E, {(d - 2,) * n: coeff})
            ok = ok and associated_form(f).form == expected
    _finish(1, "diagonal-form reproduction", ok, time.monotonic() - start, 5)


def test_02_family_closed_forms():
    start = time.monotonic()
    ok = True
    for t in QUARTIC_TS:
        s = Fraction(1, 72) / (t * t - 4)
        expected = Poly(
            2, Space.E, {(4, 0): s * t, (2, 2): -12 * s, (0, 4): s * t}
        )
        ok = ok and associated_form(_quartic(t)).form == expected
    for t in CUBIC_TS:
        s = Fraction(-1, 24) / (t**3 + 27)
        expected = Poly(
            3,
            Space.E,
            {
                (3, 0, 0): s * t,
                (0, 3, 0): s * t,
                (0, 0, 3): s * t,
                (1, 1, 1): -18 * s,
            },
        )
        ok = ok and associated_form(_cubic(t)).form == expected
    _finish(2, "family closed forms", ok, time.monotonic() - start, 5)


def test_03_absolute_invariant_formulas():
    start = time.monotonic()
    ok = True
    for t in QUARTIC_TS:
        expected = (t * t + 12) ** 3 / (108 * (t * t - 4) ** 2)
        ok = ok and j_quartic(_quartic(t)) == expected
    for t in CUBIC_TS:
        expected = -(t**3) * (t**3 - 216) ** 3 / (1728 * (t**3 + 27) ** 3)
        ok = ok and j_cubic_family(TernaryCubicFamily.from_poly(_cubic(t))) == expected
    ok = ok and j_quartic(_quartic(0)) == 1
    ok = ok and j_cubic_family(TernaryCubicFamily.from_poly(_cubic(0))) == 0
    _finish(3, "J formulas on both families", ok, time.monotonic() - start, 2)


def test_04_k_matches_j_through_the_associated_form():
    start = time.monotonic()
    ok = True
    for t in QUARTIC_TS:
        f = _quartic(t)
        ok = ok and k_quartic(associated_form(f).form) == j_quartic(f)
    for t in CUBIC_TS:
        f = _cubic(t)
        expected = j_cubic_family(TernaryCubicFamily.from_poly(f))
        ok = ok and k_cubic(associated_form(f).form) == expected
    _finish(4, "K of the image equals J", ok, time.monotonic() - start, 2)


def test_05_contravariant_identities():
    start = time.monotonic()
    rng = random.Random(505)
    ok = True
    for _ in range(50):
        _, passed = draw(
            rng, lambda r: random_form(r, 2, 4), verify_quartic_identity, NondegeneracyError
        )
        ok = ok and passed
    done = 0
    while done < 50:
        p = TernaryCubicFamily(
            Fraction(rng.choice(COEFF_POOL)),
            Fraction(rng.choice(COEFF_POOL)),
            Fraction(rng.choice(COEFF_POOL)),
            Fraction(rng.choice(COEFF_POOL)),
        )
        if delta_cubic_family(p) == 0:
            continue
        done += 1
        ok = ok and verify_cubic_identity(p)
    done = 0
    while done < 20:
        x, y = random_linear_frame(rng)
        s = SylvesterQuintic(
            Fraction(rng.choice(COEFF_POOL)),
            Fraction(rng.choice(COEFF_POOL)),
            Fraction(rng.choice(COEFF_POOL)),
            x,
            y,
        )
        if quintic_covariants(s).delta == 0:
            continue
        done += 1
        ok = ok and verify_quintic_relation(s) and verify_quintic_identity(s)
    _finish(5, "contravariant identities", ok, time.monotonic() - start, 60)


def test_06_equivariance_suite():
    start = time.monotonic()
    result = run_suite("equivariance", 2024, 100)
    ok = result["pass"] and len(result["cases"]) == 150
    _finish(6, "equivariance (100 single + 50 tuple)", ok, time.monotonic() - start, 60)


def test_07_inverse_system_suite():
    start = time.monotonic()
    result = run_suite("apolarity", 707, 50)
    ok = result["pass"] and len(result["cases"]) == 50
    _finish(7, "inverse systems and round trips", ok, time.monotonic() - start, 60)


def test_08_binary_catalecticant_criterion():
    start = time.monotonic()
    rng = random.Random(808)
    ok = True
    for _ in range(50):
        d = rng.choice((4, 5, 6))
        F = random_form(rng, 2, 2 * (d - 2)).retag(Space.E)
        ok = ok and in_U(F, d) == (catalecticant(F) != 0)
    # spot checks with vanishing catalecticant
    for d, F in (
        (4, Poly(2, Space.E, {(4, 0): 1})),
        (5, Poly(2, Space.E, {(6, 0): 1, (5, 1): 2})),
    ):
        ok = ok and catalecticant(F) == 0 and in_U(F, d) is False
    _finish(8, "catalecticant membership criterion", ok, time.monotonic() - start, 30)


def test_09_involution_and_mobius():
    start = time.monotonic()
    ok = True
    quartic_grid = [Fraction(k) for k in range(-8, 9) if abs(k) != 2]
    quartic_grid += [Fraction(1, 2), Fraction(-12, 5), Fraction(13, 2)]
    for t in quartic_grid:
        status = involution_check(_quartic(t))
        expected = (
            InvolutionStatus.IMAGE_DEGENERATE
            if t in (0, 6, -6)
            else InvolutionStatus.FIXED
        )
        ok = ok and status is expected
    cubic_grid = [Fraction(k) for k in range(-5, 9) if k != -3]
    cubic_grid += [Fraction(1, 3), Fraction(-9, 2)]
    for t in cubic_grid:
        status = involution_check(_cubic(t))
        expected = (
            InvolutionStatus.IMAGE_DEGENERATE
            if t in (0, 6)
            else InvolutionStatus.FIXED
        )
        ok = ok and status is expected
    q, c = Family.BINARY_QUARTIC, Family.TERNARY_CUBIC
    ok = ok and mobius(q, 1) is INFINITY and mobius(q, INFINITY) == 1
    ok = ok and mobius(c, 0) is INFINITY and mobius(c, INFINITY) == 0
    for z in (0, 2, -1, Fraction(7, 5)):
        ok = ok and mobius(q, mobius(q, z)) == z
    for z in (1, -1, 3, Fraction(-2, 9)):
        ok = ok and mobius(c, mobius(c, z)) == z
    _finish(9, "involution and Mobius structure", ok, time.monotonic() - start, 10)


def test_10_hilbert_functions():
    start = time.monotonic()
    result = run_suite("hilbert", 1010, 20)
    ok = result["pass"] and len(result["cases"]) == 20
    _finish(10, "Hilbert functions match the series", ok, time.monotonic() - start, 30)
