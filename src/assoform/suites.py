"""Randomized verification suites behind the command-line `verify` command.

Each suite generator draws one case from a seeded PRNG and evaluates it
before the next one is drawn; evaluation never touches the PRNG, so a
given seed always produces a byte-identical report. A draw is rejected,
and redrawn, when the case's own computation raises the degenerate-input
error named at its `draw` call; any other error propagates.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .duality import (
    Family,
    FamilyPoint,
    InvolutionStatus,
    orbit_duality_check,
    proportional,
    scan_point,
)
from .errors import (
    DegenerateFamilyError,
    DegenerateQuinticError,
    ExcludedParameterError,
    FiniteColengthError,
    InputError,
    NondegeneracyError,
)
from .invariants import (
    SylvesterQuintic,
    TernaryCubicFamily,
    verify_cubic_identity,
    verify_quartic_identity,
    verify_quintic_identity,
    verify_quintic_relation,
)
from .milnor import (
    PolyTuple,
    associated_form,
    associated_form_tuple,
    hilbert_function,
)
from .apolarity import apolar_tuple, inverse_system_check, same_span
from .poly import ActionKind, Poly, Space, act, render_poly
from .sampling import (
    COEFF_POOL,
    draw,
    random_form,
    random_invertible_matrix,
    random_linear_frame,
    random_tuple,
    random_unimodular_matrix,
)

SUITE_NAMES = (
    "quartic",
    "quintic",
    "cubic",
    "involution",
    "equivariance",
    "apolarity",
    "hilbert",
)


def _render_matrix(m):
    return "[" + "; ".join(
        " ".join(str(m[i, j]) for j in range(m.ncols)) for i in range(m.nrows)
    ) + "]"


def _render_tuple(ft):
    return "; ".join(render_poly(f) for f in ft.forms)


def _gen_quartic(rng, count):
    for _ in range(count):
        f, passed = draw(
            rng, lambda r: random_form(r, 2, 4), verify_quartic_identity, NondegeneracyError
        )
        yield render_poly(f), passed


def _coefficients(rng, k):
    return [Fraction(rng.choice(COEFF_POOL)) for _ in range(k)]


def _gen_cubic(rng, count):
    for _ in range(count):
        p, passed = draw(
            rng,
            lambda r: TernaryCubicFamily(*_coefficients(r, 4)),
            verify_cubic_identity,
            DegenerateFamilyError,
        )
        yield render_poly(p.to_poly()), passed


def _sylvester_quintic(rng):
    x, y = random_linear_frame(rng)
    return SylvesterQuintic(*_coefficients(rng, 3), x, y)


def _gen_quintic(rng, count):
    for _ in range(count):
        # the identity comes first: it is the check that rejects a degenerate draw
        s, passed = draw(
            rng,
            _sylvester_quintic,
            lambda s: verify_quintic_identity(s) and verify_quintic_relation(s),
            DegenerateQuinticError,
        )
        desc = f"a={s.a} b={s.b} c={s.c} X={render_poly(s.X)} Y={render_poly(s.Y)}"
        yield desc, passed


def _family_point_case(point):
    row = scan_point(point)
    if row["dual_t"] is None:
        return row["involution"] is InvolutionStatus.IMAGE_DEGENERATE
    return row["involution"] is InvolutionStatus.FIXED and row["j_transform"]


def _gen_family_points(rng, count):
    for k in range(count):
        family = Family.BINARY_QUARTIC if k % 2 == 0 else Family.TERNARY_CUBIC
        point, passed = draw(
            rng,
            lambda r: FamilyPoint(family, Fraction(r.randint(-9, 9), r.randint(1, 3))),
            _family_point_case,
            ExcludedParameterError,
        )
        yield f"{family.value} t={point.t}", passed
        # every few parameters, also check the orbit form of the duality
        if k % 5 == 0 and point.t != 0 and point.t not in (6, -6):
            n = 2 if family is Family.BINARY_QUARTIC else 3
            C = random_unimodular_matrix(rng, n)
            yield (
                f"{family.value} t={point.t} orbit C={_render_matrix(C)}",
                orbit_duality_check(point, C),
            )


def _phi_equivariant(f, af, C):
    lhs = associated_form(act(C, f, ActionKind.ON_FORMS)).form
    rhs = C.det() ** 2 * act(C, af.form, ActionKind.ON_DUAL_FORMS)
    return lhs == rhs


def _psi_equivariant(ft, af, C1, C2):
    n = ft.nvars
    moved = [act(C1, f, ActionKind.ON_FORMS) for f in ft.forms]
    c2inv = C2.inverse()
    mixed = PolyTuple(
        [
            sum((moved[i] * c2inv[i, j] for i in range(n)), Poly.zero(n, Space.Z))
            for j in range(n)
        ]
    )
    lhs = associated_form_tuple(mixed).form
    rhs = C1.det() * C2.det() * act(C1, af.form, ActionKind.ON_DUAL_FORMS)
    return lhs == rhs


def _gen_equivariance(rng, count):
    shapes = ((2, 4), (2, 5), (3, 3), (3, 4))
    for _ in range(count):
        n, d = rng.choice(shapes)
        f, af = draw(rng, lambda r: random_form(r, n, d), associated_form, NondegeneracyError)
        C = random_invertible_matrix(rng, n)
        desc = f"n={n} d={d} f={render_poly(f)} C={_render_matrix(C)}"
        yield desc, _phi_equivariant(f, af, C)
    for _ in range(count // 2):
        n = rng.choice((2, 3))
        dd = rng.choice((2, 3))
        ft, af = draw(
            rng, lambda r: random_tuple(r, n, dd), associated_form_tuple, FiniteColengthError
        )
        C1 = random_invertible_matrix(rng, n)
        C2 = random_invertible_matrix(rng, n)
        desc = (
            f"tuple n={n} deg={dd} f=({_render_tuple(ft)}) "
            f"C1={_render_matrix(C1)} C2={_render_matrix(C2)}"
        )
        yield desc, _psi_equivariant(ft, af, C1, C2)


def _apolarity_case(ft, af, d):
    if not inverse_system_check(ft, af.form):
        return False
    recovered = apolar_tuple(af.form, d)
    if not isinstance(recovered, PolyTuple):
        return False
    if not same_span(list(recovered.forms), list(ft.forms)):
        return False
    # associated_form_tuple raises FiniteColengthError unless the recovered
    # slice has finite colength, so a result here also shows af.form is in U
    return proportional(associated_form_tuple(recovered).form, af.form)


def _gen_apolarity(rng, count):
    for _ in range(count):
        n = rng.choice((2, 3))
        d = rng.choice((3, 4)) if n == 2 else 3
        # only the draw's own associated form may reject it; a FiniteColengthError
        # from the recovered tuple inside the case is a failure and propagates
        ft, af = draw(
            rng, lambda r: random_tuple(r, n, d - 1), associated_form_tuple, FiniteColengthError
        )
        yield f"n={n} d={d} f=({_render_tuple(ft)})", _apolarity_case(ft, af, d)


def _expected_hilbert(n, dd):
    # coefficients of (1 + x + ... + x^(dd-1))^n
    coeffs = [1]
    block = [1] * dd
    for _ in range(n):
        out = [0] * (len(coeffs) + dd - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(block):
                out[i + j] += a * b
        coeffs = out
    return coeffs


def _gen_hilbert(rng, count):
    shapes = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))
    for _ in range(count):
        n, dd = rng.choice(shapes)
        ft, h = draw(
            rng, lambda r: random_tuple(r, n, dd), hilbert_function, FiniteColengthError
        )
        yield f"n={n} deg={dd} f=({_render_tuple(ft)})", h == _expected_hilbert(n, dd)


_GENERATORS = {
    "quartic": _gen_quartic,
    "quintic": _gen_quintic,
    "cubic": _gen_cubic,
    "involution": _gen_family_points,
    "equivariance": _gen_equivariance,
    "apolarity": _gen_apolarity,
    "hilbert": _gen_hilbert,
}


def run_suite(suite, seed, count):
    """Generate and evaluate one suite; the result dict is seed-deterministic."""
    if suite not in _GENERATORS:
        raise InputError(
            f"unknown suite {suite!r}; choose one of {', '.join(SUITE_NAMES)}"
        )
    if count < 1:
        raise InputError("count must be positive")
    cases = _GENERATORS[suite](random.Random(seed), count)
    records = [
        {"index": i, "case": desc, "pass": passed}
        for i, (desc, passed) in enumerate(cases)
    ]
    failures = [r["case"] for r in records if not r["pass"]]
    return {
        "suite": suite,
        "seed": seed,
        "count": count,
        "cases": records,
        "failures": failures,
        "pass": not failures,
    }
