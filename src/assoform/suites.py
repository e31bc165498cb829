"""Randomized verification suites behind the command-line `verify` command.

Each suite generator draws one case from a seeded PRNG and evaluates it
before the next one is drawn; evaluation never touches the PRNG, so a
given seed always produces a byte-identical report.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .duality import (
    Family,
    FamilyPoint,
    InvolutionStatus,
    dual_parameter,
    family_form,
    involution_check,
    j_transform_check,
    orbit_duality_check,
    proportional,
)
from .errors import ExcludedParameterError, InputError
from .invariants import (
    SylvesterQuintic,
    TernaryCubicFamily,
    delta_cubic_family,
    quintic_covariants,
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
    random_finite_colength_tuple,
    random_invertible_matrix,
    random_linear_frame,
    random_nondegenerate_form,
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
        f = random_nondegenerate_form(rng, 2, 4)
        yield render_poly(f), verify_quartic_identity(f)


def _coefficients(rng, k):
    return [Fraction(rng.choice(COEFF_POOL)) for _ in range(k)]


def _gen_cubic(rng, count):
    for _ in range(count):
        p = draw(
            rng,
            lambda r: TernaryCubicFamily(*_coefficients(r, 4)),
            lambda p: delta_cubic_family(p) != 0,
            "a cubic with nonzero discriminant",
        )
        yield render_poly(p.to_poly()), verify_cubic_identity(p)


def _sylvester_quintic(rng):
    x, y = random_linear_frame(rng)
    return SylvesterQuintic(*_coefficients(rng, 3), x, y)


def _gen_quintic(rng, count):
    for _ in range(count):
        s = draw(
            rng,
            _sylvester_quintic,
            lambda s: quintic_covariants(s).delta != 0,
            "a quintic with nonzero discriminant",
        )
        desc = f"a={s.a} b={s.b} c={s.c} X={render_poly(s.X)} Y={render_poly(s.Y)}"
        yield desc, verify_quintic_relation(s) and verify_quintic_identity(s)


def _involution_case(point):
    status = involution_check(family_form(point))
    try:
        dual_parameter(point)
    except ExcludedParameterError:
        return status is InvolutionStatus.IMAGE_DEGENERATE
    return status is InvolutionStatus.FIXED and j_transform_check(point)


def _family_point(family, t):
    try:
        return FamilyPoint(family, t)
    except InputError:
        return None


def _gen_involution(rng, count):
    for k in range(count):
        family = Family.BINARY_QUARTIC if k % 2 == 0 else Family.TERNARY_CUBIC
        point = draw(
            rng,
            lambda r: _family_point(family, Fraction(r.randint(-9, 9), r.randint(1, 3))),
            lambda p: p is not None,
            f"an admissible {family.value} parameter",
        )
        yield f"{family.value} t={point.t}", _involution_case(point)
        # every few parameters, also check the orbit form of the duality
        if k % 5 == 0 and point.t != 0 and point.t not in (6, -6):
            n = 2 if family is Family.BINARY_QUARTIC else 3
            C = random_unimodular_matrix(rng, n)
            yield (
                f"{family.value} t={point.t} orbit C={_render_matrix(C)}",
                orbit_duality_check(point, C),
            )


def _phi_equivariant(f, C):
    lhs = associated_form(act(C, f, ActionKind.ON_FORMS)).form
    rhs = C.det() ** 2 * act(C, associated_form(f).form, ActionKind.ON_DUAL_FORMS)
    return lhs == rhs


def _psi_equivariant(ft, C1, C2):
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
    rhs = (
        C1.det()
        * C2.det()
        * act(C1, associated_form_tuple(ft).form, ActionKind.ON_DUAL_FORMS)
    )
    return lhs == rhs


def _gen_equivariance(rng, count):
    shapes = ((2, 4), (2, 5), (3, 3), (3, 4))
    for _ in range(count):
        n, d = rng.choice(shapes)
        f = random_nondegenerate_form(rng, n, d)
        C = random_invertible_matrix(rng, n)
        desc = f"n={n} d={d} f={render_poly(f)} C={_render_matrix(C)}"
        yield desc, _phi_equivariant(f, C)
    for _ in range(count // 2):
        n = rng.choice((2, 3))
        dd = rng.choice((2, 3))
        ft = random_finite_colength_tuple(rng, n, dd)
        C1 = random_invertible_matrix(rng, n)
        C2 = random_invertible_matrix(rng, n)
        desc = (
            f"tuple n={n} deg={dd} f=({_render_tuple(ft)}) "
            f"C1={_render_matrix(C1)} C2={_render_matrix(C2)}"
        )
        yield desc, _psi_equivariant(ft, C1, C2)


def _apolarity_case(ft, d):
    af = associated_form_tuple(ft)
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
        ft = random_finite_colength_tuple(rng, n, d - 1)
        yield f"n={n} d={d} f=({_render_tuple(ft)})", _apolarity_case(ft, d)


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
        ft = random_finite_colength_tuple(rng, n, dd)
        yield (
            f"n={n} deg={dd} f=({_render_tuple(ft)})",
            hilbert_function(ft) == _expected_hilbert(n, dd),
        )


_GENERATORS = {
    "quartic": _gen_quartic,
    "quintic": _gen_quintic,
    "cubic": _gen_cubic,
    "involution": _gen_involution,
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
