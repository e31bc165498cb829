"""Canonical one-parameter families and the associated-form involution.

The two families, quartics z1^4 + t z1^2z2^2 + z2^4 and cubics
z1^3 + z2^3 + z3^3 + t z1z2z3, are the settings where taking the
associated form is an involution on projective classes: applying it twice
returns to the line of the original form whenever the first image is
itself nondegenerate. On the absolute-invariant side the involution
induces an explicit Mobius transformation of the J-line, and on orbits it
exchanges the parameter t with -12/t (quartics) or -18/t (cubics) up to
inverse-transpose conjugation.

`scan_point` evaluates one family member: Phi(f), Phi(Phi(f)) and J(f)
once each, and J(Phi(f)) where the dual parameter is defined. Both the
`duality-scan` command and the `involution` verify suite read its row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import AssoformError, ExcludedParameterError, InputError, NondegeneracyError
from .invariants import INVARIANTS
from .milnor import associated_form
from .poly import ActionKind, Poly, Space, act


class Family(enum.Enum):
    BINARY_QUARTIC = "quartic"
    TERNARY_CUBIC = "cubic"


class InvolutionStatus(enum.Enum):
    FIXED = "fixed"
    IMAGE_DEGENERATE = "image_degenerate"


class Infinity:
    """The point at infinity of the projective J-line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinity"


INFINITY = Infinity()


@dataclass(frozen=True)
class FamilyPoint:
    """A member of one of the canonical families, with its parameter."""

    family: Family
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "t", Fraction(self.t))
        if self.family is Family.BINARY_QUARTIC and self.t in (2, -2):
            raise ExcludedParameterError("quartic family excludes t = 2 and t = -2")
        if self.family is Family.TERNARY_CUBIC and self.t == -3:
            raise ExcludedParameterError("cubic family excludes t with t^3 = -27")


def family_form(p):
    """The literal family member as a source-space polynomial.

    >>> family_form(FamilyPoint(Family.BINARY_QUARTIC, 0))
    Poly(2, 'z', 'z1^4 + z2^4')
    """
    if p.family is Family.BINARY_QUARTIC:
        return Poly(2, Space.Z, {(4, 0): 1, (2, 2): p.t, (0, 4): 1})
    return Poly(
        3, Space.Z, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): p.t}
    )


def proportional(f, g):
    """Whether two forms span the same line (zero pairs only with zero)."""
    if f.nvars != g.nvars or f.space != g.space:
        raise InputError("forms live in different rings")
    if not f or not g:
        return not f and not g
    mf, cf = f.lead()
    mg, cg = g.lead()
    return mf == mg and f * cg == g * cf


def involution_check(f):
    """Classify one application of the associated form on a nondegenerate form.

    FIXED when the twice-iterated associated form lands back on the line of
    f; IMAGE_DEGENERATE when the first image has a vanishing discriminant,
    so the second step is undefined.
    """
    return _involution(f, associated_form(f).form)


def _involution(f, F):
    """involution_check(f), given the associated form F of f."""
    first = F.retag(Space.Z)
    try:
        second = associated_form(first).form.retag(Space.Z)
    except NondegeneracyError:
        return InvolutionStatus.IMAGE_DEGENERATE
    if not proportional(second, f):
        raise AssoformError("iterated associated form left the line of the input")
    return InvolutionStatus.FIXED


def dual_parameter(p):
    if p.t == 0:
        raise ExcludedParameterError("duality needs t != 0")
    if p.family is Family.BINARY_QUARTIC:
        if p.t in (6, -6):
            raise ExcludedParameterError(
                "quartic duality excludes t = 6 and t = -6 (degenerate image)"
            )
        return Fraction(-12) / p.t
    if p.t == 6:
        raise ExcludedParameterError("cubic duality excludes t with t^3 = 216")
    return Fraction(-18) / p.t


def orbit_duality_check(p, C):
    """Whether the associated form maps the orbit of t to the dual orbit.

    For det-1 C the associated form of C acting on the family member must
    be proportional to C^-T acting on the partner member with parameter
    -12/t (quartics) or -18/t (cubics).
    """
    if C.det() != 1:
        raise InputError("orbit duality is stated for determinant-one matrices")
    partner = FamilyPoint(p.family, dual_parameter(p))
    f = family_form(p)
    g = family_form(partner)
    lhs = associated_form(act(C, f, ActionKind.ON_FORMS)).form.retag(Space.Z)
    rhs = act(C.inverse().transpose(), g, ActionKind.ON_FORMS)
    return proportional(lhs, rhs)


def j_transform_check(p):
    """Whether J of the associated form is the `mobius` image of J of the member.

    Parameters where the Mobius image escapes to infinity are excluded
    (the image form is degenerate exactly there).
    """
    dual_parameter(p)  # same exclusions, same error reporting
    return scan_point(p)["j_transform"]


def scan_point(p):
    """One family member's row of a duality scan.

    The keys are t, J, mobius_image, involution (an InvolutionStatus),
    dual_t (None where dual_parameter excludes t) and j_transform (None
    there too, else whether J(Phi(f)) is the Mobius image of J(f)).
    J reads binary forms as quartics and ternary forms as cubics, like
    `assoform invariant j`. The Mobius image is infinite only where the
    dual parameter is undefined, so j_transform compares two rationals.
    """
    f = family_form(p)
    F = associated_form(f).form
    status = _involution(f, F)
    j = INVARIANTS["j"](f)
    image = mobius(p.family, j)
    try:
        dual_t = dual_parameter(p)
    except ExcludedParameterError:
        dual_t = None
    return {
        "t": p.t,
        "J": j,
        "mobius_image": image,
        "involution": status,
        "dual_t": dual_t,
        "j_transform": None if dual_t is None else INVARIANTS["j"](F) == image,
    }


def mobius(family, zeta):
    """The involution induced on the projective J-line by the associated form.

    Quartics: zeta -> zeta/(zeta - 1), fixing infinity's partner 1.
    Cubics: zeta -> 1/zeta, exchanging 0 with infinity.
    """
    family = Family(family)
    if family is Family.BINARY_QUARTIC:
        if zeta is INFINITY:
            return Fraction(1)
        zeta = Fraction(zeta)
        if zeta == 1:
            return INFINITY
        return zeta / (zeta - 1)
    if zeta is INFINITY:
        return Fraction(0)
    zeta = Fraction(zeta)
    if zeta == 0:
        return INFINITY
    return 1 / zeta
