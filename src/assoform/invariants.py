"""Classical invariants, covariants, and contravariants at small degree.

Covers binary quartics (catalecticant, I2, discriminant, absolute
invariants), ternary cubics on the diagonal-plus-mixed-term family
(Aronhold invariants, Pippian, Quippian), and binary quintics in
Sylvester canonical form (the covariants entering the degree-six
decomposition). The verify_* functions check, in exact arithmetic, that
the discriminant times the associated form decomposes over these
classical pieces.

Coefficient extraction is by exponent pattern only, so the same invariant
applies to source forms and to associated forms on the dual side; the
binary case uses binomial-basis coefficients throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, lcm

from .errors import (
    DegenerateFamilyError,
    DegenerateFrameError,
    DegenerateQuinticError,
    FamilyConversionError,
    InputError,
    VanishingInvariantError,
)
from .linalg import MatrixQ
from .milnor import associated_form
from .poly import Poly, Space, _addmul, _from_int, _to_int, hessian


def _binary_binomial_coeffs(f):
    deg = f.homogeneous_degree()
    if f.nvars != 2 or deg is None:
        raise InputError("expected a nonzero homogeneous binary form")
    return [f.coeff((deg - i, i)) / comb(deg, i) for i in range(deg + 1)]


def catalecticant(f):
    """Hankel determinant of the binomial coefficients of an even-degree form.

    >>> catalecticant(Poly(2, "e", {(2, 2): 1}))
    Fraction(-1, 216)
    """
    a = _binary_binomial_coeffs(f)
    deg = len(a) - 1
    if deg % 2:
        raise InputError("catalecticants are defined for even degree")
    N = deg // 2
    return MatrixQ([[a[r + c] for c in range(N + 1)] for r in range(N + 1)]).det()


def i2_quartic(f):
    """Degree-two invariant of binary quartics, a0a4 - 4a1a3 + 3a2^2."""
    a = _binary_binomial_coeffs(f)
    if len(a) != 5:
        raise InputError("expected a binary quartic")
    return a[0] * a[4] - 4 * a[1] * a[3] + 3 * a[2] ** 2


def _quartic_invariants(f):
    """I2, Cat and the discriminant I2^3 - 27 Cat^2, each evaluated once."""
    i2, cat = i2_quartic(f), catalecticant(f)
    return i2, cat, i2**3 - 27 * cat**2


def delta_quartic(f):
    """Discriminant normalization I2^3 - 27 Cat^2."""
    return _quartic_invariants(f)[2]


def j_quartic(f):
    """Absolute invariant I2^3 / delta; needs a nonvanishing discriminant."""
    i2, _, d = _quartic_invariants(f)
    if d == 0:
        raise VanishingInvariantError("delta")
    return i2**3 / d


def k_quartic(f):
    """Absolute invariant I2^3 / (27 Cat^2); needs a nonzero catalecticant."""
    c = catalecticant(f)
    if c == 0:
        raise VanishingInvariantError("catalecticant")
    return i2_quartic(f) ** 3 / (27 * c**2)


def aronhold_a4(f):
    """Degree-four invariant of a general ternary cubic.

    Coefficients are read off in the convention
    f = a w1^3 + b w2^3 + c w3^3 + 3d w1^2 w2 + 3p w1^2 w3 + 3q w1 w2^2
        + 3r w2^2 w3 + 3s w1 w3^2 + 3t w2 w3^2 + 6u w1 w2 w3.
    """
    if f.nvars != 3 or f.homogeneous_degree() != 3:
        raise InputError("expected a ternary cubic")
    a = f.coeff((3, 0, 0))
    b = f.coeff((0, 3, 0))
    c = f.coeff((0, 0, 3))
    d = f.coeff((2, 1, 0)) / 3
    p = f.coeff((2, 0, 1)) / 3
    q = f.coeff((1, 2, 0)) / 3
    r = f.coeff((0, 2, 1)) / 3
    s = f.coeff((1, 0, 2)) / 3
    t = f.coeff((0, 1, 2)) / 3
    u = f.coeff((1, 1, 1)) / 6
    return (
        a * b * c * u
        - b * c * d * p
        - a * c * q * r
        - a * b * s * t
        - u * (a * r * t + b * p * s + c * d * q)
        + a * q * t**2
        + a * r**2 * s
        + b * d * s**2
        + b * p**2 * t
        + c * d**2 * r
        + c * p * q**2
        - u**4
        + 2 * u**2 * (q * s + d * t + p * r)
        - 3 * u * (d * r * s + p * q * t)
        - q**2 * s**2
        - d**2 * t**2
        - p**2 * r**2
        + d * p * r * t
        + p * r * q * s
        + d * q * s * t
    )


@dataclass(frozen=True)
class TernaryCubicFamily:
    """The four-parameter family a z1^3 + b z2^3 + c z3^3 + 6d z1z2z3."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @classmethod
    def from_poly(cls, f):
        if f.nvars != 3 or f.homogeneous_degree() != 3:
            raise FamilyConversionError("expected a ternary cubic")
        allowed = {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)}
        extra = f.support() - allowed
        if extra:
            raise FamilyConversionError(
                f"cubic has monomials outside the diagonal family: {sorted(extra)}"
            )
        return cls(
            a=f.coeff((3, 0, 0)),
            b=f.coeff((0, 3, 0)),
            c=f.coeff((0, 0, 3)),
            d=f.coeff((1, 1, 1)) / 6,
        )

    def to_poly(self):
        return Poly(
            3,
            Space.Z,
            {(3, 0, 0): self.a, (0, 3, 0): self.b, (0, 0, 3): self.c, (1, 1, 1): 6 * self.d},
        )


def a6_family(p):
    """Degree-six invariant on the family: a^2b^2c^2 - 20abcd^3 - 8d^6."""
    abc = p.a * p.b * p.c
    return abc**2 - 20 * abc * p.d**3 - 8 * p.d**6


def _cubic_invariants(p):
    """A6, A4 = abcd - d^4 and the discriminant A6^2 + 64 A4^3, each evaluated once."""
    a6, a4 = a6_family(p), p.a * p.b * p.c * p.d - p.d**4
    return a6, a4, a6**2 + 64 * a4**3


def delta_cubic_family(p):
    """Discriminant normalization A6^2 + 64 A4^3 on the family."""
    return _cubic_invariants(p)[2]


def j_cubic_family(p):
    """Absolute invariant 64 A4^3 / delta."""
    _, a4, d = _cubic_invariants(p)
    if d == 0:
        raise VanishingInvariantError("delta")
    return 64 * a4**3 / d


def k_cubic(f):
    """Absolute invariant A6^2/(64 A4^3) + 1, reading f through the family."""
    p = f if isinstance(f, TernaryCubicFamily) else TernaryCubicFamily.from_poly(f)
    a6, a4, _ = _cubic_invariants(p)
    if a4 == 0:
        raise VanishingInvariantError("a4")
    return a6**2 / (64 * a4**3) + 1


_family = TernaryCubicFamily.from_poly

# the names of `assoform invariant`; binary forms are read as quartics,
# ternary forms as cubics
INVARIANTS = {
    "cat": catalecticant,
    "i2": i2_quartic,
    "a4": aronhold_a4,
    "a6": lambda f: a6_family(_family(f)),
    "delta": lambda f: delta_quartic(f) if f.nvars == 2 else delta_cubic_family(_family(f)),
    "j": lambda f: j_quartic(f) if f.nvars == 2 else j_cubic_family(_family(f)),
    "k": lambda f: k_quartic(f) if f.nvars == 2 else k_cubic(f),
}


def pippian(p):
    """Degree-3 class-3 contravariant of a family cubic, as a dual form."""
    bc, ac, ab = p.b * p.c, p.a * p.c, p.a * p.b
    abc = p.a * p.b * p.c
    return Poly(
        3,
        Space.E,
        {
            (3, 0, 0): -p.d * bc,
            (0, 3, 0): -p.d * ac,
            (0, 0, 3): -p.d * ab,
            (1, 1, 1): -(abc - 4 * p.d**3),
        },
    )


def quippian(p):
    """Degree-5 class-3 contravariant of a family cubic, as a dual form."""
    bc, ac, ab = p.b * p.c, p.a * p.c, p.a * p.b
    abc = p.a * p.b * p.c
    lead = abc - 10 * p.d**3
    return Poly(
        3,
        Space.E,
        {
            (3, 0, 0): lead * bc,
            (0, 3, 0): lead * ac,
            (0, 0, 3): lead * ab,
            (1, 1, 1): -6 * p.d**2 * (5 * abc + 4 * p.d**3),
        },
    )


def hat(L):
    """Turn a binary dual form into a source form via (z1,z2) -> L(-z2,z1).

    Applying hat twice multiplies a form of degree m by (-1)^m.

    >>> hat(Poly(2, "e", {(1, 1): 1}))
    Poly(2, 'z', '-z1*z2')
    """
    if L.nvars != 2 or L.space is not Space.E:
        raise InputError("hat applies to binary e-space forms")
    terms = {}
    for (i, j), coeff in L.items():
        terms[(j, i)] = coeff if i % 2 == 0 else -coeff
    return Poly(2, Space.Z, terms)


def verify_quartic_identity(f):
    """Exact check of the weight-six covariant decomposition for a quartic.

    hat(delta(f) * Phi(f)) must equal I2(f)/3456 * Hess(f) - Cat(f)/16 * f.
    """
    if f.nvars != 2 or f.homogeneous_degree() != 4 or f.space is not Space.Z:
        raise InputError("expected a binary quartic source form")
    form = associated_form(f).form
    i2, cat, delta = _quartic_invariants(f)
    lhs = hat(delta * form)
    rhs = Fraction(1, 3456) * i2 * hessian(f) - Fraction(1, 16) * cat * f
    return lhs == rhs


def verify_cubic_identity(p):
    """Exact check of the contravariant decomposition for a family cubic.

    delta(p) * Phi(f) must equal -A6/36 * Pippian - A4/27 * Quippian.
    """
    a6, a4, delta = _cubic_invariants(p)
    if delta == 0:
        raise DegenerateFamilyError("family member has vanishing discriminant")
    form = associated_form(p.to_poly()).form
    lhs = delta * form
    rhs = Fraction(-1, 36) * a6 * pippian(p) + Fraction(-1, 27) * a4 * quippian(p)
    return lhs == rhs


@dataclass(frozen=True)
class SylvesterQuintic:
    """Binary quintic a X^5 + b Y^5 + c Z^5 with Z = -X-Y.

    X and Y are independent linear forms in z1, z2; the implied Z closes
    the frame so that X + Y + Z = 0.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    X: Poly
    Y: Poly

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        for name in ("X", "Y"):
            v = getattr(self, name)
            if v.nvars != 2 or v.space is not Space.Z or v.homogeneous_degree() != 1:
                raise InputError(f"{name} must be a linear form in z1, z2")
        if self.frame_det == 0:
            raise DegenerateFrameError("X and Y are linearly dependent")

    @property
    def frame_det(self):
        """Determinant of the frame (X, Y) against the coordinates (z1, z2)."""
        return MatrixQ(
            [
                [self.X.coeff((1, 0)), self.X.coeff((0, 1))],
                [self.Y.coeff((1, 0)), self.Y.coeff((0, 1))],
            ]
        ).det()

    @property
    def Z(self):
        return -(self.X + self.Y)

    def to_poly(self):
        return self.a * self.X**5 + self.b * self.Y**5 + self.c * self.Z**5

    @cached_property
    def _covariants(self):
        """quintic_covariants(self), evaluated once per quintic."""
        return quintic_covariants(self)


@dataclass(frozen=True)
class QuinticCovariants:
    """The covariants of a Sylvester quintic entering its decomposition."""

    C40: Fraction
    C80: Fraction
    C51: Poly
    C22: Poly
    C33: Poly
    C44: Poly
    C15: Poly
    C26: Poly

    @property
    def delta(self):
        return self.C40**2 - 128 * self.C80

    @cached_property
    def _products(self):
        """C15*C51, C33^2 and C22^3, which the relation and the identity share."""
        return self.C15 * self.C51, self.C33 * self.C33, self.C22**3


def quintic_covariants(s):
    """Evaluate the classical covariants on a Sylvester canonical quintic.

    The covariant forms expand over the integers. With a, b, c = A/L, B/L,
    C/L and the frame X, Y, Z = x/D, y/D, z/D, each form is a rational scale
    times an integer combination of products of x, y and z; the scale is
    divided out once per term at the end.
    """
    a, b, c = s.a, s.b, s.c
    abc = a * b * c
    L = lcm(a.denominator, b.denominator, c.denominator)
    A, B, C = (v.numerator * (L // v.denominator) for v in (a, b, c))
    base = 7  # no covariant has degree above 6
    (x, dx), (y, dy) = _to_int(s.X, base), _to_int(s.Y, base)
    D = lcm(dx, dy)
    x = {k: v * (D // dx) for k, v in x.items()}
    y = {k: v * (D // dy) for k, v in y.items()}
    z = {k: -x.get(k, 0) - y.get(k, 0) for k in x.keys() | y.keys()}
    one = {0: 1}
    X, Y, Z = ([one, v] for v in (x, y, z))
    for pw in (X, Y, Z):
        for _ in range(4):
            pw.append(_addmul({}, pw[-1], pw[1]))
    xy = _addmul({}, x, y)

    def form(scale, *parts):
        # scale times the sum of w * p * q over the parts (w, p, q)
        acc = {}
        for w, p, q in parts:
            _addmul(acc, p, q, w * scale.numerator)
        return _from_int(acc, 2, Space.Z, base, scale.denominator)

    return QuinticCovariants(
        C40=a**2 * b**2 + b**2 * c**2 + a**2 * c**2 - 2 * abc * (a + b + c),
        C80=abc**2 * (a * b + a * c + b * c),
        C51=form(abc / (L**2 * D), (B * C, x, one), (A * C, y, one), (A * B, z, one)),
        C22=form(Fraction(1, L**2 * D**2), (A * B, xy, one), (A * C, x, z), (B * C, y, z)),
        C33=form(abc / D**3, (1, xy, z)),
        C44=form(abc / (L * D**4), (A, X[4], one), (B, Y[4], one), (C, Z[4], one)),
        C15=form(Fraction(1, L * D**5), (A, X[5], one), (B, Y[5], one), (C, Z[5], one)),
        C26=form(
            Fraction(1, L**2 * D**6),
            (A * B, X[3], Y[3]),
            (B * C, Y[3], Z[3]),
            (A * C, X[3], Z[3]),
        ),
    )


def verify_quintic_relation(s):
    """Exact check of the classical relation among the quintic covariants.

    C40*C26 - C15*C51 + 9 C33^2 - C22^3 + 2 C22*C44 must vanish.
    """
    cov = s._covariants
    c15c51, c33sq, c22cube = cov._products
    return not (cov.C40 * cov.C26 - c15c51 + 9 * c33sq - c22cube + 2 * cov.C22 * cov.C44)


def verify_quintic_identity(s):
    """Exact check of the degree-six decomposition for a Sylvester quintic.

    In a unimodular frame, hat(delta * Phi(f)) must equal
    C40*C26/20 - 3/50 C15*C51 + 27/10 C33^2 - C22^3/10. A general frame
    rescales the right side by the eighth power of the frame determinant
    (both sides are frame-covariant but of different weights), so the check
    carries that factor and reduces to the plain identity when det = +-1.
    """
    cov = s._covariants
    if cov.delta == 0:
        raise DegenerateQuinticError("quintic has vanishing discriminant")
    form = associated_form(cov.C15).form
    lhs = s.frame_det**8 * hat(cov.delta * form)
    c15c51, c33sq, c22cube = cov._products
    rhs = (
        Fraction(1, 20) * cov.C40 * cov.C26
        - Fraction(3, 50) * c15c51
        + Fraction(27, 10) * c33sq
        - Fraction(1, 10) * c22cube
    )
    return lhs == rhs
