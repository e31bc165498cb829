import random
from fractions import Fraction

import pytest

from assoform.errors import (
    DegenerateFrameError,
    FamilyConversionError,
    InputError,
    VanishingInvariantError,
)
from assoform.invariants import (
    SylvesterQuintic,
    _cubic_invariants,
    TernaryCubicFamily,
    a6_family,
    aronhold_a4,
    catalecticant,
    delta_cubic_family,
    delta_quartic,
    hat,
    i2_quartic,
    j_cubic_family,
    j_quartic,
    k_cubic,
    k_quartic,
    pippian,
    quintic_covariants,
    quippian,
    verify_cubic_identity,
    verify_quartic_identity,
    verify_quintic_identity,
    verify_quintic_relation,
)
from assoform.linalg import MatrixQ
from assoform.milnor import associated_form
from assoform.poly import ActionKind, Poly, Space, act, hessian, parse_poly


def zp(text, n=2):
    return parse_poly(text, n, Space.Z)


def ep(text, n=2):
    return parse_poly(text, n, Space.E)


def quartic_family(t):
    return Poly(2, Space.Z, {(4, 0): 1, (2, 2): Fraction(t), (0, 4): 1})


def cubic_family_poly(t):
    return Poly(3, Space.Z, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): Fraction(t)})


T_SAMPLES = [0, 1, 3, 5, -1, 6, -6, Fraction(1, 2), Fraction(-7, 3), Fraction(12, 5)]


def test_catalecticant_values():
    for t in T_SAMPLES:
        t = Fraction(t)
        assert catalecticant(quartic_family(t)) == t / 6 - t**3 / 216
    assert catalecticant(ep("e1^2*e2^2")) == Fraction(-1, 216)
    assert catalecticant(zp("z1^2*z2^2")) == Fraction(-1, 216)


def test_catalecticant_of_associated_quartics():
    # nonzero for every admissible parameter, including the exceptional ones
    for t in T_SAMPLES:
        t = Fraction(t)
        F = associated_form(quartic_family(t)).form
        assert catalecticant(F) == Fraction(-1) / (186624 * (t**2 - 4) ** 2)


def test_catalecticant_rejects_odd_degree():
    with pytest.raises(InputError):
        catalecticant(zp("z1^3"))


def test_catalecticant_scaling():
    # degree 2N form scales by lambda^(N+1)
    f = quartic_family(1)
    g = zp("z1^6 + z1^3*z2^3 + z2^6")
    for lam in (Fraction(3), Fraction(-1, 2)):
        assert catalecticant(lam * f) == lam**3 * catalecticant(f)
        assert catalecticant(lam * g) == lam**4 * catalecticant(g)


def test_i2_values():
    for t in T_SAMPLES:
        t = Fraction(t)
        assert i2_quartic(quartic_family(t)) == 1 + t**2 / 12
    # calibration family a z1^4 + 6b z1^2z2^2 + c z2^4 gives ac + 3b^2
    rng = random.Random(53)
    for _ in range(10):
        a, b, c = (Fraction(rng.randint(-5, 5)) for _ in range(3))
        f = Poly(2, Space.Z, {(4, 0): a, (2, 2): 6 * b, (0, 4): c})
        if not f:
            continue
        assert i2_quartic(f) == a * c + 3 * b**2


def test_i2_scaling():
    f = zp("z1^4 - 3*z1^3*z2 + z2^4")
    for lam in (Fraction(2), Fraction(-5, 3)):
        assert i2_quartic(lam * f) == lam**2 * i2_quartic(f)
        assert delta_quartic(lam * f) == lam**6 * delta_quartic(f)


def test_delta_quartic():
    for t in T_SAMPLES:
        t = Fraction(t)
        assert delta_quartic(quartic_family(t)) == (t**2 - 4) ** 2 / 16
    assert delta_quartic(quartic_family(2)) == 0
    assert delta_quartic(quartic_family(-2)) == 0


def test_j_quartic():
    for t in T_SAMPLES:
        t = Fraction(t)
        if t in (2, -2):
            continue
        expected = (t**2 + 12) ** 3 / (108 * (t**2 - 4) ** 2)
        assert j_quartic(quartic_family(t)) == expected
    assert j_quartic(quartic_family(0)) == 1
    assert j_quartic(quartic_family(6)) == 1
    assert j_quartic(quartic_family(-6)) == 1
    with pytest.raises(VanishingInvariantError):
        j_quartic(quartic_family(2))


def test_k_quartic_needs_catalecticant():
    with pytest.raises(VanishingInvariantError):
        k_quartic(quartic_family(0))


def test_k_of_associated_form_equals_j():
    # the absolute-invariant transfer holds for every admissible t,
    # exceptional parameters included
    for t in T_SAMPLES:
        f = quartic_family(t)
        assert k_quartic(associated_form(f).form) == j_quartic(f)


def test_aronhold_values():
    for t in T_SAMPLES:
        t = Fraction(t)
        assert aronhold_a4(cubic_family_poly(t)) == t / 6 - t**4 / 1296
    assert aronhold_a4(parse_poly("z1*z2*z3", 3, Space.Z)) == Fraction(-1, 1296)


def test_aronhold_invariance_general_coefficients():
    # acting by a unimodular matrix fills in the off-family coefficients and
    # must preserve the invariant; t in {2, 5} exercises all ten terms
    C = (
        MatrixQ([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        @ MatrixQ([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        @ MatrixQ([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
        @ MatrixQ([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    )
    assert C.det() == 1
    for t in (0, 1, 2, 5):
        f = cubic_family_poly(t)
        g = act(C, f, ActionKind.ON_FORMS)
        if t in (2, 5):
            assert len(g.support()) == 10
        assert aronhold_a4(g) == aronhold_a4(f)


def test_aronhold_scaling():
    f = cubic_family_poly(1)
    for lam in (Fraction(3), Fraction(-2, 5)):
        assert aronhold_a4(lam * f) == lam**4 * aronhold_a4(f)


def test_family_a4_matches_aronhold_a4():
    # the family's A4 is read off its parameters as abcd - d^4
    rng = random.Random(4)
    nonzero = [Fraction(k, m) for k in range(-5, 6) if k for m in (1, 2, 3)]
    pool = nonzero + [Fraction(0)]
    for i in range(200):
        a = rng.choice(nonzero)  # so the cubic is never the zero form
        b, c = rng.choice(pool), rng.choice(pool)
        d = 0 if i % 4 == 0 else rng.choice(pool)
        p = TernaryCubicFamily(a, b, c, d)
        assert _cubic_invariants(p)[1] == aronhold_a4(p.to_poly())


def test_family_conversion():
    p = TernaryCubicFamily.from_poly(cubic_family_poly(2))
    assert p == TernaryCubicFamily(1, 1, 1, Fraction(1, 3))
    assert p.to_poly() == cubic_family_poly(2)
    with pytest.raises(FamilyConversionError):
        TernaryCubicFamily.from_poly(parse_poly("z1^3 + z1^2*z2", 3, Space.Z))
    # dual-space forms convert by exponent pattern
    F = parse_poly("e1^3 + e2^3 + e3^3 - 18*e1*e2*e3", 3, Space.E)
    assert TernaryCubicFamily.from_poly(F).d == -3


def test_a6_and_delta_cubic():
    for t in T_SAMPLES:
        t = Fraction(t)
        p = TernaryCubicFamily(1, 1, 1, t / 6)
        abc = Fraction(1)
        assert a6_family(p) == abc - 20 * (t / 6) ** 3 - 8 * (t / 6) ** 6
        assert delta_cubic_family(p) == (t**3 + 27) ** 3 / 19683
    # z1z2z3 sits on the discriminant
    assert delta_cubic_family(TernaryCubicFamily(0, 0, 0, Fraction(1, 6))) == 0


def test_j_cubic():
    for t in T_SAMPLES:
        t = Fraction(t)
        if t == -3:
            continue
        p = TernaryCubicFamily(1, 1, 1, t / 6)
        expected = -(t**3) * (t**3 - 216) ** 3 / (1728 * (t**3 + 27) ** 3)
        assert j_cubic_family(p) == expected
    assert j_cubic_family(TernaryCubicFamily(1, 1, 1, 0)) == 0
    assert j_cubic_family(TernaryCubicFamily(1, 1, 1, 1)) == 0  # t = 6
    with pytest.raises(VanishingInvariantError):
        j_cubic_family(TernaryCubicFamily(0, 0, 0, Fraction(1, 6)))


def test_k_cubic_of_associated_form_equals_j():
    for t in T_SAMPLES:
        if Fraction(t) == -3:
            continue
        f = cubic_family_poly(t)
        p = TernaryCubicFamily(1, 1, 1, Fraction(t) / 6)
        assert k_cubic(associated_form(f).form) == j_cubic_family(p)


def test_k_cubic_needs_a4():
    with pytest.raises(VanishingInvariantError):
        k_cubic(cubic_family_poly(0))


def test_pippian_quippian_special_values():
    fermat = TernaryCubicFamily(1, 1, 1, 0)
    assert pippian(fermat) == ep("-e1*e2*e3", 3)
    assert quippian(fermat) == ep("e1^3 + e2^3 + e3^3", 3)
    axes = TernaryCubicFamily(0, 0, 0, Fraction(1, 6))
    assert pippian(axes) == ep("1/54*e1*e2*e3", 3)


def test_hat():
    assert hat(ep("e1*e2")) == zp("-z1*z2")
    assert hat(ep("e1^2")) == zp("z2^2")
    assert hat(ep("e2^2")) == zp("z1^2")
    rng = random.Random(59)
    for deg in (2, 3, 4, 5):
        F = Poly(2, Space.E, {(deg - i, i): rng.randint(-5, 5) for i in range(deg + 1)})
        assert hat(hat(F).retag(Space.E)) == ((-1) ** deg * F).retag(Space.Z)
    with pytest.raises(InputError):
        hat(zp("z1^2"))


def test_quartic_identity_family():
    for t in (1, Fraction(1, 2), 3, -5, Fraction(7, 4)):
        assert verify_quartic_identity(quartic_family(t))


def test_quartic_identity_random():
    rng = random.Random(61)
    checked = 0
    while checked < 12:
        f = Poly(2, Space.Z, {(4 - i, i): rng.randint(-5, 5) for i in range(5)})
        if delta_quartic(f) == 0:
            continue
        checked += 1
        assert verify_quartic_identity(f)


def test_cubic_identity_family():
    assert verify_cubic_identity(TernaryCubicFamily(1, 1, 1, Fraction(1, 6)))
    assert verify_cubic_identity(TernaryCubicFamily(1, 1, 1, 0))
    for t in (2, -1, Fraction(5, 2)):
        assert verify_cubic_identity(TernaryCubicFamily(1, 1, 1, Fraction(t) / 6))


def test_cubic_identity_random():
    rng = random.Random(67)
    checked = 0
    while checked < 12:
        p = TernaryCubicFamily(
            rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 6)
        )
        if delta_cubic_family(p) == 0:
            continue
        checked += 1
        assert verify_cubic_identity(p)


def test_quintic_covariants_structure():
    s = SylvesterQuintic(1, 1, 1, zp("z1"), zp("z2"))
    cov = quintic_covariants(s)
    assert cov.C15 == s.to_poly()
    assert 400 * cov.C26 == hessian(cov.C15)
    assert cov.C40 == -3
    assert cov.C80 == 3
    assert cov.delta == 9 - 128 * 3


def test_quintic_hessian_frame_weight():
    # the Hessian is computed in the coordinates, the covariant in the
    # frame; they differ by the squared frame determinant
    for X, Y in ((zp("2*z1"), zp("z2")), (zp("z1 + z2"), zp("z1 - 2*z2"))):
        s = SylvesterQuintic(1, 2, 3, X, Y)
        cov = quintic_covariants(s)
        assert 400 * s.frame_det**2 * cov.C26 == hessian(cov.C15)


def test_quintic_relation():
    assert verify_quintic_relation(SylvesterQuintic(1, 1, 1, zp("z1"), zp("z2")))
    assert verify_quintic_relation(SylvesterQuintic(1, 2, 3, zp("z1"), zp("z2")))
    assert verify_quintic_relation(
        SylvesterQuintic(Fraction(2), Fraction(-1), Fraction(1, 2), zp("z1 + z2"), zp("z1 - 2*z2"))
    )


def test_quintic_identity():
    assert verify_quintic_identity(SylvesterQuintic(1, 1, 1, zp("z1"), zp("z2")))
    assert verify_quintic_identity(SylvesterQuintic(1, 2, 3, zp("z1"), zp("z2")))
    assert verify_quintic_identity(
        SylvesterQuintic(Fraction(2), Fraction(-1), Fraction(1, 2), zp("z1"), zp("z2"))
    )


def test_quintic_identity_random_frames():
    rng = random.Random(71)
    checked = 0
    while checked < 6:
        a, b, c = (Fraction(rng.randint(-3, 3)) for _ in range(3))
        X = Poly(2, Space.Z, {(1, 0): rng.randint(-2, 2), (0, 1): rng.randint(-2, 2)})
        Y = Poly(2, Space.Z, {(1, 0): rng.randint(-2, 2), (0, 1): rng.randint(-2, 2)})
        try:
            s = SylvesterQuintic(a, b, c, X, Y)
        except (InputError, DegenerateFrameError):
            continue
        if quintic_covariants(s).delta == 0:
            continue
        checked += 1
        assert verify_quintic_relation(s)
        assert verify_quintic_identity(s)


def test_quintic_frame_validation():
    with pytest.raises(DegenerateFrameError):
        SylvesterQuintic(1, 1, 1, zp("z1"), zp("2*z1"))
    with pytest.raises(InputError):
        SylvesterQuintic(1, 1, 1, zp("z1^2"), zp("z2"))


def test_contravariant_scaling_degree():
    # delta(f) * Phi(f) has degree 4 in the coefficients of a binary quartic
    f = quartic_family(1)
    base = delta_quartic(f) * associated_form(f).form
    for lam in (Fraction(2), Fraction(-3, 2)):
        scaled = delta_quartic(lam * f) * associated_form(lam * f).form
        assert scaled == lam**4 * base
