import random
from fractions import Fraction
from math import lcm, prod

import pytest

from assoform.errors import DegreeMismatchError, InputError, PolyParseError
from assoform.linalg import MatrixQ
from assoform.poly import (
    ActionKind,
    Poly,
    Space,
    _from_int,
    _int_det,
    _to_int,
    act,
    diamond,
    hessian,
    jacobian,
    monomial_basis,
    parse_poly,
    render_poly,
)


def zp(text, n=2):
    return parse_poly(text, n, Space.Z)


def ep(text, n=2):
    return parse_poly(text, n, Space.E)


def test_monomial_basis_order():
    assert monomial_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomial_basis(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert monomial_basis(1, 4) == [(4,)]
    assert len(monomial_basis(3, 4)) == 15


def test_parse_simple():
    p = zp("z1^4 + z2^4")
    assert p.coeff((4, 0)) == 1
    assert p.coeff((0, 4)) == 1
    assert p.homogeneous_degree() == 4


def test_parse_coefficients():
    p = zp("3*z1^2*z2 - 1/2*z2^3")
    assert p.coeff((2, 1)) == 3
    assert p.coeff((0, 3)) == Fraction(-1, 2)


def test_parse_whitespace_and_repeats():
    p = zp("  z1 * z1 ^ 2  +  2 * z2^3 ")
    assert p.coeff((3, 0)) == 1
    assert p.coeff((0, 3)) == 2


def test_parse_constant_and_zero():
    assert not zp("0")
    p = zp("5/3")
    assert p.coeff((0, 0)) == Fraction(5, 3)
    assert zp("z1 - z1") == Poly.zero(2, Space.Z)


def test_parse_rejects_wrong_letter():
    with pytest.raises(PolyParseError):
        zp("e1^2")
    with pytest.raises(PolyParseError):
        ep("z1^2")


def test_parse_rejects_malformed():
    for bad in ("", "z1 +", "2z1", "z1 z2", "z3", "z1^", "1/0", "z1**2", "*z1"):
        with pytest.raises(PolyParseError):
            zp(bad)


def test_parse_error_position():
    with pytest.raises(PolyParseError) as info:
        zp("z1 + z9")
    assert info.value.position == 6


# one input per parse error the grammar can raise, in the z-space with n = 2
@pytest.mark.parametrize(
    "text, message, position",
    [
        ("   ", "empty input", 3),
        ("z1 z2", "expected '+' or '-' between terms", 3),
        ("z1²", "expected '+' or '-' between terms", 2),
        ("2 z1", "expected '+' or '-' between terms", 2),
        ("z1 + ^", "expected a term", 5),
        ("z1 +", "expected a term", 4),
        ("3/0*z1", "zero denominator", 2),
        ("3*", "expected a variable after '*'", 2),
        ("z1*2", "expected a variable after '*'", 3),
        ("e1", "variable letter 'e' does not match the z-space", 0),
        ("z3", "variable index 3 out of range 1..2", 1),
        ("z 1", "expected variable index", 1),
        ("z1^", "expected exponent", 3),
        ("1/", "expected denominator", 2),
    ],
)
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(PolyParseError) as info:
        zp(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_render_roundtrip_examples():
    assert render_poly(ep("1/24*e1^2*e2^2")) == "1/24*e1^2*e2^2"
    assert render_poly(zp("z1^4 - 12*z1^2*z2^2 + z2^4")) == "z1^4 - 12*z1^2*z2^2 + z2^4"
    assert render_poly(Poly.zero(2, Space.Z)) == "0"
    assert render_poly(zp("-z1 + 1/3")) == "-z1 + 1/3"


def test_render_roundtrip_random():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        deg = rng.randint(0, 5)
        terms = {}
        for m in monomial_basis(n, deg):
            if rng.random() < 0.4:
                terms[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = Poly(n, Space.E, terms)
        assert parse_poly(render_poly(p), n, Space.E) == p


def test_arithmetic():
    p = zp("z1^2 + z2^2")
    q = zp("z1^2 - z2^2")
    assert p + q == zp("2*z1^2")
    assert p - q == zp("2*z2^2")
    assert p * q == zp("z1^4 - z2^4")
    assert 2 * p == zp("2*z1^2 + 2*z2^2")
    assert p / 2 == zp("1/2*z1^2 + 1/2*z2^2")
    assert zp("z1 + z2") ** 2 == zp("z1^2 + 2*z1*z2 + z2^2")
    assert zp("z1 + z2") ** 0 == Poly.constant(2, Space.Z, 1)


def test_partial():
    p = zp("z1^4 + z1^2*z2^2")
    assert p.partial(0) == zp("4*z1^3 + 2*z1*z2^2")
    assert p.partial(1) == zp("2*z1^2*z2")


def test_homogeneity_checks():
    assert zp("z1^2 + z1*z2").is_homogeneous()
    assert not zp("z1^2 + z1").is_homogeneous()
    with pytest.raises(InputError):
        zp("z1^2 + z1").homogeneous_degree()


def test_coefficient_vector_roundtrip():
    p = zp("z1^2 + 2*z1*z2 + 3*z2^2")
    vec = p.coefficient_vector(2)
    assert vec == [1, 2, 3]
    assert Poly.from_vector(2, Space.Z, 2, vec) == p


def test_retag():
    p = zp("z1^2*z2^2")
    q = p.retag(Space.E)
    assert q.space is Space.E
    assert q.coeff((2, 2)) == 1


def test_diamond_basics():
    # d/de1 applied to e1^2 e2^2
    assert diamond(zp("z1"), ep("e1^2*e2^2")) == ep("2*e1*e2^2")
    # full contraction of matching monomials gives i1!*i2!
    assert diamond(zp("z1^2*z2^2"), ep("e1^2*e2^2")) == ep("4")
    # mismatched monomials annihilate
    assert diamond(zp("z1^3"), ep("e1^2*e2^2")) == Poly.zero(2, Space.E)


def test_diamond_degree_and_space_checks():
    with pytest.raises(DegreeMismatchError):
        diamond(zp("z1^3"), ep("e1^2"))
    with pytest.raises(InputError):
        diamond(zp("z1").retag(Space.E), ep("e1^2"))


def test_diamond_bilinear():
    rng = random.Random(5)
    B3 = monomial_basis(2, 3)
    B5 = monomial_basis(2, 5)
    for _ in range(10):
        g1 = Poly(2, Space.Z, {m: rng.randint(-3, 3) for m in B3})
        g2 = Poly(2, Space.Z, {m: rng.randint(-3, 3) for m in B3})
        F = Poly(2, Space.E, {m: rng.randint(-3, 3) for m in B5})
        lhs = diamond(g1 + g2, F)
        assert lhs == diamond(g1, F) + diamond(g2, F)
        # composition: (g1*g2) diamond needs degree 6 <= 5, so test product rule
        # via iterated application instead
        assert diamond(zp("z1"), diamond(zp("z2"), F)) == diamond(zp("z1*z2"), F)


def test_act_on_forms_diagonal():
    C = MatrixQ([[2, 0], [0, 1]])
    assert act(C, zp("z1^2"), ActionKind.ON_FORMS) == zp("1/4*z1^2")
    assert act(C, ep("e1^2"), ActionKind.ON_DUAL_FORMS) == ep("4*e1^2")


def test_act_composition():
    rng = random.Random(9)
    f = zp("z1^3 + 2*z1*z2^2 - z2^3")
    for _ in range(10):
        A = MatrixQ([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        B = MatrixQ([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        if A.det() == 0 or B.det() == 0:
            continue
        for kind in (ActionKind.ON_FORMS, ActionKind.ON_DUAL_FORMS):
            g = f if kind is ActionKind.ON_FORMS else f.retag(Space.E)
            assert act(A @ B, g, kind) == act(A, act(B, g, kind), kind)


def test_act_is_ring_map():
    C = MatrixQ([[1, 2], [1, 3]])
    p = zp("z1 + z2")
    q = zp("z1 - 2*z2")
    assert act(C, p * q, ActionKind.ON_FORMS) == act(C, p, ActionKind.ON_FORMS) * act(
        C, q, ActionKind.ON_FORMS
    )


def test_act_identity():
    f = zp("z1^4 + 5*z1^2*z2^2")
    assert act(MatrixQ.identity(2), f, ActionKind.ON_FORMS) == f


def test_hessian_values():
    assert hessian(zp("z1^4 + z2^4")) == zp("144*z1^2*z2^2")
    q1 = zp("z1^4 + z1^2*z2^2 + z2^4")
    # 24t(z1^4+z2^4) + (144-12t^2) z1^2 z2^2 at t=1
    assert hessian(q1) == zp("24*z1^4 + 132*z1^2*z2^2 + 24*z2^4")
    f3 = parse_poly("z1*z2*z3", 3, Space.Z)
    assert hessian(f3) == parse_poly("2*z1*z2*z3", 3, Space.Z)
    # z3 does not occur, so the third row and column of second partials vanish
    assert hessian(parse_poly("z1^3 + 1/2*z1*z2^2", 3, Space.Z)) == Poly.zero(3, Space.Z)
    assert hessian(parse_poly("3/2*z1^4", 1, Space.Z)) == parse_poly("18*z1^2", 1, Space.Z)


def test_hessian_rejects_low_degree():
    with pytest.raises(InputError):
        hessian(zp("z1"))
    with pytest.raises(InputError):
        hessian(zp("z1^2 + z1"))


def test_hessian_weight_under_action():
    # Hess(Cf) = det(C)^-2 * C.Hess(f)
    rng = random.Random(13)
    f = zp("z1^4 + z1^2*z2^2 + z2^4")
    H = hessian(f)
    for _ in range(8):
        C = MatrixQ([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        d = C.det()
        if d == 0:
            continue
        assert hessian(act(C, f, ActionKind.ON_FORMS)) == act(C, H, ActionKind.ON_FORMS) * (
            Fraction(1) / d**2
        )


def test_jacobian_values():
    assert jacobian([zp("z1^3"), zp("z2^3")]) == zp("9*z1^2*z2^2")
    f = zp("z1^4 + z1^2*z2^2 + z2^4")
    assert jacobian([f.partial(0), f.partial(1)]) == hessian(f)
    assert jacobian([parse_poly("3/2*z1^4", 1, Space.Z)]) == parse_poly("6*z1^3", 1, Space.Z)


def test_jacobian_validation():
    with pytest.raises(InputError):
        jacobian([zp("z1^2")])
    with pytest.raises(InputError):
        jacobian([zp("z1^2"), zp("z2^3")])


# Reference paths for the integer expansion behind act, jacobian and hessian:
# plain Poly arithmetic over the rationals, with no denominator clearing.


def reference_act(C, f, kind):
    rows = C.inverse().entries if kind is ActionKind.ON_FORMS else C.transpose().entries
    n = f.nvars
    images = [
        sum(
            (Poly.variable(n, f.space, j + 1) * rows[i][j] for j in range(n)),
            Poly.zero(n, f.space),
        )
        for i in range(n)
    ]
    out = Poly.zero(n, f.space)
    for mono, coeff in f.items():
        term = Poly.constant(n, f.space, coeff)
        for image, e in zip(images, mono):
            term = term * image**e
        out = out + term
    return out


def reference_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    first = rows[0][0]
    total = Poly.zero(first.nvars, first.space)
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        piece = entry * reference_det(minor)
        total = total - piece if j % 2 else total + piece
    return total


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _random_poly(rng, n, degrees, density=0.5, space=Space.Z):
    terms = {}
    for deg in degrees:
        for m in monomial_basis(n, deg):
            if rng.random() < density:
                terms[m] = _rational(rng)
    return Poly(n, space, terms)


def _random_invertible(rng, n):
    while True:
        C = MatrixQ([[_rational(rng) for _ in range(n)] for _ in range(n)])
        if C.det() != 0:
            return C


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", list(ActionKind))
def test_act_matches_reference_substitution(n, kind):
    rng = random.Random(100 + n)
    space = Space.Z if kind is ActionKind.ON_FORMS else Space.E
    for trial in range(12):
        C = _random_invertible(rng, n)
        top = rng.randint(1, 4 if n < 4 else 3)
        # homogeneous, non-homogeneous, zero and constant inputs
        for degrees in ((top,), (0, 1, top), (top - 1, top)):
            f = _random_poly(rng, n, degrees, space=space)
            assert act(C, f, kind) == reference_act(C, f, kind)
        for f in (Poly.zero(n, space), Poly.constant(n, space, _rational(rng))):
            assert act(C, f, kind) == reference_act(C, f, kind) == f


def test_jacobian_and_hessian_match_reference_laplace():
    rng = random.Random(21)
    for trial in range(60):
        n = rng.randint(1, 4)
        d = rng.randint(2, 4 if n < 4 else 3)
        # sparse draws leave zero partials, i.e. zero entries
        forms = [_random_poly(rng, n, (d - 1,), density=0.4) for _ in range(n)]
        if all(forms):
            rows = [[f.partial(j) for j in range(n)] for f in forms]
            assert jacobian(forms) == reference_det(rows)
        f = _random_poly(rng, n, (d,), density=0.4)
        if f:
            grads = [f.partial(i) for i in range(n)]
            rows = [[g.partial(j) for j in range(n)] for g in grads]
            assert hessian(f) == reference_det(rows)


def _poly_det(rows):
    # the integer expansion behind jacobian and hessian, applied to a square
    # matrix of Polys with each row scaled to integers once
    nvars, space = rows[0][0].nvars, rows[0][0].space
    base = sum(max((p.degree() for p in row if p), default=0) for row in rows) + 1
    irows, dens = [], []
    for row in rows:
        packed = [_to_int(p, base) for p in row]
        den = lcm(*(d for _, d in packed))
        irows.append([{k: v * (den // d) for k, v in ints.items()} for ints, d in packed])
        dens.append(den)
    return _from_int(_int_det(irows), nvars, space, base, prod(dens))


def test_poly_det_matches_reference_laplace():
    rng = random.Random(34)
    for trial in range(40):
        n = rng.randint(1, 4)
        rows = [
            [_random_poly(rng, 3, (rng.randint(0, 2),), density=0.3) for _ in range(n)]
            for _ in range(n)
        ]
        if trial % 4 == 0:
            rows[rng.randrange(n)] = [Poly.zero(3, Space.Z)] * n
        assert _poly_det(rows) == reference_det(rows)
