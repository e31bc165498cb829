import random
from fractions import Fraction

import pytest

from assoform.apolarity import (
    NotApplicable,
    annihilator_graded,
    apolar_tuple,
    in_U,
    inverse_system_check,
    same_span,
)
from assoform.errors import DegreeMismatchError, FiniteColengthError, InputError
from assoform.milnor import PolyTuple, associated_form, associated_form_tuple, gradient, is_finite_colength
from assoform.poly import Poly, Space, diamond, monomial_basis, parse_poly


def zp(text, n=2):
    return parse_poly(text, n, Space.Z)


def ep(text, n=2):
    return parse_poly(text, n, Space.E)


def quartic_family(t):
    return Poly(2, Space.Z, {(4, 0): 1, (2, 2): Fraction(t), (0, 4): 1})


def cubic_family(t):
    return Poly(3, Space.Z, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): Fraction(t)})


def test_annihilator_pure_power():
    slice_ = annihilator_graded(ep("e1^4"), 3)
    assert slice_.dimension == 3
    assert slice_.kernel_basis == (zp("z1^2*z2"), zp("z1*z2^2"), zp("z2^3"))


def test_annihilator_middle_form():
    slice_ = annihilator_graded(ep("e1^2*e2^2"), 3)
    assert slice_.dimension == 2
    assert slice_.kernel_basis == (zp("z1^3"), zp("z2^3"))


def test_annihilator_members_annihilate():
    rng = random.Random(41)
    for _ in range(10):
        F = Poly(2, Space.E, {m: rng.randint(-5, 5) for m in monomial_basis(2, 5)})
        if not F:
            continue
        for k in range(6):
            slice_ = annihilator_graded(F, k)
            for g in slice_.kernel_basis:
                assert diamond(g, F) == Poly.zero(2, Space.E)


def test_annihilator_contains_gradient_span():
    for t in (0, 1, 3):
        f = quartic_family(t)
        slice_ = annihilator_graded(associated_form(f).form, 3)
        assert slice_.dimension == 2
        assert same_span(slice_.kernel_basis, gradient(f).forms)


def test_annihilator_validation():
    with pytest.raises(InputError):
        annihilator_graded(ep("e1^4"), 5)
    with pytest.raises(InputError):
        annihilator_graded(zp("z1^4").retag(Space.E) - zp("z1^4").retag(Space.E), 1)
    with pytest.raises(InputError):
        annihilator_graded(zp("z1^4"), 2)


def test_apolar_tuple_fermat_cubic():
    F = associated_form(zp("z1^3 + z2^3")).form
    ft = apolar_tuple(F, 3)
    assert isinstance(ft, PolyTuple)
    assert same_span(ft.forms, [zp("z1^2"), zp("z2^2")])


def test_apolar_tuple_not_applicable():
    out = apolar_tuple(ep("e1^4"), 4)
    assert out == NotApplicable(dimension=3)


def test_apolar_tuple_cubic_family():
    for t in (0, 1, 2):
        f = cubic_family(t)
        ft = apolar_tuple(associated_form(f).form, 3)
        assert isinstance(ft, PolyTuple)
        assert same_span(ft.forms, gradient(f).forms)


def test_apolar_tuple_degree_check():
    with pytest.raises(DegreeMismatchError):
        apolar_tuple(ep("e1^4"), 3)


def test_apolar_tuple_rejects_the_zero_form():
    with pytest.raises(InputError, match="zero form"):
        apolar_tuple(Poly.zero(2, Space.E), 3)


def test_in_U_associated_forms():
    for f in (quartic_family(0), quartic_family(3), zp("z1^4 + z1*z2^3")):
        assert in_U(associated_form(f).form, 4)
    assert in_U(associated_form(cubic_family(1)).form, 3)


def test_in_U_pure_power_fails():
    for d in (4, 5, 6):
        assert not in_U(Poly(2, Space.E, {(2 * (d - 2), 0): 1}), d)


def test_inverse_system_of_gradient():
    for t in (0, 1, 3, -1):
        f = quartic_family(t)
        assert inverse_system_check(gradient(f), associated_form(f).form)
    assert not inverse_system_check(gradient(quartic_family(1)), ep("e1^4"))


def test_inverse_system_random_tuples():
    rng = random.Random(43)
    found = 0
    while found < 10:
        n = rng.choice([2, 3])
        d = 4 if n == 2 else 3
        forms = [
            Poly(n, Space.Z, {m: rng.randint(-5, 5) for m in monomial_basis(n, d - 1)})
            for _ in range(n)
        ]
        try:
            ft = PolyTuple(forms)
        except InputError:
            continue
        if not is_finite_colength(ft):
            continue
        found += 1
        assert inverse_system_check(ft, associated_form_tuple(ft).form)


def test_inverse_system_validation():
    with pytest.raises(FiniteColengthError):
        inverse_system_check(gradient(zp("z1^2*z2^2")), ep("e1^4"))
    with pytest.raises(DegreeMismatchError):
        inverse_system_check(gradient(zp("z1^3 + z2^3")), ep("e1^4"))


def test_round_trip_chi_after_psi():
    # the annihilator slice of Psi(ft) spans the same subspace as ft
    rng = random.Random(47)
    found = 0
    while found < 10:
        n = rng.choice([2, 3])
        d = 4 if n == 2 else 3
        forms = [
            Poly(n, Space.Z, {m: rng.randint(-5, 5) for m in monomial_basis(n, d - 1)})
            for _ in range(n)
        ]
        try:
            ft = PolyTuple(forms)
        except InputError:
            continue
        if not is_finite_colength(ft):
            continue
        found += 1
        back = apolar_tuple(associated_form_tuple(ft).form, d)
        assert isinstance(back, PolyTuple)
        assert same_span(back.forms, ft.forms)


def test_round_trip_psi_after_chi():
    # for F in the image, Psi(apolar_tuple(F)) is proportional to F
    for f in (quartic_family(1), quartic_family(5), cubic_family(2)):
        F = associated_form(f).form
        d = f.homogeneous_degree()
        ft = apolar_tuple(F, d)
        G = associated_form_tuple(ft).form
        m0, c0 = F.lead()
        m1, c1 = G.lead()
        assert m0 == m1
        assert G * c0 == F * c1


def test_top_slice_of_ideal_matches_annihilator():
    # degree-n(d-2) piece of the gradient ideal = same-degree annihilator slice
    for f in (quartic_family(1), cubic_family(1)):
        ft = gradient(f)
        nu = ft.top_degree
        F = associated_form(f).form
        ideal_piece = []
        for m in monomial_basis(ft.nvars, nu - ft.degree):
            shift = Poly(ft.nvars, Space.Z, {m: 1})
            ideal_piece.extend(shift * g for g in ft.forms)
        ann_piece = annihilator_graded(F, nu).kernel_basis
        assert same_span(ideal_piece, ann_piece)


def test_same_span_validation():
    assert same_span([zp("z1^2")], [zp("3*z1^2")])
    assert not same_span([zp("z1^2")], [zp("z2^2")])
    with pytest.raises(InputError):
        same_span([zp("z1^2")], [zp("z2^3")])
