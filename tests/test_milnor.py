import random
from fractions import Fraction
from math import comb, factorial

import bareiss
import pytest

from assoform import linalg, milnor
from assoform.errors import FiniteColengthError, InputError, NondegeneracyError
from assoform.linalg import MatrixQ, _int_rows
from assoform.milnor import (
    AssociatedForm,
    PolyTuple,
    _generator_rows,
    _shift_rows,
    associated_form,
    associated_form_tuple,
    finiteness_degree,
    gradient,
    hilbert_function,
    ideal_graded_dim,
    is_finite_colength,
    is_nondegenerate,
    mu_coefficients,
    socle_functional,
)
from assoform.poly import ActionKind, Poly, Space, act, hessian, monomial_basis, parse_poly


def zp(text, n=2):
    return parse_poly(text, n, Space.Z)


def quartic_family(t):
    return Poly(2, Space.Z, {(4, 0): 1, (2, 2): Fraction(t), (0, 4): 1})


def cubic_family(t):
    return Poly(3, Space.Z, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): Fraction(t)})


def test_polytuple_validation():
    with pytest.raises(InputError):
        PolyTuple([zp("z1^2")])
    with pytest.raises(InputError):
        PolyTuple([zp("z1^2"), zp("z2^3")])
    with pytest.raises(InputError):
        PolyTuple([zp("z1^2"), zp("0")])
    with pytest.raises(InputError):
        PolyTuple([zp("z1^2"), zp("z2^2").retag(Space.E)])
    ft = PolyTuple([zp("z1^2"), zp("z2^2")])
    assert ft.nvars == 2 and ft.degree == 2 and ft.source_degree == 3 and ft.top_degree == 2


def test_gradient():
    for d in (3, 4, 5):
        ft = gradient(Poly(2, Space.Z, {(d, 0): 1, (0, d): 1}))
        assert ft.forms[0] == Poly(2, Space.Z, {(d - 1, 0): d})
        assert ft.forms[1] == Poly(2, Space.Z, {(0, d - 1): d})
    ft = gradient(quartic_family(7))
    assert ft.forms[0] == zp("4*z1^3 + 14*z1*z2^2")
    assert ft.forms[1] == zp("14*z1^2*z2 + 4*z2^3")
    with pytest.raises(InputError):
        gradient(zp("z1"))


def test_ideal_graded_dim():
    for d in (3, 4, 5):
        ft = PolyTuple([Poly(2, Space.Z, {(d - 1, 0): 1}), Poly(2, Space.Z, {(0, d - 1): 1})])
        assert ideal_graded_dim(ft, d - 1) == 2
    ft = PolyTuple([zp("z1^2"), zp("z1*z2")])
    assert ideal_graded_dim(ft, 3) == 3
    assert ideal_graded_dim(ft, 1) == 0
    for t in (1, 3, -5):
        assert ideal_graded_dim(gradient(quartic_family(t)), 4) == 4


def test_is_finite_colength():
    assert is_finite_colength(PolyTuple([zp("z1^3"), zp("z2^3")]))
    assert not is_finite_colength(gradient(zp("z1^2*z2^2")))
    assert not is_finite_colength(gradient(quartic_family(2)))
    assert not is_finite_colength(gradient(quartic_family(-2)))
    assert is_finite_colength(gradient(quartic_family(1)))


def test_is_nondegenerate():
    for d in (3, 4, 5):
        assert is_nondegenerate(Poly(2, Space.Z, {(d, 0): 1, (0, d): 1}))
    assert not is_nondegenerate(cubic_family(-3))
    assert not is_nondegenerate(parse_poly("z1*z2*z3", 3, Space.Z))
    # a form free of a variable has a zero partial: singular on that axis
    assert not is_nondegenerate(zp("3*z2^3"))
    assert not is_nondegenerate(parse_poly("z1^4 + z2^4", 3, Space.Z))
    with pytest.raises(InputError):
        is_nondegenerate(zp("z1^2 + z2^2"))


def test_socle_functional_monomial_tuple():
    for d in (3, 4, 5):
        ft = PolyTuple([Poly(2, Space.Z, {(d - 1, 0): 1}), Poly(2, Space.Z, {(0, d - 1): 1})])
        sf = socle_functional(ft)
        assert sf.top_degree == 2 * (d - 2)
        basis = monomial_basis(2, sf.top_degree)
        values = dict(zip(basis, sf.covector))
        assert values[(d - 2, d - 2)] == Fraction(1, (d - 1) ** 2)
        assert all(v == 0 for m, v in values.items() if m != (d - 2, d - 2))


def test_socle_functional_fermat_cubic_values():
    sf = socle_functional(gradient(zp("z1^3 + z2^3")))
    assert sf(zp("z1*z2")) == Fraction(1, 36)
    assert sf(zp("z1^2")) == 0
    assert sf(zp("z2^2")) == 0
    assert sf(sf.normalizer) == 1
    assert sf.normalizer == hessian(zp("z1^3 + z2^3"))


def test_socle_functional_kills_ideal():
    ft = gradient(quartic_family(1))
    sf = socle_functional(ft)
    # every generator m*f_j of the top graded piece is annihilated
    for m in monomial_basis(2, sf.top_degree - ft.degree):
        shift = Poly(2, Space.Z, {m: 1})
        for f in ft.forms:
            assert sf(shift * f) == 0
    assert sf(sf.normalizer) == 1


def test_socle_functional_rejects_infinite_colength():
    with pytest.raises(FiniteColengthError):
        socle_functional(gradient(zp("z1^2*z2^2")))


def test_mu_coefficients():
    mu = mu_coefficients(gradient(zp("z1^4 + z2^4")))
    assert mu == {(2, 2): Fraction(1, 144)}
    for d in (3, 4, 5):
        ft = PolyTuple([Poly(2, Space.Z, {(d - 1, 0): 1}), Poly(2, Space.Z, {(0, d - 1): 1})])
        assert mu_coefficients(ft) == {(d - 2, d - 2): Fraction(1, (d - 1) ** 2)}


def test_mu_reproduces_form():
    rng = random.Random(21)
    for _ in range(5):
        f = Poly(2, Space.Z, {m: rng.randint(-4, 4) for m in monomial_basis(2, 4)})
        try:
            af = associated_form(f)
        except NondegeneracyError:
            continue
        nu = 2 * (4 - 2)
        for m, v in af.mu.items():
            assert af.form.coeff(m) == Fraction(factorial(nu), factorial(m[0]) * factorial(m[1])) * v


def test_associated_form_tuple_monomials():
    for d in (3, 4, 5):
        ft = PolyTuple([Poly(2, Space.Z, {(d - 1, 0): 1}), Poly(2, Space.Z, {(0, d - 1): 1})])
        af = associated_form_tuple(ft)
        k = d - 2
        expected = Fraction(factorial(2 * k), factorial(k) ** 2) * Fraction(1, (d - 1) ** 2)
        assert af.form == Poly(2, Space.E, {(k, k): expected})


def test_associated_form_tuple_swap_flips_sign():
    # swapping two entries acts by a determinant -1 change of frame
    a = associated_form_tuple(PolyTuple([zp("z1^3"), zp("z2^3")]))
    b = associated_form_tuple(PolyTuple([zp("z2^3"), zp("z1^3")]))
    assert a.form == Poly(2, Space.E, {(2, 2): Fraction(2, 3)})
    assert b.form == -1 * a.form
    c = associated_form_tuple(PolyTuple([zp("z1^3 + z2^3"), zp("z1*z2^2")]))
    assert c.form == Poly(2, Space.E, {(3, 1): Fraction(4, 9), (0, 4): Fraction(-1, 9)})


def test_associated_form_factors_through_gradient():
    for f in (zp("z1^4 + z2^4"), quartic_family(1), cubic_family(2)):
        assert associated_form(f).form == associated_form_tuple(gradient(f)).form


def test_associated_form_eliminates_each_degree_once(monkeypatch):
    calls = []
    for name in ("rank_rows", "kernel_line"):
        real = getattr(milnor, name)
        counted = lambda *a, name=name, real=real, **kw: calls.append(name) or real(*a, **kw)
        monkeypatch.setattr(milnor, name, counted)
    associated_form(quartic_family(1))
    assert sorted(calls) == ["kernel_line", "rank_rows"]


def test_associated_form_diagonal():
    # sum of a_i z_i^d maps to (1/prod a_i) (nu!/(d!)^n) (e1...en)^(d-2)
    cases = [
        (2, 4, [Fraction(-5, 2), Fraction(-5, 3)], Fraction(1, 100)),
        (2, 5, [Fraction(-5, 3), Fraction(-1)], Fraction(3, 100)),
        (3, 3, [Fraction(-2, 3), Fraction(-1), Fraction(-3)], Fraction(-1, 72)),
        (3, 4, [Fraction(-1), Fraction(5, 2), Fraction(3)], Fraction(-1, 144)),
        (4, 3, [Fraction(-1, 2), Fraction(3), Fraction(-4, 3), Fraction(-1)], Fraction(-1, 108)),
    ]
    for n, d, coeffs, expected in cases:
        f = Poly(n, Space.Z, {tuple(d * (i == j) for j in range(n)): coeffs[i] for i in range(n)})
        af = associated_form(f)
        assert af.form == Poly(n, Space.E, {(d - 2,) * n: expected})


def test_associated_form_quartic_family():
    for t in (0, 1, 3, 5, -1, Fraction(1, 2), Fraction(-7, 3)):
        scale = Fraction(1, 72) / (Fraction(t) ** 2 - 4)
        expected = Poly(
            2, Space.E, {(4, 0): scale * t, (2, 2): -12 * scale, (0, 4): scale * t}
        )
        assert associated_form(quartic_family(t)).form == expected


def test_associated_form_cubic_family():
    for t in (0, 1, 2, -1, Fraction(5, 2)):
        scale = Fraction(-1, 24) / (Fraction(t) ** 3 + 27)
        expected = Poly(
            3,
            Space.E,
            {
                (3, 0, 0): scale * t,
                (0, 3, 0): scale * t,
                (0, 0, 3): scale * t,
                (1, 1, 1): -18 * scale,
            },
        )
        assert associated_form(cubic_family(t)).form == expected


def test_associated_form_degenerate_inputs():
    with pytest.raises(NondegeneracyError) as info:
        associated_form(quartic_family(2))
    assert info.value.degree == 5
    with pytest.raises(NondegeneracyError):
        associated_form(cubic_family(-3))
    with pytest.raises(NondegeneracyError):
        associated_form(parse_poly("z1*z2*z3", 3, Space.Z))
    with pytest.raises(NondegeneracyError) as info:
        associated_form(parse_poly("z1^4 + z2^4", 3, Space.Z))
    assert info.value.degree == 7


def test_scaling_law():
    # associated_form(c*f) = c^-n associated_form(f)
    rng = random.Random(17)
    f = quartic_family(1)
    base = associated_form(f).form
    for _ in range(5):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
        assert associated_form(c * f).form == base * Fraction(1, c**2)
    g = cubic_family(1)
    base3 = associated_form(g).form
    assert associated_form(5 * g).form == base3 * Fraction(1, 125)


def test_equivariance_small_sample():
    # Phi(Cf) = det(C)^2 * C.Phi(f) for invertible C
    rng = random.Random(29)
    f = quartic_family(1)
    base = associated_form(f).form
    done = 0
    while done < 6:
        C = MatrixQ([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        d = C.det()
        if d == 0:
            continue
        done += 1
        lhs = associated_form(act(C, f, ActionKind.ON_FORMS)).form
        assert lhs == d**2 * act(C, base, ActionKind.ON_DUAL_FORMS)


def test_tuple_equivariance_small_sample():
    # Psi((C1,C2)f) = det(C1 C2) * C1.Psi(f), where (C1,C2) substitutes
    # z C1^-T into each form and recombines them by C2^-1
    rng = random.Random(31)
    ft = gradient(quartic_family(3))
    base = associated_form_tuple(ft).form
    done = 0
    while done < 6:
        C1 = MatrixQ([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        C2 = MatrixQ([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        if C1.det() == 0 or C2.det() == 0:
            continue
        done += 1
        moved = [act(C1, f, ActionKind.ON_FORMS) for f in ft.forms]
        C2inv = C2.inverse()
        mixed = PolyTuple(
            [
                sum((moved[i] * C2inv[i, j] for i in range(2)), Poly.zero(2, Space.Z))
                for j in range(2)
            ]
        )
        lhs = associated_form_tuple(mixed).form
        rhs = C1.det() * C2.det() * act(C1, base, ActionKind.ON_DUAL_FORMS)
        assert lhs == rhs


def test_hilbert_function():
    assert hilbert_function(gradient(quartic_family(1))) == [1, 2, 3, 2, 1]
    assert hilbert_function(gradient(cubic_family(0))) == [1, 3, 3, 1]
    assert hilbert_function(PolyTuple([zp("z1^2"), zp("z2^2")])) == [1, 2, 1]
    with pytest.raises(FiniteColengthError):
        hilbert_function(gradient(zp("z1^2*z2^2")))


def test_hilbert_function_symmetry_and_top():
    rng = random.Random(37)
    found = 0
    while found < 8:
        n = rng.choice([2, 3])
        d = rng.choice([3, 4]) if n == 3 else rng.choice([3, 4, 5])
        terms = {m: rng.randint(-5, 5) for m in monomial_basis(n, d - 1)}
        forms = [Poly(n, Space.Z, {m: rng.randint(-5, 5) for m in monomial_basis(n, d - 1)}) for _ in range(n)]
        try:
            ft = PolyTuple(forms)
        except InputError:
            continue
        if not is_finite_colength(ft):
            continue
        found += 1
        h = hilbert_function(ft)
        assert h == h[::-1]
        assert h[-1] == 1
        assert h[0] == 1
        assert len(h) == ft.top_degree + 1


def _random_tuple(rng, n, e, rational):
    pool = range(-4, 5)
    if rational:
        pool = [Fraction(a, b) for a in pool for b in (1, 2, 3, 7)]
    while True:
        forms = [
            Poly(n, Space.Z, {m: rng.choice(pool) for m in monomial_basis(n, e)}) for _ in range(n)
        ]
        if all(forms):
            return PolyTuple(forms)


def _dense(rows, ncols):
    out = []
    for row in rows:
        dense = [0] * ncols
        for c, v in row.items():
            dense[c] = v
        out.append(dense)
    return out


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_shift_rows_equal_the_cleared_generator_rows(rational):
    rng = random.Random(41 + rational)
    for n, e in [(1, 3), (2, 1), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)]:
        ft = _random_tuple(rng, n, e, rational)
        for k in sorted({e - 1, e, ft.top_degree, finiteness_degree(ft)}):
            if k < 0:
                continue
            basis = monomial_basis(n, k)
            expected = _int_rows(_generator_rows(ft, k, basis)) if k >= e else []
            assert _dense(_shift_rows(ft, k), len(basis)) == expected


def test_dense_socle_lifts_through_several_reconstructions(monkeypatch):
    # a dense (4,4) gradient: the socle vector's entries run to hundreds of
    # bits, so the first reconstructions come too early and must be rejected
    rng = random.Random(44)
    f = Poly(4, Space.Z, {m: rng.choice([-5, -3, -1, 1, 2, 4]) for m in monomial_basis(4, 4)})
    ft = gradient(f)
    basis = monomial_basis(4, ft.top_degree)
    attempts = []
    real = linalg._reconstruct
    monkeypatch.setattr(linalg, "_reconstruct", lambda *a: attempts.append(1) or real(*a))
    x = linalg.kernel_line(_shift_rows(ft, ft.top_degree), len(basis))
    assert len(attempts) > 1
    assert max(abs(v) for v in x).bit_length() > 200
    (ref,) = bareiss.nullspace(_generator_rows(ft, ft.top_degree, basis), len(basis))
    i = next(j for j, v in enumerate(ref) if v)
    assert [Fraction(v) for v in x] == [x[i] / ref[i] * v for v in ref]


def test_socle_path_ranks_fullness_like_the_generator_rows():
    # socle_functional ranks the fullness degree on shift rows; the rank it
    # caches, and so its verdict, must match the Fraction generator rows
    rng = random.Random(45)
    for n, e in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        z1 = Poly(n, Space.Z, {(1,) + (0,) * (n - 1): 1})
        for trial in range(6):
            ft = _random_tuple(rng, n, e - (trial >= 3), rational=trial % 2 == 1)
            if trial >= 3:
                # a common factor z1 leaves a zero set of positive dimension
                ft = PolyTuple([z1 * f for f in ft.forms])
            k = finiteness_degree(ft)
            full = comb(k + n - 1, n - 1)
            expected = linalg.rank_rows(_generator_rows(ft, k, monomial_basis(n, k)))
            try:
                socle_functional(ft)
            except FiniteColengthError:
                assert expected < full and n > 1
            else:
                assert expected == full
            assert ft._dims[k] == expected


def _grevlex_leads(ft):
    # leading exponents of a grevlex Groebner basis of the tuple's ideal
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(f"z1:{ft.nvars + 1}")
    exprs = [
        sum(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(z**a for z, a in zip(gens, m)))
            for m, c in f.items()
        )
        for f in ft.forms
    ]
    basis = sympy.groebner(exprs, *gens, order="grevlex")
    return [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in basis.exprs]


def _groebner_dims(ft):
    # a homogeneous ideal and its initial ideal have one Hilbert function, so
    # the degree-k piece has dimension #monomials - #standard monomials
    leads = _grevlex_leads(ft)
    dims = []
    for k in range(ft.top_degree + 2):
        monos = monomial_basis(ft.nvars, k)
        standard = [m for m in monos if not any(all(a >= b for a, b in zip(m, lm)) for lm in leads)]
        dims.append(len(monos) - len(standard))
    return dims


GROEBNER_SHAPES = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]


@pytest.mark.parametrize("n, e", GROEBNER_SHAPES)
def test_ideal_graded_dim_matches_a_groebner_basis(n, e):
    rng = random.Random(50 + 10 * n + e)
    found = 0
    while found < 3:
        ft = _random_tuple(rng, n, e, rational=found == 1)
        if not is_finite_colength(ft):
            continue
        found += 1
        dims = [ideal_graded_dim(ft, k) for k in range(ft.top_degree + 2)]
        assert dims == _groebner_dims(ft)
        assert dims[-1] == comb(ft.top_degree + n, n - 1)


@pytest.mark.parametrize("n, e", GROEBNER_SHAPES)
def test_ideal_graded_dim_of_a_common_factor_matches_a_groebner_basis(n, e):
    # a common linear factor keeps every graded piece short of full, so
    # every rank from the generating degree on is read off a lifted kernel
    rng = random.Random(60 + 10 * n + e)
    z1 = Poly(n, Space.Z, {(1,) + (0,) * (n - 1): 1})
    for rational in (False, True):
        ft = PolyTuple([z1 * f for f in _random_tuple(rng, n, e - 1, rational).forms])
        dims = [ideal_graded_dim(ft, k) for k in range(ft.top_degree + 2)]
        assert dims == _groebner_dims(ft)
        assert not is_finite_colength(ft)


def _socle_line_criterion(ft):
    # finite colength read off the socle degree nu = n(e-1) alone: the
    # degree-nu rows leave a one-line kernel lambda, and its n contractions
    # (lambda_{m+e_i})_m span at least a plane, i.e. the dual form of lambda
    # is not a power of a linear form
    n, nu = ft.nvars, ft.top_degree
    basis = monomial_basis(n, nu)
    rows = _generator_rows(ft, nu, basis) if nu >= ft.degree else []
    kernel = linalg.nullspace_rows(rows, len(basis))
    if len(kernel) != 1:
        return False, len(kernel)
    column = {m: c for c, m in enumerate(basis)}
    contractions = [
        [kernel[0][column[m[:i] + (m[i] + 1,) + m[i + 1 :]]] for m in monomial_basis(n, nu - 1)]
        for i in range(n)
    ]
    return linalg.rank_rows(contractions) >= 2, 1


def _socle_line_tuples(rng, n, e):
    # dense, a common linear factor, no z1^e term (a common zero at e1), sparse
    z1e = (e,) + (0,) * (n - 1)
    basis = monomial_basis(n, e)
    line = Poly(n, Space.Z, {m: rng.choice([-2, -1, 1, 2]) for m in monomial_basis(n, 1)})
    factored = [line * f for f in _random_tuple(rng, n, e - 1, rational=False).forms]
    while True:
        no_z1e = [
            Poly(n, Space.Z, {m: c for m, c in f.items() if m != z1e})
            for f in _random_tuple(rng, n, e, rational=True).forms
        ]
        if all(no_z1e):
            break
    sparse = [
        Poly(n, Space.Z, {m: rng.choice([-3, -1, 1, 2]) for m in rng.sample(basis, 2)})
        for _ in range(n)
    ]
    dense = _random_tuple(rng, n, e, rational=False)
    return [dense, PolyTuple(factored), PolyTuple(no_z1e), PolyTuple(sparse)]


def test_finite_colength_is_decided_by_the_socle_line():
    # for n, e >= 2, nu >= e gives I_{nu+1} = R_1 I_nu, so the degree-nu rows
    # decide what socle_functional's fullness matrix in degree nu + 1 decides
    rng = random.Random(71)
    verdicts, one_line_degenerate = set(), 0
    for n, e in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for _ in range(8):
            for ft in _socle_line_tuples(rng, n, e):
                criterion, kernel_dim = _socle_line_criterion(ft)
                assert criterion == is_finite_colength(ft), ft
                verdicts.add(criterion)
                one_line_degenerate += not criterion and kernel_dim == 1
    assert verdicts == {False, True}
    assert one_line_degenerate
    # n = 1 lies outside the criterion: z1^2 has finite colength, but its
    # socle degree nu = 1 is below e and its one-line kernel contracts to rank 1
    z1_squared = PolyTuple([zp("z1^2", 1)])
    assert is_finite_colength(z1_squared)
    assert _socle_line_criterion(z1_squared) == (False, 1)
