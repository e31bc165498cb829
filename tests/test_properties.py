"""Property tests of the polynomial, linear-algebra, socle and covariant layers.

Skipped when hypothesis is absent.
"""

from fractions import Fraction

import bareiss
import pytest
import scanner

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from assoform import linalg  # noqa: E402
from assoform.errors import PolyParseError  # noqa: E402
from assoform.invariants import SylvesterQuintic, quintic_covariants  # noqa: E402
from assoform.linalg import MatrixQ, nullspace_rows, rank_rows  # noqa: E402
from assoform.milnor import (  # noqa: E402
    PolyTuple,
    _generator_rows,
    associated_form,
    associated_form_tuple,
    hilbert_function,
    is_finite_colength,
    is_nondegenerate,
    socle_functional,
)
from assoform.poly import (  # noqa: E402
    ActionKind,
    Poly,
    Space,
    act,
    jacobian,
    monomial_basis,
    parse_poly,
    render_poly,
)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def polys(draw, n, space, max_degree=3):
    monos = st.sampled_from([m for k in range(max_degree + 1) for m in monomial_basis(n, k)])
    return Poly(n, space, draw(st.dictionaries(monos, rationals, max_size=6)))


@st.composite
def acting(draw, arity):
    """An invertible n x n rational matrix, an action kind and arity polys."""
    n = draw(st.integers(1, 3))
    row = st.lists(rationals, min_size=n, max_size=n)
    C = MatrixQ(draw(st.lists(row, min_size=n, max_size=n)))
    hypothesis.assume(C.det() != 0)
    kind = draw(st.sampled_from(list(ActionKind)))
    space = Space.Z if kind is ActionKind.ON_FORMS else Space.E
    return (C, kind) + tuple(draw(polys(n, space)) for _ in range(arity))


@settings(max_examples=60, deadline=None)
@given(acting(2))
def test_act_is_multiplicative(case):
    C, kind, f, g = case
    assert act(C, f * g, kind) == act(C, f, kind) * act(C, g, kind)


@settings(max_examples=60, deadline=None)
@given(acting(2))
def test_act_is_additive(case):
    C, kind, f, g = case
    assert act(C, f + g, kind) == act(C, f, kind) + act(C, g, kind)


@settings(max_examples=60, deadline=None)
@given(acting(1))
def test_act_of_identity_is_identity(case):
    C, kind, f = case
    assert act(MatrixQ.identity(f.nvars), f, kind) == f


@st.composite
def any_poly(draw):
    n = draw(st.integers(1, 4))
    return draw(polys(n, draw(st.sampled_from(list(Space))), max_degree=5))


@settings(max_examples=100, deadline=None)
@given(any_poly())
def test_parse_inverts_render(p):
    assert parse_poly(render_poly(p), p.nvars, p.space) == p


# the grammar's characters, both whitespaces, and look-alikes that are not
# grammar: a superscript digit, an Arabic-Indic digit (decimal, so a digit
# run), a non-z/e letter, a capital letter and a zero denominator
parse_fragments = st.sampled_from(
    list("ze0123456789+-*/^ \t²١ß") + ["Z1", "/0", "z1", "e2", "12", "^2", " * "]
)
parse_cases = st.tuples(
    st.lists(parse_fragments, max_size=24).map("".join),
    st.integers(1, 2),
    st.sampled_from(list(Space)),
)


def parse_outcome(parse, text, n, space):
    try:
        return parse(text, n, space)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@settings(max_examples=2000, deadline=None)
@given(parse_cases)
def test_parse_matches_the_character_scanner(case):
    assert parse_outcome(parse_poly, *case) == parse_outcome(scanner.parse_poly, *case)


# any text at all; texts of at most 40 characters or 24 fragments keep
# every digit run below the 4300-digit int/str conversion limit
@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.text(max_size=40), parse_cases.map(lambda case: case[0])),
    st.integers(1, 3),
    st.sampled_from(list(Space)),
)
def test_parse_returns_a_poly_or_raises_a_parse_error(text, n, space):
    try:
        assert isinstance(parse_poly(text, n, space), Poly)
    except PolyParseError:
        pass


@st.composite
def finite_colength_tuples(draw):
    """n forms of degree e in n variables whose ideal has finite colength."""
    n = draw(st.integers(2, 3))
    e = draw(st.integers(1, 3 if n == 2 else 2))
    coeffs = st.dictionaries(st.sampled_from(monomial_basis(n, e)), rationals, min_size=1)
    forms = [Poly(n, Space.Z, draw(coeffs)) for _ in range(n)]
    hypothesis.assume(all(forms))
    ft = PolyTuple(forms)
    hypothesis.assume(is_finite_colength(ft))
    return ft


def bareiss_covector(ft):
    # the socle line from the Bareiss nullspace of the Fraction rows
    nu = ft.top_degree
    basis = monomial_basis(ft.nvars, nu)
    rows = _generator_rows(ft, nu, basis) if nu >= ft.degree else []
    (kernel,) = bareiss.nullspace(rows, len(basis))
    jvec = jacobian(ft).coefficient_vector(nu, basis)
    scale = sum((a * b for a, b in zip(kernel, jvec)), Fraction(0))
    return tuple(x / scale for x in kernel)


@settings(max_examples=60, deadline=None)
@given(finite_colength_tuples())
def test_socle_functional_matches_the_bareiss_reference(ft):
    assert socle_functional(ft).covector == bareiss_covector(ft)


@settings(max_examples=60, deadline=None)
@given(finite_colength_tuples())
def test_hilbert_function_is_symmetric_with_top_value_one(ft):
    h = hilbert_function(ft)
    assert h == h[::-1]
    assert h[-1] == 1


# Sparse integer entries (zero is listed twice to weight it), with multiples
# of the modular rank's prime and their neighbours, so that a rank lost
# modulo the prime is drawn too.
_P = linalg._PRIME
sparse_entries = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-4, 4),
    st.integers(-2, 2).map(lambda k: k * _P),
    st.integers(-2, 2).map(lambda k: k * _P + 1),
)


@st.composite
def sparse_matrices(draw):
    ncols = draw(st.integers(1, 7))
    row = st.lists(sparse_entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    if draw(st.booleans()):
        # an integer combination of two rows keeps the rank over Q
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    return rows


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_rank_rows_matches_the_bareiss_rank(rows):
    assert rank_rows(rows) == bareiss.rank(rows)
    assert nullspace_rows(rows) == bareiss.nullspace(rows, len(rows[0]))


@st.composite
def nondegenerate_forms(draw):
    """A small nondegenerate binary or ternary form: diagonal plus noise."""
    n, d = draw(st.sampled_from([(2, 3), (2, 4), (2, 5), (3, 3)]))
    monos = draw(st.sets(st.sampled_from(monomial_basis(n, d)), max_size=3))
    terms = {m: draw(st.integers(-3, 3)) for m in monos}
    for i in range(n):
        diag = tuple(d * (j == i) for j in range(n))
        terms[diag] = draw(st.sampled_from([1, 2, -1]))
    f = Poly(n, Space.Z, terms)
    hypothesis.assume(f and is_nondegenerate(f))
    return f


@settings(max_examples=30, deadline=None)
@given(nondegenerate_forms(), st.data())
def test_associated_form_is_equivariant(f, data):
    # Phi(C f) = det(C)^2 * C.Phi(f) for every invertible C
    n = f.nvars
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    C = MatrixQ(data.draw(st.lists(row, min_size=n, max_size=n)))
    hypothesis.assume(C.det() != 0)
    lhs = associated_form(act(C, f, ActionKind.ON_FORMS)).form
    assert lhs == C.det() ** 2 * act(C, associated_form(f).form, ActionKind.ON_DUAL_FORMS)


@settings(max_examples=30, deadline=None)
@given(nondegenerate_forms(), st.data())
def test_associated_form_of_a_transformed_gradient(f, data):
    # Psi(M grad f) = Phi(f) / det(M) for every invertible M
    n = f.nvars
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    M = MatrixQ(data.draw(st.lists(row, min_size=n, max_size=n)))
    hypothesis.assume(M.det() != 0)
    grad = [f.partial(i) for i in range(n)]
    zero = Poly.zero(n, Space.Z)
    g = [sum((M[j, i] * grad[i] for i in range(n)), zero) for j in range(n)]
    assert associated_form_tuple(PolyTuple(g)).form == associated_form(f).form / M.det()


nonzero_rationals = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))


@st.composite
def sylvester_quintics(draw):
    """a X^5 + b Y^5 + c Z^5 with nonzero rational a, b, c and an invertible rational frame."""
    a, b, c = (draw(nonzero_rationals) for _ in range(3))
    x1, x2, y1, y2 = (draw(rationals) for _ in range(4))
    hypothesis.assume(x1 * y2 != x2 * y1)
    X = Poly(2, Space.Z, {(1, 0): x1, (0, 1): x2})
    Y = Poly(2, Space.Z, {(1, 0): y1, (0, 1): y2})
    return SylvesterQuintic(a, b, c, X, Y)


@settings(max_examples=60, deadline=None)
@given(sylvester_quintics())
def test_quintic_covariants_match_plain_poly_arithmetic(s):
    a, b, c = s.a, s.b, s.c
    X, Y = s.X, s.Y
    Z = -(X + Y)
    abc = a * b * c
    reference = {
        "C40": a**2 * b**2 + b**2 * c**2 + a**2 * c**2 - 2 * abc * (a + b + c),
        "C80": abc**2 * (a * b + a * c + b * c),
        "C51": abc * (b * c * X + a * c * Y + a * b * Z),
        "C22": a * b * X * Y + a * c * X * Z + b * c * Y * Z,
        "C33": abc * X * Y * Z,
        "C44": abc * (a * X**4 + b * Y**4 + c * Z**4),
        "C15": a * X**5 + b * Y**5 + c * Z**5,
        "C26": a * b * X**3 * Y**3 + b * c * Y**3 * Z**3 + a * c * X**3 * Z**3,
    }
    cov = quintic_covariants(s)
    for name, value in reference.items():
        got = getattr(cov, name)
        assert got == value, name
        if isinstance(value, Poly):
            assert got.items() == value.items(), name
