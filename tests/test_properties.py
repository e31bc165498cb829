"""Property tests of the polynomial and socle layers; skipped when hypothesis is absent."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from assoform.linalg import MatrixQ, _int_rows, nullspace_rows  # noqa: E402
from assoform.milnor import (  # noqa: E402
    PolyTuple,
    _generator_rows,
    hilbert_function,
    is_finite_colength,
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
    # the socle line from the Bareiss nullspace of the cleared Fraction rows
    nu = ft.top_degree
    basis = monomial_basis(ft.nvars, nu)
    rows = _int_rows(_generator_rows(ft, nu, basis)) if nu >= ft.degree else []
    (kernel,) = nullspace_rows(rows, ncols=len(basis))
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
