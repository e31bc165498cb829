"""Graded linear algebra on Jacobian-type ideals.

A tuple of n forms of degree d-1 in n variables spans an ideal whose
quotient algebra is finite-dimensional exactly when the forms have no
common zero away from the origin. In that case the quotient is a graded
Gorenstein algebra whose top nonzero piece sits in degree n(d-2) and is
one line; the socle functional picks coordinates on that line, normalized
against the Jacobian determinant. Packaging the functional's values as a
form on the dual space yields the associated form of the tuple, and of a
single nondegenerate polynomial via its gradient.

All computations are exact. Graded ranks come from rank_rows on the
cleared coefficient rows. The socle path builds its rows as integers by
exponent shifts: its fullness matrix is ranked by rank_rows, and its
socle line is solved p-adically by kernel_line and checked against every
row over the integers. hilbert_function and the other finiteness checks
still rank rows built from Poly products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd

from .errors import (
    DegenerateSocleError,
    FiniteColengthError,
    InputError,
    NondegeneracyError,
)
from .linalg import kernel_line, rank_rows
from .poly import Poly, Space, _pack, _to_int, factorial_product, jacobian, monomial_basis


@dataclass(frozen=True)
class PolyTuple:
    """n forms of one common degree in n variables, all in the z-space.

    `_dims` caches the ideal's graded dimensions by degree, so a tuple
    ranks each graded piece once however many computations ask for it;
    the cache takes no part in equality or hashing.
    """

    forms: tuple
    _dims: dict = field(init=False, repr=False, compare=False)

    def __init__(self, forms):
        forms = tuple(forms)
        if not forms:
            raise InputError("empty tuple of forms")
        n = forms[0].nvars
        if len(forms) != n:
            raise InputError(f"need exactly {n} forms in {n} variables, got {len(forms)}")
        degs = set()
        for f in forms:
            if f.nvars != n:
                raise InputError("forms live in different rings")
            if f.space is not Space.Z:
                raise InputError("tuple forms must be z-space polynomials")
            degs.add(f.homogeneous_degree())
        if len(degs) != 1 or degs == {None}:
            raise InputError("forms must be nonzero and of one common degree")
        if degs.pop() < 1:
            raise InputError("constant forms span no ideal of interest")
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "_dims", {})

    @property
    def nvars(self):
        return len(self.forms)

    @property
    def degree(self):
        """Common degree of the forms (d-1 for a gradient tuple)."""
        return self.forms[0].homogeneous_degree()

    @property
    def source_degree(self):
        """The d such that the forms have degree d-1."""
        return self.degree + 1

    @property
    def top_degree(self):
        """Socle degree n(d-2) of the quotient algebra, when finite."""
        return self.nvars * (self.degree - 1)

    def __iter__(self):
        return iter(self.forms)


@dataclass(frozen=True)
class SocleFunctional:
    """Linear functional on the degree-n(d-2) piece, vanishing on the ideal.

    `covector` holds the values on monomial_basis(n, top_degree) in order;
    `normalizer` is the Jacobian determinant the functional sends to 1.
    """

    n: int
    top_degree: int
    covector: tuple
    normalizer: Poly

    def __call__(self, g):
        if g.nvars != self.n or g.space is not Space.Z:
            raise InputError("functional expects a z-space form in the same variables")
        vec = g.coefficient_vector(self.top_degree)
        return sum((a * b for a, b in zip(self.covector, vec)), Fraction(0))


@dataclass(frozen=True)
class AssociatedForm:
    """Dual form of degree n(d-2) with its defining coefficient table.

    The form's coefficient at e^i is the multinomial (n(d-2))!/(i1!...in!)
    times mu[i]; mu is sparse, holding only nonzero values.
    """

    form: Poly
    mu: dict


def gradient(f):
    """Tuple of first partials of a homogeneous form of degree >= 2.

    >>> gradient(Poly(2, "z", {(3, 0): 1, (0, 3): 1})).forms
    (Poly(2, 'z', '3*z1^2'), Poly(2, 'z', '3*z2^2'))
    """
    d = f.homogeneous_degree()
    if d is None or d < 2:
        raise InputError("gradient tuple needs a homogeneous form of degree at least 2")
    return PolyTuple(f.partial(i) for i in range(f.nvars))


def _generator_rows(ft, k, basis):
    # Coefficient vectors of {m * f_j : deg m = k - deg(f_j)}, the spanning
    # set of the ideal's degree-k piece.
    e = ft.degree
    rows = []
    for m in monomial_basis(ft.nvars, k - e):
        shift = Poly(ft.nvars, Space.Z, {m: 1})
        for f in ft.forms:
            rows.append((shift * f).coefficient_vector(k, basis))
    return rows


def _shift_rows(ft, k):
    # The rows of _int_rows(_generator_rows(ft, k, basis)), built as sparse
    # integer rows: each form is cleared of denominators and content once,
    # and each shift m * f_j places its coefficients through a
    # monomial-to-column index, adding packed exponents.
    if k < ft.degree:
        return []
    base = k + 1
    column = {_pack(m, base): i for i, m in enumerate(monomial_basis(ft.nvars, k))}
    forms = []
    for f in ft.forms:
        packed, _ = _to_int(f, base)
        g = gcd(*packed.values())
        forms.append([(key, c // g) for key, c in packed.items()])
    return [
        {column[shift + key]: c for key, c in terms}
        for shift in (_pack(m, base) for m in monomial_basis(ft.nvars, k - ft.degree))
        for terms in forms
    ]


def ideal_graded_dim(ft, k):
    """Dimension of the degree-k piece of the ideal spanned by the tuple."""
    if k < ft.degree:
        return 0
    if k not in ft._dims:
        basis = monomial_basis(ft.nvars, k)
        ft._dims[k] = rank_rows(_generator_rows(ft, k, basis))
    return ft._dims[k]


def finiteness_degree(ft):
    """The single degree whose fullness decides finite colength."""
    return ft.top_degree + 1


def is_finite_colength(ft):
    """Whether the quotient by the tuple's ideal is finite-dimensional.

    The quotient of a complete intersection vanishes above degree n(d-2),
    so fullness of the ideal in degree n(d-2)+1 is necessary; it is also
    sufficient because fullness propagates upward under multiplication by
    linear forms while an infinite quotient stays nonzero in all degrees.
    """
    k = finiteness_degree(ft)
    n = ft.nvars
    return ideal_graded_dim(ft, k) == comb(k + n - 1, n - 1)


def is_nondegenerate(f):
    """Whether the projective hypersurface of f has no singular points.

    Equivalent to the gradient ideal having finite colength.
    """
    d = f.homogeneous_degree()
    if d is None or d < 3:
        raise InputError("nondegeneracy is tested for homogeneous forms of degree at least 3")
    return _involves_every_variable(f) and is_finite_colength(gradient(f))


def _involves_every_variable(f):
    # A form of degree d >= 2 free of z_i is singular at the point e_i:
    # its partial in z_i is zero, and every other partial is a form of
    # degree d - 1 >= 1 free of z_i, so it vanishes there too.
    return all(any(m[i] for m in f.support()) for i in range(f.nvars))


def socle_functional(ft):
    """The unique functional killing the ideal's top piece, Jacobian-normalized.

    Raises FiniteColengthError when the tuple is not a homogeneous system
    of parameters. For one that is, the kernel conditions leave exactly a
    line of functionals and the Jacobian lies outside the ideal's piece,
    so the normalization is well posed; violations of either fact raise
    DegenerateSocleError, which signals a broken caller, not bad input.
    The fullness matrix is ranked on the same integer shift rows as the
    socle, and cached where ideal_graded_dim would put it.
    """
    n = ft.nvars
    k = finiteness_degree(ft)
    if k not in ft._dims:
        ncols = comb(k + n - 1, n - 1)
        # rank_rows reads its rows once, so densifying them lazily keeps no
        # dense copy alive beside its own integer one
        rows = ([row.get(c, 0) for c in range(ncols)] for row in _shift_rows(ft, k))
        ft._dims[k] = rank_rows(rows)
    if not is_finite_colength(ft):
        raise FiniteColengthError(
            f"tuple is not a homogeneous system of parameters "
            f"(ideal not full in degree {k})"
        )
    nu = ft.top_degree
    basis = monomial_basis(n, nu)
    # any vector on the kernel line will do: the pairing below rescales it
    kernel = kernel_line(_shift_rows(ft, nu), len(basis))
    jac = jacobian(ft)
    jvec = jac.coefficient_vector(nu, basis)
    scale = sum((a * b for a, b in zip(kernel, jvec)), Fraction(0))
    if scale == 0:
        raise DegenerateSocleError("Jacobian lies in the ideal's top piece")
    covector = tuple(x / scale for x in kernel)
    return SocleFunctional(n=n, top_degree=nu, covector=covector, normalizer=jac)


def mu_coefficients(ft):
    """Sparse table of the functional's values on top-degree monomials."""
    sf = socle_functional(ft)
    basis = monomial_basis(sf.n, sf.top_degree)
    return {m: v for m, v in zip(basis, sf.covector) if v}


def associated_form_tuple(ft):
    """Associated form of an n-tuple: the socle functional as a dual form.

    >>> ft = PolyTuple([Poly(2, "z", {(3, 0): 1}), Poly(2, "z", {(0, 3): 1})])
    >>> associated_form_tuple(ft).form
    Poly(2, 'e', '2/3*e1^2*e2^2')
    """
    mu = mu_coefficients(ft)
    nu = ft.top_degree
    terms = {m: Fraction(factorial(nu), factorial_product(m)) * v for m, v in mu.items()}
    return AssociatedForm(form=Poly(ft.nvars, Space.E, terms), mu=mu)


def associated_form(f):
    """Associated form of a nondegenerate polynomial, via its gradient.

    >>> associated_form(Poly(2, "z", {(4, 0): 1, (0, 4): 1})).form
    Poly(2, 'e', '1/24*e1^2*e2^2')
    """
    d = f.homogeneous_degree()
    if d is None or d < 3:
        raise InputError("associated forms are defined for degree at least 3")
    if _involves_every_variable(f):
        try:
            return associated_form_tuple(gradient(f))
        except FiniteColengthError:
            pass
    k = f.nvars * (d - 2) + 1  # the finiteness degree of the gradient
    raise NondegeneracyError(
        f"form has a non-isolated singularity (gradient ideal not full in degree {k})",
        degree=k,
    )


def hilbert_function(ft):
    """Graded dimensions of the quotient algebra, degrees 0 through n(d-2)."""
    if not is_finite_colength(ft):
        raise FiniteColengthError("tuple is not a homogeneous system of parameters")
    n = ft.nvars
    return [
        comb(k + n - 1, n - 1) - ideal_graded_dim(ft, k) for k in range(ft.top_degree + 1)
    ]
