"""Annihilators of dual forms and Macaulay inverse systems.

A dual form F of degree N is paired against source polynomials by the
diamond action; the annihilator of F collects everything that kills it.
Each graded slice is the kernel of a finite linear map and is computed
exactly. The degree-(d-1) slice decides whether F arises as an associated
form: it must be n-dimensional and span a finite-colength tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegreeMismatchError, FiniteColengthError, InputError
from .linalg import nullspace_rows, rank_rows
from .milnor import PolyTuple, is_finite_colength
from .poly import Poly, Space, diamond, monomial_basis


@dataclass(frozen=True)
class ApolarSlice:
    """One graded piece of an annihilator: all degree-k forms killing F."""

    F: Poly
    degree: int
    kernel_basis: tuple

    @property
    def dimension(self):
        return len(self.kernel_basis)


@dataclass(frozen=True)
class NotApplicable:
    """Annihilator slice has the wrong dimension to form an n-tuple."""

    dimension: int


def annihilator_graded(F, k):
    """Degree-k slice of the annihilator of the dual form F.

    >>> F = Poly(2, "e", {(2, 2): 1})
    >>> [str(g) for g in annihilator_graded(F, 3).kernel_basis]
    ["Poly(2, 'z', 'z1^3')", "Poly(2, 'z', 'z2^3')"]
    """
    if F.space is not Space.E:
        raise InputError("annihilators are taken of e-space forms")
    N = F.homogeneous_degree()
    if N is None:
        raise InputError("annihilator of the zero form is everything; not represented")
    if not 0 <= k <= N:
        raise InputError(f"slice degree must lie in 0..{N}")
    n = F.nvars
    domain = monomial_basis(n, k)
    codomain = monomial_basis(n, N - k)
    columns = [
        diamond(Poly(n, Space.Z, {m: 1}), F).coefficient_vector(N - k, codomain)
        for m in domain
    ]
    rows = [[col[i] for col in columns] for i in range(len(codomain))]
    kernel = nullspace_rows(rows, ncols=len(domain))
    basis = tuple(Poly.from_vector(n, Space.Z, k, vec, domain) for vec in kernel)
    return ApolarSlice(F=F, degree=k, kernel_basis=basis)


def apolar_tuple(F, d):
    """The degree-(d-1) annihilator slice as an n-tuple, when n-dimensional.

    F must have degree n(d-2) for the declared d (the degree alone does not
    determine d, so the caller states it). Returns NotApplicable with the
    found dimension when the slice is not exactly n-dimensional.
    """
    if not F:
        raise InputError("the zero form has no apolar tuple: it is annihilated by everything")
    n = F.nvars
    expected = n * (d - 2)
    if F.homogeneous_degree() != expected:
        raise DegreeMismatchError(
            f"form has degree {F.homogeneous_degree()}, "
            f"but n={n}, d={d} requires degree {expected}"
        )
    slice_ = annihilator_graded(F, d - 1)
    if slice_.dimension != n:
        return NotApplicable(dimension=slice_.dimension)
    return PolyTuple(slice_.kernel_basis)


def in_U(F, d):
    """Whether F is an associated form: the slice is an h.s.o.p. n-tuple."""
    ft = apolar_tuple(F, d)
    if isinstance(ft, NotApplicable):
        return False
    return is_finite_colength(ft)


def inverse_system_check(ft, F):
    """Whether every form of the tuple annihilates F under the pairing."""
    if not is_finite_colength(ft):
        raise FiniteColengthError("tuple is not a homogeneous system of parameters")
    if F.homogeneous_degree() != ft.top_degree:
        raise DegreeMismatchError(
            f"inverse system candidates must have degree {ft.top_degree}"
        )
    zero = Poly.zero(F.nvars, Space.E)
    return all(diamond(f, F) == zero for f in ft.forms)


def same_span(forms_a, forms_b):
    """Exact equality of the spans of two lists of same-degree forms."""
    forms_a = list(forms_a)
    forms_b = list(forms_b)
    degs = {f.homogeneous_degree() for f in forms_a + forms_b}
    if len(degs) != 1:
        raise InputError("span comparison needs forms of one common degree")
    deg = degs.pop()
    n = forms_a[0].nvars
    basis = monomial_basis(n, deg)
    rows_a = [f.coefficient_vector(deg, basis) for f in forms_a]
    rows_b = [f.coefficient_vector(deg, basis) for f in forms_b]
    ra = rank_rows(rows_a)
    rb = rank_rows(rows_b)
    return ra == rb == rank_rows(rows_a + rows_b)
