"""Exact sparse polynomials in n variables with a source/dual space tag.

Coefficients are `fractions.Fraction` throughout; no floating point enters
any computation. Monomials are exponent tuples of length nvars. Terms are
kept in graded-lexicographic order (higher total degree first, then
lexicographic with variable 1 dominant), which fixes every matrix layout
and the rendered text form.

The space tag distinguishes polynomials in the source variables z1..zn
from polynomials on the dual space in e1..en; the polar pairing `diamond`
consumes one of each. Retagging is a relabeling, not a copy of data.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from math import factorial, lcm, perm, prod

from .errors import DegreeMismatchError, InputError, PolyParseError, SingularMatrixError
from .linalg import MatrixQ


# the coefficient of every missing term; Fractions are immutable, so one
# shared zero serves every default and every zero of a coefficient vector
_ZERO = Fraction(0)


class Space(enum.Enum):
    Z = "z"
    E = "e"


class ActionKind(enum.Enum):
    ON_FORMS = "forms"
    ON_DUAL_FORMS = "dual_forms"


def grlex_key(mono):
    # Ascending sort under this key lists monomials in graded-lex order,
    # e.g. z1^2 before z1*z2 before z2^2 within degree 2.
    return (-sum(mono), tuple(-e for e in mono))


def monomial_basis(nvars, degree):
    """All exponent tuples of the given total degree, graded-lex ordered.

    >>> monomial_basis(2, 2)
    [(2, 0), (1, 1), (0, 2)]
    """
    if nvars < 1:
        raise ValueError("nvars must be positive")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    out = []

    def emit(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            emit(prefix + (e,), remaining - e, slots - 1)

    emit((), degree, nvars)
    return out


def factorial_product(mono):
    p = 1
    for e in mono:
        p *= factorial(e)
    return p


def _coerce_space(space):
    if isinstance(space, Space):
        return space
    return Space(space)


class Poly:
    """Immutable sparse polynomial; zero coefficients are never stored."""

    __slots__ = ("nvars", "space", "_terms")

    def __init__(self, nvars, space, terms=()):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        self.nvars = nvars
        self.space = _coerce_space(space)
        clean = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != nvars or any(e < 0 or not isinstance(e, int) for e in mono):
                raise ValueError(f"bad monomial {mono} for nvars={nvars}")
            c = Fraction(coeff)
            if c:
                c += clean.get(mono, 0)
                if c:
                    clean[mono] = c
                else:
                    del clean[mono]
        self._terms = clean

    @classmethod
    def zero(cls, nvars, space):
        return cls(nvars, space, {})

    @classmethod
    def constant(cls, nvars, space, value):
        return cls(nvars, space, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars, space, index):
        """The variable with the given 1-based index."""
        if not 1 <= index <= nvars:
            raise ValueError("variable index out of range")
        mono = tuple(int(i == index - 1) for i in range(nvars))
        return cls(nvars, space, {mono: Fraction(1)})

    def items(self):
        """Terms as (monomial, coefficient) pairs in graded-lex order."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]))

    def coeff(self, mono):
        return self._terms.get(tuple(mono), _ZERO)

    def support(self):
        return set(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.space == other.space
            and self._terms == other._terms
        )

    __hash__ = None

    def __repr__(self):
        return f"Poly({self.nvars}, {self.space.value!r}, {render_poly(self)!r})"

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(m) for m in self._terms)

    def is_homogeneous(self):
        degs = {sum(m) for m in self._terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        if not self._terms:
            return None
        degs = {sum(m) for m in self._terms}
        if len(degs) != 1:
            raise InputError("polynomial is not homogeneous")
        return degs.pop()

    def retag(self, space):
        return Poly(self.nvars, space, self._terms)

    def _check_compatible(self, other):
        if self.nvars != other.nvars or self.space != other.space:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            s = terms.get(m, _ZERO) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Poly(self.nvars, self.space, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.nvars, self.space, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_compatible(other)
            terms = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    s = terms.get(m, _ZERO) + c1 * c2
                    if s:
                        terms[m] = s
                    else:
                        del terms[m]
            return Poly(self.nvars, self.space, terms)
        c = Fraction(other)
        return Poly(self.nvars, self.space, {m: v * c for m, v in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.constant(self.nvars, self.space, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def partial(self, index):
        """Partial derivative with respect to the 0-based variable index."""
        terms = {}
        for m, c in self._terms.items():
            if m[index]:
                m2 = m[:index] + (m[index] - 1,) + m[index + 1 :]
                terms[m2] = c * m[index]
        return Poly(self.nvars, self.space, terms)

    def lead(self):
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mono = min(self._terms, key=grlex_key)
        return mono, self._terms[mono]

    def coefficient_vector(self, degree, basis=None):
        """Coefficients against monomial_basis(nvars, degree).

        The polynomial must be zero or homogeneous of that degree.
        """
        if self._terms and {sum(m) for m in self._terms} != {degree}:
            raise InputError(f"polynomial is not homogeneous of degree {degree}")
        if basis is None:
            basis = monomial_basis(self.nvars, degree)
        return [self._terms.get(m, _ZERO) for m in basis]

    @classmethod
    def from_vector(cls, nvars, space, degree, vec, basis=None):
        if basis is None:
            basis = monomial_basis(nvars, degree)
        return cls(nvars, space, dict(zip(basis, vec)))


# integer tokens are whole runs of decimal digits; every other non-space
# character is a token of its own
_TOKEN = re.compile(r"\d+|\S")


def parse_poly(text, nvars, space):
    """Parse polynomial text into a Poly.

    Grammar: terms joined by + or -, each term [sign][coeff "*"]varpart
    with coeff = int or int/posint and varpart = ("z"|"e")index["^"exp]
    factors joined by "*". A bare rational is a degree-0 term, so "0" is
    the zero polynomial. Whitespace may stand between any two tokens and
    is otherwise ignored, but it cannot split an integer or separate a
    variable letter from its index: "z 1" is an error.

    >>> parse_poly("z1^4 + 1/2*z1^2*z2^2", 2, "z").items()
    [((4, 0), Fraction(1, 1)), ((2, 2), Fraction(1, 2))]
    """
    space = _coerce_space(space)
    # (start, token) pairs closed by an empty token at the end of the text
    toks = [(m.start(), m.group()) for m in _TOKEN.finditer(text)]
    if not toks:
        raise PolyParseError("empty input", len(text))
    toks.append((len(text), ""))
    terms = []
    i = 0
    while toks[i][1]:
        pos, tok = toks[i]
        sign = 1
        if tok in "+-":
            sign = -1 if tok == "-" else 1
            i += 1
            pos, tok = toks[i]
        elif terms:
            raise PolyParseError("expected '+' or '-' between terms", pos)
        coeff = 1
        exps = [0] * nvars
        if tok.isdecimal():
            coeff = int(tok)
            i += 1
            if toks[i][1] == "/":
                pos, den = toks[i + 1]
                if not den.isdecimal():
                    raise PolyParseError("expected denominator", pos)
                den = int(den)
                if not den:
                    raise PolyParseError("zero denominator", pos)
                coeff = Fraction(coeff, den)
                i += 2
            more = toks[i][1] == "*"
            i += more  # past the '*' before the first factor
        elif tok.isalpha():
            more = True
        else:
            raise PolyParseError("expected a term", pos)
        while more:
            pos, letter = toks[i]
            if not letter.isalpha():
                raise PolyParseError("expected a variable after '*'", pos)
            if letter != space.value:
                raise PolyParseError(
                    f"variable letter {letter!r} does not match the {space.value}-space", pos
                )
            idx_pos, idx = toks[i + 1]
            if idx_pos != pos + 1 or not idx.isdecimal():
                raise PolyParseError("expected variable index", pos + 1)
            idx = int(idx)
            if not 1 <= idx <= nvars:
                raise PolyParseError(f"variable index {idx} out of range 1..{nvars}", idx_pos)
            i += 2
            exp = 1
            if toks[i][1] == "^":
                pos, exp = toks[i + 1]
                if not exp.isdecimal():
                    raise PolyParseError("expected exponent", pos)
                exp = int(exp)
                i += 2
            exps[idx - 1] += exp
            more = toks[i][1] == "*"
            i += more
        terms.append((tuple(exps), sign * coeff))
    return Poly(nvars, space, terms)


def render_poly(p):
    """Text form that parse_poly round-trips; graded-lex term order.

    >>> render_poly(Poly(2, "e", {(2, 2): Fraction(1, 24)}))
    '1/24*e1^2*e2^2'
    """
    if not p:
        return "0"
    letter = p.space.value
    pieces = []
    for mono, coeff in p.items():
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(f"{letter}{i + 1}")
            elif e > 1:
                factors.append(f"{letter}{i + 1}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        pieces.append((coeff < 0, body))
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


def diamond(g, F):
    """Polar pairing: apply g(d/de1,...,d/den) to the dual form F.

    g lives in the z-space, F in the e-space; the result is a dual form of
    degree deg F - deg g. Bilinear; full contraction of equal degrees gives
    a constant, and monomials pair to the factorial product i1!...in! on
    the diagonal.

    >>> diamond(parse_poly("z1", 2, "z"), parse_poly("e1^2", 2, "e"))
    Poly(2, 'e', '2*e1')
    """
    if g.space != Space.Z or F.space != Space.E:
        raise InputError("diamond expects a z-space polynomial acting on an e-space one")
    if g.nvars != F.nvars:
        raise ValueError("variable count mismatch")
    if not g or not F:
        return Poly.zero(F.nvars, Space.E)
    j = g.homogeneous_degree()
    k = F.homogeneous_degree()
    if j > k:
        raise DegreeMismatchError(f"cannot apply degree {j} to degree {k}")
    terms = {}
    for mg, cg in g._terms.items():
        for mf, cf in F._terms.items():
            if any(a > b for a, b in zip(mg, mf)):
                continue
            scale = 1
            for a, b in zip(mg, mf):
                scale *= perm(b, a)
            m = tuple(b - a for a, b in zip(mg, mf))
            s = terms.get(m, _ZERO) + cg * cf * scale
            if s:
                terms[m] = s
            else:
                del terms[m]
    return Poly(F.nvars, Space.E, terms)


# Integer expansion kernel behind act, jacobian and hessian. A polynomial is
# a dict from packed monomial to int: exponent i is digit nvars-1-i of the
# key in base `base`, so adding two keys multiplies their monomials as long
# as no exponent reaches the base. Denominators are cleared once on the way
# in and divided out once per term on the way out.


def _pack(mono, base):
    key = 0
    for e in mono:
        key = key * base + e
    return key


def _to_int(p, base):
    """(den * p as a packed integer polynomial, den), den the lcm of p's denominators."""
    den = lcm(*(c.denominator for c in p._terms.values()))
    packed = {_pack(m, base): c.numerator * (den // c.denominator) for m, c in p._terms.items()}
    return packed, den


def _int_partial(terms, index, nvars, base):
    """Partial derivative of a packed integer polynomial by a 0-based variable."""
    step = base ** (nvars - 1 - index)
    out = {}
    for key, c in terms.items():
        e = key // step % base
        if e:
            out[key - step] = c * e
    return out


def _from_int(terms, nvars, space, base, den):
    """The Poly terms / den."""
    out = {}
    for key, c in terms.items():
        mono = [0] * nvars
        for i in range(nvars - 1, -1, -1):
            key, mono[i] = divmod(key, base)
        out[tuple(mono)] = Fraction(c, den)
    return Poly(nvars, space, out)


def _addmul(acc, a, b, w=1):
    """Add w * a * b into acc and return acc."""
    get = acc.get
    for ka, ca in a.items():
        ca *= w
        for kb, cb in b.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return acc


def act(C, f, kind):
    """Linear substitution action of an invertible matrix on a form.

    ON_FORMS sends f(z) to f(z C^{-T}); ON_DUAL_FORMS sends F(e) to F(e C).
    Both are degree-preserving ring maps, so acting on products equals the
    product of the acted factors. The expansion runs over the integers: the
    denominators of the substituted matrix and of f are cleared once, and
    each term of the result is divided once at the end.
    """
    kind = kind if isinstance(kind, ActionKind) else ActionKind(kind)
    if C.nrows != C.ncols or C.nrows != f.nvars:
        raise ValueError("matrix shape does not match the variable count")
    if kind is ActionKind.ON_FORMS:
        S = C.inverse()  # z_i -> sum_j (C^{-1})_{ij} z_j realizes z -> z C^{-T}
        rows = S.entries
    else:
        if C.det() == 0:
            raise SingularMatrixError("matrix is singular")
        rows = C.transpose().entries  # e_i -> sum_j C_{ji} e_j realizes e -> e C
    top = f.degree()
    if not top:
        return f  # the zero polynomial and the constants are fixed
    n = f.nvars
    base = top + 1
    # z_i -> L_i / D with integer linear forms L_i; a term of degree k is
    # scaled by D^(top - k) so that every term shares the denominator D^top
    D = lcm(*(x.denominator for row in rows for x in row))
    linear = [
        {base ** (n - 1 - j): x.numerator * (D // x.denominator) for j, x in enumerate(row) if x}
        for row in rows
    ]
    powers = [[{0: 1}, L] for L in linear]
    fden = lcm(*(c.denominator for c in f._terms.values()))
    acc = {}
    for mono, c in f._terms.items():
        term = {0: c.numerator * (fden // c.denominator) * D ** (top - sum(mono))}
        for i, e in enumerate(mono):
            if e:
                pw = powers[i]
                while len(pw) <= e:
                    pw.append(_addmul({}, pw[-1], pw[1]))
                term = _addmul({}, term, pw[e])
        for k, v in term.items():
            acc[k] = acc.get(k, 0) + v
    return _from_int(acc, n, f.space, base, fden * D**top)


def _int_det(rows):
    """Determinant of a square matrix of packed integer polynomials.

    Laplace expansion along the rows, with the minors memoized by their
    column set, so each of the 2^n column sets is expanded once.
    """
    n = len(rows)
    memo = {}

    def minor(cols):
        # determinant of the last len(cols) rows restricted to cols
        if cols not in memo:
            r = n - len(cols)
            if len(cols) == 1:
                memo[cols] = rows[r][cols[0]]
            else:
                acc = {}
                for pos, j in enumerate(cols):
                    if rows[r][j]:
                        sub = minor(cols[:pos] + cols[pos + 1 :])
                        if sub:
                            _addmul(acc, rows[r][j], sub, -1 if pos % 2 else 1)
                memo[cols] = {k: v for k, v in acc.items() if v}
        return memo[cols]

    return minor(tuple(range(n)))


def hessian(f):
    """Determinant of the matrix of second partials.

    For homogeneous f of degree d in n variables the result is homogeneous
    of degree n(d-2). Transforms with determinant weight -2 under ON_FORMS.
    f is cleared of denominators once; its first and second partials are
    taken and the determinant expanded over the integers. A vanishing
    partial is a zero row, so the Hessian is then zero.
    """
    d = f.homogeneous_degree()
    if d is None or d < 2:
        raise InputError("hessian needs a homogeneous form of degree at least 2")
    n = f.nvars
    # the base exceeds every exponent of f and of its Hessian
    base = max(n * (d - 2), d) + 1
    packed, den = _to_int(f, base)
    grads = [_int_partial(packed, i, n, base) for i in range(n)]
    rows = [[_int_partial(g, j, n, base) for j in range(n)] for g in grads]
    return _from_int(_int_det(rows), n, f.space, base, den**n)


def jacobian(forms):
    """Determinant of (df_i/dz_j) for n forms in n variables.

    The Jacobian of a gradient tuple is exactly the Hessian of the source
    form, with no sign or scale correction. The denominators of each form
    are cleared once; the partials are then taken and the determinant
    expanded over the integers.
    """
    forms = list(getattr(forms, "forms", forms))
    n = forms[0].nvars
    if len(forms) != n or any(f.nvars != n for f in forms):
        raise InputError("jacobian needs exactly n forms in n variables")
    degs = {f.homogeneous_degree() for f in forms}
    if len(degs) != 1 or degs == {None}:
        raise InputError("jacobian needs nonzero forms of one common degree")
    e = degs.pop()
    # the base exceeds every exponent of the forms and of their Jacobian
    base = max(n * (e - 1), e) + 1
    rows, dens = [], []
    for f in forms:
        packed, den = _to_int(f, base)
        rows.append([_int_partial(packed, j, n, base) for j in range(n)])
        dens.append(den)
    return _from_int(_int_det(rows), n, forms[0].space, base, prod(dens))
