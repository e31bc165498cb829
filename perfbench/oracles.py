"""Exact checks of every benchmark operation, run outside the timed window.

Each oracle returns None when the result is right and a one-line reason
when it is not. Arithmetic is done with the benchmark's own exact helpers;
the library is used only to parse the polynomials the program printed and,
for ternary and quaternary inverse systems, to take the associated form of
the returned slice.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, perm, prod

from workloads import det, mul, partial


def argv_key(argv):
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()[:16]


def stdout_digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()


def check(op, code, stdout, digests=None):
    """Reason the result of op is wrong, or None when it is right."""
    if code != op.expect_code:
        return f"exit code {code}, expected {op.expect_code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not a single JSON document"
    if op.expect_code != 0:
        return None if doc.get("status") == "error" else "refusal without an error document"
    if doc.get("status") != "pass":
        return f"status {doc.get('status')!r}"
    if op.digest and digests:
        want = digests.get(argv_key(op.argv))
        if want is not None and want != stdout_digest(stdout):
            return "stdout differs from the recorded bytes"
    return ORACLES[op.kind](op, doc["results"])


# --- exact helpers on dicts from exponent tuples to rationals ---


def diamond(g, F):
    """Polar pairing: g(d/de) applied to F."""
    out = {}
    for mg, cg in g.items():
        for mf, cf in F.items():
            if all(a <= b for a, b in zip(mg, mf)):
                m = tuple(b - a for a, b in zip(mg, mf))
                out[m] = out.get(m, 0) + cg * cf * prod(perm(b, a) for a, b in zip(mg, mf))
    return {m: c for m, c in out.items() if c}


def hessian(f, n):
    """Determinant of second partials by the Leibniz formula."""
    h = [[partial(partial(f, i), j) for j in range(n)] for i in range(n)]
    total = {}
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        term = {(0,) * n: (-1) ** inversions}
        for i in range(n):
            term = mul(term, h[i][p[i]])
        for m, c in term.items():
            total[m] = total.get(m, 0) + c
    return {m: c for m, c in total.items() if c}


def hankel_catalecticant(F):
    """Catalecticant of a binary dual form F = sum C(N,i) a_i e1^(N-i) e2^i."""
    N = sum(next(iter(F)))
    a = [Fraction(F.get((N - i, i), 0)) / comb(N, i) for i in range(N + 1)]
    h = N // 2
    return det([[a[r + c] for c in range(h + 1)] for r in range(h + 1)])


def proportional(f, g):
    if not f or set(f) != set(g):
        return False
    m0 = next(iter(f))
    ratio = Fraction(g[m0]) / f[m0]
    return all(Fraction(g[m]) == ratio * f[m] for m in f)


def expected_hilbert(n, d):
    """Coefficients of (1 + x + ... + x^(d-2))^n."""
    coeffs = [1]
    for _ in range(n):
        out = [0] * (len(coeffs) + d - 2)
        for i, a in enumerate(coeffs):
            for j in range(d - 1):
                out[i + j] += a
        coeffs = out
    return coeffs


def parsed(text, n, space):
    from assoform.poly import parse_poly

    return dict(parse_poly(text, n, space).items())


def _terms(res):
    return {tuple(m): Fraction(c) for m, c in res["terms"]}


def _form_consistent(res, n, nu):
    """The printed form, its term list and its mu table describe one form."""
    terms = _terms(res)
    if parsed(res["form"], n, "e") != terms:
        return "form text and term list disagree"
    mu = {tuple(m): Fraction(c) for m, c in res["mu"]}
    if mu != {m: c * prod(factorial(e) for e in m) / factorial(nu) for m, c in terms.items()}:
        return "mu table disagrees with the form"
    return None


# --- oracles by operation kind ---


def assoc_diagonal(op, res):
    """Phi(sum a_i z_i^d) = (1/prod a_i) nu!/(d!)^n (e1...en)^(d-2)."""
    n, d = op.n, op.d
    nu = n * (d - 2)
    coeff = Fraction(factorial(nu), factorial(d) ** n) / prod(c for _, c in op.poly)
    if _terms(res) != {(d - 2,) * n: coeff}:
        return "associated form differs from the closed formula"
    return _form_consistent(res, n, nu)


def assoc_dense(op, res):
    """diamond(f_j, Phi) = 0 for every partial and diamond(hess f, Phi) = nu!."""
    n, d = op.n, op.d
    nu = n * (d - 2)
    f = dict(op.poly)
    phi = _terms(res)
    if any(diamond(partial(f, j), phi) for j in range(n)):
        return "a gradient form does not annihilate the associated form"
    if diamond(hessian(f, n), phi) != {(0,) * n: factorial(nu)}:
        return "the Hessian does not pair with the associated form to nu!"
    return _form_consistent(res, n, nu)


def verify(op, res):
    suite, seed, count = op.argv[1], int(op.argv[3]), int(op.argv[5])
    if (res.get("suite"), res.get("seed"), res.get("count")) != (suite, seed, count):
        return "report does not echo its suite, seed and count"
    cases = res.get("cases") or []
    if res.get("pass") is not True or res.get("failures") or not cases:
        return "suite did not pass"
    if not all(c.get("pass") is True for c in cases):
        return "a case did not pass"
    return None


def hilbert(op, res):
    if res.get("hilbert") != expected_hilbert(op.n, op.d):
        return "Hilbert function differs from (1+...+x^(d-2))^n"
    return None


def _inverse_common(op, res):
    n = op.n
    in_u = res.get("in_U")
    if op.in_u is not None and in_u is not op.in_u:
        return f"in_U is {in_u}, expected {op.in_u}"
    basis = res.get("slice_basis")
    if in_u and (basis is None or res.get("slice_dimension") != n):
        return "in_U without an n-dimensional slice"
    if basis is not None:
        if len(basis) != n or res.get("slice_dimension") != n:
            return "slice basis does not match its dimension"
        F = dict(op.poly)
        if any(diamond(parsed(g, n, "z"), F) for g in basis):
            return "a slice form does not annihilate F"
    return None


def inverse_binary(op, res):
    """Binary forms: F is in U exactly when its catalecticant is nonzero."""
    if res.get("in_U") is not (hankel_catalecticant(dict(op.poly)) != 0):
        return "in_U disagrees with the catalecticant criterion"
    return _inverse_common(op, res)


def inverse_higher(op, res):
    """When F is in U, the associated form of its slice is proportional to F."""
    reason = _inverse_common(op, res)
    if reason or not res["in_U"]:
        return reason
    from assoform.milnor import PolyTuple, associated_form_tuple
    from assoform.poly import parse_poly

    n = op.n
    slice_ = PolyTuple([parse_poly(g, n, "z") for g in res["slice_basis"]])
    if not proportional(dict(op.poly), dict(associated_form_tuple(slice_).form.items())):
        return "associated form of the slice is not proportional to F"
    return None


ORACLES = {
    "assoc-diagonal": assoc_diagonal,
    "assoc-dense": assoc_dense,
    "verify": verify,
    "hilbert": hilbert,
    "inverse-binary": inverse_binary,
    "inverse-higher": inverse_higher,
}
