"""Command-line front end: exact JSON reports over the library operations.

stdout carries a single JSON document with sorted keys and all rationals
rendered as num/den strings, so a fixed seed produces byte-identical
output; timing and progress go to stderr. Exit codes: 0 success, 1
verification failure, 2 invalid or degenerate input (usage errors
included), 3 parse error, 4 internal error. Every error prints the error
document, never a traceback.

Each subcommand is a thin wrapper over the library: `invariant` looks
its name up in `invariants.INVARIANTS`, and `duality-scan` prints one
`duality.scan_point` row per parameter.
"""

from __future__ import annotations

import argparse
import enum
import json
import logging
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .apolarity import apolar_tuple
from .duality import INFINITY, Family, FamilyPoint, scan_point
from .errors import InputError, NondegeneracyError, PolyParseError
from .invariants import INVARIANTS
from .milnor import PolyTuple, associated_form, hilbert_function, is_finite_colength
from .poly import Poly, Space, grlex_key, parse_poly, render_poly
from .suites import SUITE_NAMES, run_suite


@dataclass
class Report:
    command: str
    inputs: dict
    results: dict
    status: str
    timing_ms: int = 0

    def to_json(self):
        # timing stays off the canonical document so identical seeds give
        # byte-identical reports; it is echoed on stderr instead
        doc = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "status": self.status,
        }
        return json.dumps(_jsonable(doc), sort_keys=True)


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if v is INFINITY:
        return "Infinity"
    if isinstance(v, enum.Enum):
        return v.value
    if isinstance(v, Poly):
        return render_poly(v)
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _infer_space(text):
    has_z = "z" in text
    has_e = "e" in text
    if has_z and has_e:
        raise InputError("polynomial mixes z and e variables")
    return Space.E if has_e else Space.Z


def _parse_input(text, nvars, space=None):
    if nvars < 1:
        raise InputError(f"number of variables must be positive, got {nvars}")
    f = parse_poly(text, nvars, _infer_space(text))
    return f if space is None or f.space is space else f.retag(space)


def _poly_terms(p):
    return [[list(m), str(c)] for m, c in p.items()]


def cmd_assoc(text, nvars, degree):
    f = _parse_input(text, nvars, Space.Z)
    if not f or not f.is_homogeneous() or f.degree() != degree:
        raise InputError(f"input is not a nonzero homogeneous form of degree {degree}")
    af = associated_form(f)
    mu = sorted(af.mu.items(), key=lambda kv: grlex_key(kv[0]))
    return Report(
        command="assoc",
        inputs={"poly": render_poly(f), "nvars": nvars, "degree": degree},
        results={
            "form": render_poly(af.form),
            "terms": _poly_terms(af.form),
            "mu": [[list(m), str(v)] for m, v in mu],
        },
        status="pass",
    )


def cmd_verify(suite, seed, count):
    result = run_suite(suite, seed, count)
    return Report(
        command="verify",
        inputs={"suite": suite, "seed": seed, "count": count},
        results=result,
        status="pass" if result["pass"] else "fail",
    )


def cmd_inverse_system(text, nvars, degree):
    F = _parse_input(text, nvars, Space.E)
    slice_or_not = apolar_tuple(F, degree)
    if isinstance(slice_or_not, PolyTuple):
        results = {
            "in_U": is_finite_colength(slice_or_not),
            "slice_dimension": nvars,
            "slice_basis": [render_poly(g) for g in slice_or_not.forms],
        }
    else:
        results = {
            "in_U": False,
            "slice_dimension": slice_or_not.dimension,
            "slice_basis": None,
        }
    return Report(
        command="inverse-system",
        inputs={"poly": render_poly(F), "nvars": nvars, "degree": degree},
        results=results,
        status="pass",
    )


def cmd_invariant(name, text, nvars=None):
    if nvars is None:
        nvars = max(map(int, re.findall(r"[ze](\d+)", text)), default=0)
        if nvars == 0:
            raise InputError("cannot infer the variable count; pass --n")
    f = _parse_input(text, nvars)
    return Report(
        command="invariant",
        inputs={"name": name, "poly": render_poly(f), "nvars": nvars},
        results={"value": INVARIANTS[name](f)},
        status="pass",
    )


def cmd_hilbert(texts):
    n = len(texts)
    forms = [_parse_input(t, n, Space.Z) for t in texts]
    ft = PolyTuple(forms)
    values = hilbert_function(ft)
    return Report(
        command="hilbert",
        inputs={"forms": [render_poly(f) for f in forms], "nvars": n},
        results={"hilbert": values},
        status="pass",
    )


def cmd_duality_scan(family_name, ts):
    family = Family(family_name)
    return Report(
        command="duality-scan",
        inputs={"family": family, "t": ts},
        results={"points": [scan_point(FamilyPoint(family, t)) for t in ts]},
        status="pass",
    )


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    # usage errors become error documents instead of argparse's exit 2
    def error(self, message):
        raise InputError(message)


def _build_parser():
    parser = _Parser(
        prog="assoform",
        description="Exact associated forms, classical invariants, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assoc", help="associated form of a nondegenerate form")
    p.add_argument("poly")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--d", type=int, required=True, help="degree of the input form")
    p.set_defaults(run=lambda a: cmd_assoc(a.poly, a.n, a.d))

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=25)
    p.set_defaults(run=lambda a: cmd_verify(a.suite, a.seed, a.count))

    p = sub.add_parser(
        "inverse-system", help="degree-(d-1) apolar slice and membership in U"
    )
    p.add_argument("poly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True, help="source degree d")
    p.set_defaults(run=lambda a: cmd_inverse_system(a.poly, a.n, a.d))

    p = sub.add_parser("invariant", help="evaluate a classical invariant")
    p.add_argument("name", choices=INVARIANTS)
    p.add_argument("poly")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(run=lambda a: cmd_invariant(a.name, a.poly, a.n))

    p = sub.add_parser("hilbert", help="Hilbert function of a finite-colength tuple")
    p.add_argument("forms", nargs="+")
    p.set_defaults(run=lambda a: cmd_hilbert(a.forms))

    p = sub.add_parser(
        "duality-scan", help="involution status and J transforms along a family"
    )
    p.add_argument("family", choices=[f.value for f in Family])
    p.add_argument(
        "--t",
        required=True,
        help="comma-separated rationals; write --t=-6,1 when the first is negative",
    )
    p.set_defaults(
        run=lambda a: cmd_duality_scan(
            a.family, [_parse_rational(x) for x in a.t.split(",")]
        )
    )
    return parser


def _emit_error(command, exc, code):
    detail = {"message": str(exc)}
    if isinstance(exc, PolyParseError):
        detail["position"] = exc.position
    if isinstance(exc, NondegeneracyError) and exc.degree is not None:
        detail["degree"] = exc.degree
    report = Report(command=command, inputs={}, results={"error": detail}, status="error")
    print(report.to_json())
    print(f"error: {exc}", file=sys.stderr)
    return code


def _configure_logging():
    # bind the package logger to the current stderr on every invocation
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    pkg_logger = logging.getLogger("assoform")
    pkg_logger.handlers[:] = [handler]
    pkg_logger.setLevel(logging.INFO)


def main(argv=None):
    _configure_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    start = time.monotonic()
    # integers of any length are read and printed exactly, past Python's
    # int/str conversion limit, for this call only
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        report = args.run(args)
        report.timing_ms = int((time.monotonic() - start) * 1000)
        print(report.to_json())
    except PolyParseError as exc:
        return _emit_error(command, exc, 3)
    except InputError as exc:
        return _emit_error(command, exc, 2)
    except Exception as exc:
        return _emit_error(command, exc, 4)
    finally:
        sys.set_int_max_str_digits(digit_limit)
    print(f"completed in {report.timing_ms} ms", file=sys.stderr)
    return 0 if report.status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
