"""Per-layer time and counts, measured by wrapping the library from outside.

A layer is one module of assoform, plus `fractions` for the Fraction
arithmetic underneath them. Every public function of a layer, the methods
of Poly and MatrixQ, and Fraction's constructor and arithmetic are replaced,
in every assoform namespace that holds them, by a wrapper that records calls,
inclusive time (outermost calls only) and self time (inclusive time minus the
time of wrapped callees). Leaving the `with` block restores the originals,
so untraced runs pay nothing. Self time includes the wrappers' own overhead
on callees; `trace_overhead` reports what the wrappers cost in total.
"""

from __future__ import annotations

import functools
import inspect
import logging
import sys
import time
from fractions import Fraction

LAYERS = (
    "cli",
    "suites",
    "sampling",
    "duality",
    "invariants",
    "apolarity",
    "milnor",
    "poly",
    "linalg",
    "fractions",
)
CLASSES = {"poly": ("Poly",), "linalg": ("MatrixQ",)}
CLASS_SKIP = {"__repr__", "__eq__", "__hash__", "__bool__", "__len__", "__getitem__", "__iter__"}
FRACTION_METHODS = (
    "__new__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
)
# the samplers that reject draws; each call returns one accepted draw
REJECTION_SAMPLERS = (
    "random_nondegenerate_form",
    "random_finite_colength_tuple",
    "random_invertible_matrix",
    "random_linear_frame",
)


class _RejectionCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record):
        if record.module == "sampling" and record.msg.startswith("rejected"):
            self.count += 1


class Tracer:
    """Context manager that traces the assoform modules loaded right now."""

    def __init__(self):
        self.stats = {}  # label -> [calls, inclusive seconds, self seconds]
        self.cells = 0
        self.bits_max = 0
        self._stack = [0.0]  # callee time of each open call; bottom is untraced
        self._undo = []
        self._rejections = _RejectionCounter()

    def _wrap(self, label, fn, after=None):
        stats = self.stats.setdefault(label, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        active = [0]

        def traced(*args, **kwargs):
            stack.append(0.0)
            active[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active[0] -= 1
                stats[0] += 1
                stats[2] += elapsed - stack.pop()
                if not active[0]:
                    stats[1] += elapsed
                stack[-1] += elapsed
            if after is not None:
                # bookkeeping is charged to no layer
                start = clock()
                after(args, result)
                stack[-1] += clock() - start
            return result

        return functools.update_wrapper(traced, fn)

    def _echelon_done(self, args, result):
        matrix, _ = result
        self.cells += len(matrix) * (len(matrix[0]) if matrix else 0)
        self.bits_max = max(
            [self.bits_max] + [abs(v).bit_length() for row in matrix for v in row]
        )

    def _wrap_class(self, cls, prefix, names=None):
        wrapped = {}
        for attr, raw in list(vars(cls).items()):
            if names is not None:
                if attr not in names:
                    continue
            elif attr in CLASS_SKIP or (attr.startswith("_") and not attr.startswith("__")):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn, rewrap = raw.__func__, type(raw)
            elif inspect.isfunction(raw):
                fn, rewrap = raw, None
            else:
                continue
            if id(fn) not in wrapped:  # Poly.__rmul__ is Poly.__mul__
                wrapped[id(fn)] = self._wrap(f"{prefix}.{attr}", fn)
            setattr(cls, attr, rewrap(wrapped[id(fn)]) if rewrap else wrapped[id(fn)])
            self._undo.append((cls, attr, raw))

    def __enter__(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "assoform" or name.startswith("assoform.")
        }
        wrappers = {}
        for name, mod in modules.items():
            layer = name.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == name and not attr.startswith("_"):
                    after = self._echelon_done if attr == "row_echelon_int" else None
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj, after))
            for cls_name in CLASSES.get(layer, ()):
                self._wrap_class(vars(mod)[cls_name], f"{layer}.{cls_name}")
        for mod in modules.values():
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    namespace[attr] = entry[1]
                    self._undo.append((namespace, attr, obj))
        self._wrap_class(Fraction, "fractions.Fraction", FRACTION_METHODS)
        logging.getLogger("assoform.sampling").addHandler(self._rejections)
        return self

    def __exit__(self, *exc):
        logging.getLogger("assoform.sampling").removeHandler(self._rejections)
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()
        return False

    # --- summaries ---

    def calls(self, label):
        return self.stats.get(label, (0, 0.0, 0.0))[0]

    def inclusive(self, label):
        return self.stats.get(label, (0, 0.0, 0.0))[1]

    def self_time(self, label):
        return self.stats.get(label, (0, 0.0, 0.0))[2]

    def layer_self(self, layer):
        return sum(v[2] for k, v in self.stats.items() if k.partition(".")[0] == layer)

    def layer_calls(self, layer):
        return sum(v[0] for k, v in self.stats.items() if k.partition(".")[0] == layer)

    def metrics(self, ops, overhead):
        """Per-layer metrics for a traced pass of `ops` operations."""
        accepted = sum(self.calls(f"sampling.{name}") for name in REJECTION_SAMPLERS)
        draws = accepted + self._rejections.count
        eliminations = self.calls("linalg.row_echelon_int")
        values = {
            "linalg.row_echelon_int.s": (self.inclusive("linalg.row_echelon_int"), "s"),
            "linalg.rank_rows.self_s": (self.self_time("linalg.rank_rows"), "s"),
            "linalg.nullspace_rows.self_s": (self.self_time("linalg.nullspace_rows"), "s"),
            "linalg.self_s": (self.layer_self("linalg"), "s"),
            "linalg.cells": (self.cells, "count"),
            "linalg.eliminations": (eliminations, "count"),
            "linalg.eliminations_per_op": (eliminations / ops, "count/op"),
            "linalg.echelon_bits_max": (self.bits_max, "bits"),
            "milnor.is_finite_colength.calls_per_op": (
                self.calls("milnor.is_finite_colength") / ops,
                "calls/op",
            ),
            "milnor.rows_self_s": (
                self.self_time("milnor.ideal_graded_dim") + self.self_time("milnor.socle_functional"),
                "s",
            ),
            "milnor.hilbert_function.calls": (self.calls("milnor.hilbert_function"), "count"),
            "milnor.self_s": (self.layer_self("milnor"), "s"),
            "poly.mul.calls": (self.calls("poly.Poly.__mul__"), "count"),
            "poly.mul.s": (self.inclusive("poly.Poly.__mul__"), "s"),
            "poly.act.calls": (self.calls("poly.act"), "count"),
            "poly.diamond.calls": (self.calls("poly.diamond"), "count"),
            "poly.jacobian.calls": (self.calls("poly.jacobian"), "count"),
            "poly.hessian.calls": (self.calls("poly.hessian"), "count"),
            "poly.parse_render.s": (
                self.inclusive("poly.parse_poly") + self.inclusive("poly.render_poly"),
                "s",
            ),
            "poly.self_s": (self.layer_self("poly"), "s"),
            "fractions.new_calls": (self.calls("fractions.Fraction.__new__"), "count"),
            "fractions.self_s": (self.layer_self("fractions"), "s"),
            "apolarity.annihilator_graded.calls_per_op": (
                self.calls("apolarity.annihilator_graded") / ops,
                "calls/op",
            ),
            "invariants.calls": (self.layer_calls("invariants"), "count"),
            "duality.calls": (self.layer_calls("duality"), "count"),
            "suites.run_suite.calls": (self.calls("suites.run_suite"), "count"),
            "sampling.draws": (draws, "count"),
            # no draws wastes nothing, so the ratio is 1
            "sampling.accept_ratio": (accepted / draws if draws else 1.0, "ratio"),
            "cli.self_s": (self.layer_self("cli"), "s"),
            "trace.ops": (ops, "count"),
            "trace_overhead": (overhead, "ratio"),
        }
        return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}

    def detail(self):
        """Self time of every layer and the full per-function table."""
        return {
            "layer_self_s": {layer: self.layer_self(layer) for layer in LAYERS},
            "functions": {k: v for k, v in sorted(self.stats.items()) if v[0]},
        }
