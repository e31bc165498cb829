"""Benchmark of the assoform CLI; see README.md in this directory.

    python3 perfbench/run.py --workload assoc-ladder --seed 1 --seconds 20 --trace 0

Runs in one process and one thread. Each operation is one in-process call
of assoform.cli.main(argv) with stdout and stderr captured. Operations run
in whole cycles until --seconds of operation time have passed; every result
is then checked exactly. The last line of stdout is the JSON result; the line
before it holds run metadata and details.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

import oracles  # noqa: E402
from workloads import PROBE_LIMIT_S, WORKLOADS, Workload  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 3
# cycles in the traced pass; fixed, so its counts repeat exactly per seed
TRACE_CYCLES = {"assoc-ladder": 1, "verify-suites": 6, "inverse-systems": 4}
TAIL_BEYOND = 10  # the tail percentile has this many samples above it


class ProbeTimeout(BaseException):
    """Raised by the interval timer; BaseException so no library handler eats it."""


def run_op(cli, op):
    """(seconds, exit code, stdout, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a failed run
            error = repr(exc)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error


def import_library():
    for name in [m for m in sys.modules if m == "assoform" or m.startswith("assoform.")]:
        del sys.modules[name]
    import assoform.cli

    return assoform.cli


def setup(name, seed, tiny):
    """Import, first cycle of inputs, warm-up; the last repeat is kept."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_library()
        workload = Workload(name, seed, tiny)
        warmup = workload.warmup()
        probe = workload.probe()
        first = workload.cycle()
        for op in warmup:
            run_op(cli, op)
        samples.append(time.perf_counter() - start)
    return cli, workload, probe, first, samples


class Results:
    """Checks results outside the timed window and tallies failures."""

    def __init__(self, digests, record):
        self.digests = digests
        self.record = record
        self.attempted = 0
        self.failures = []

    def add(self, op, code, stdout, error):
        self.attempted += 1
        reason = f"raised {error}" if error else oracles.check(op, code, stdout, self.digests)
        if reason:
            self.failures.append({"argv": list(op.argv)[:2], "reason": reason})
        elif op.digest and self.record is not None:
            self.record[oracles.argv_key(op.argv)] = oracles.stdout_digest(stdout)
        return reason is None


def timed_pass(cli, workload, first, seconds):
    """Whole cycles until `seconds` of operation time; returns per-op records."""
    records = []
    cycle = first
    total = 0.0
    while True:
        for op in cycle:
            elapsed, code, stdout, error = run_op(cli, op)
            total += elapsed
            records.append((op, elapsed, code, stdout, error))
        if total >= seconds:
            return records
        cycle = workload.cycle()


def probe_ceiling(cli, rungs, results):
    """Count of leading probe rungs that finish within the limit, correctly."""
    def expire(signum, frame):
        raise ProbeTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    passed, times = 0, []
    try:
        for op in rungs:
            try:
                signal.setitimer(signal.ITIMER_REAL, PROBE_LIMIT_S)
                elapsed, code, stdout, error = run_op(cli, op)
                signal.setitimer(signal.ITIMER_REAL, 0)
            except ProbeTimeout:
                times.append(None)
                break
            times.append(elapsed)
            if not results.add(op, code, stdout, error):
                break
            passed += 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return passed, times


def metadata():
    lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_lines": lines,
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def run(name, seed, seconds, trace, tiny=False, record=None):
    """One benchmark run; returns (detail, result) dictionaries."""
    digests = {} if record is not None else load_digests(name)
    cli, workload, probe, first, setup_samples = setup(name, seed, tiny)
    # drawn before the timed pass, so they do not depend on its cycle count
    trace_ops = [op for _ in range(TRACE_CYCLES[name] if trace else 0) for op in workload.cycle()]
    records = timed_pass(cli, workload, first, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = Results(digests, record)
    for op, _, code, stdout, error in records:
        results.add(op, code, stdout, error)
    times = [r[1] for r in records]
    detail = {"workload": name, "seed": seed, "meta": metadata(), "setup_s": setup_samples}

    if trace:
        from tracer import Tracer

        traced = []
        with Tracer() as tracer:
            for op in trace_ops:
                traced.append((op, *run_op(cli, op)))
        for op, _, code, stdout, error in traced:
            results.add(op, code, stdout, error)
        untraced_per_op = sum(times) / len(times)
        traced_per_op = sum(r[1] for r in traced) / len(traced)
        metrics = tracer.metrics(len(trace_ops), traced_per_op / untraced_per_op)
        detail["trace"] = tracer.detail()
    else:
        rung, rung_times = probe_ceiling(cli, probe, results)
        ranked = sorted(times)
        tail_index = max(len(ranked) - TAIL_BEYOND - 1, 0)
        detail["ops"] = len(times)
        detail["op_tail_percentile"] = 100 * (tail_index + 1) / len(ranked)
        detail["probe_s"] = rung_times
        values = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_ms": (statistics.median(times) * 1000, "ms"),
            "op_tail_ms": (ranked[tail_index] * 1000, "ms"),
            "ok_ratio": (1 - len(results.failures) / results.attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ceiling_rung": (rung, "count"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    detail["failures"] = results.failures[:20]
    result = {
        "correct": not results.failures,
        "attempted": results.attempted,
        "failed": len(results.failures),
        "metrics": metrics,
    }
    return detail, result


def load_digests(name):
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(name, {})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="store the SHA-256 of each passing assoc/verify stdout in digests.json",
    )
    args = parser.parse_args(argv)

    if not (SRC / "assoform" / "cli.py").is_file():
        print(f"assoform sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the suites' thread-count variable would change what is measured
    os.environ.pop("ASSOFORM_THREADS", None)

    record = {} if args.record_digests else None
    detail, result = run(args.workload, args.seed, args.seconds, args.trace, record=record)
    if record is not None:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        table[args.workload] = dict(sorted(record.items()))
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
