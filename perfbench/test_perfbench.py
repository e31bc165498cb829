"""Tests of the benchmark itself: oracles, metric names, repeatable counts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def execute(op):
    _, code, stdout, error = run.run_op(run.import_library(), op)
    assert error is None
    return code, stdout


def passing(make, *args):
    op = make(random.Random(7), *args)
    code, stdout = execute(op)
    assert oracles.check(op, code, stdout) is None
    return op, code, json.loads(stdout)


def rejected(op, code, doc):
    return oracles.check(op, code, json.dumps(doc) + "\n") is not None


def test_assoc_oracles_reject_doubled_phi():
    for make in (W.assoc_diagonal, W.assoc_dense):
        op, code, doc = passing(make, 2, 4)
        doc["results"]["terms"] = [[m, str(2 * Fraction(c))] for m, c in doc["results"]["terms"]]
        assert rejected(op, code, doc)


def test_assoc_oracle_rejects_form_text_that_disagrees_with_terms():
    op, code, doc = passing(W.assoc_dense, 3, 3)
    doc["results"]["form"] = "e1^3"
    assert rejected(op, code, doc)


def test_verify_oracle_rejects_a_failed_case():
    op, code, doc = passing(W.verify_op, "quartic", 2)
    doc["results"]["cases"][0]["pass"] = False
    assert rejected(op, code, doc)


def test_hilbert_oracle_rejects_a_shifted_vector():
    op, code, doc = passing(W.hilbert_tuple, 3, 3)
    doc["results"]["hilbert"] = [0] + doc["results"]["hilbert"][:-1]
    assert rejected(op, code, doc)


def test_refusal_oracle_rejects_an_accepted_degenerate_tuple():
    op, code, doc = passing(W.hilbert_common_factor, 2, 4)
    assert code == 2
    assert oracles.check(op, 0, json.dumps(doc) + "\n") is not None


@pytest.mark.parametrize(
    "make, n, d",
    [
        (W.inverse_dense, 2, 5),
        (W.inverse_low_rank, 2, 5),
        (W.inverse_orbit, 2, 5),
        (W.inverse_orbit, 3, 3),
        (W.inverse_low_rank, 3, 3),
    ],
)
def test_inverse_oracles_reject_a_flipped_in_u(make, n, d):
    op, code, doc = passing(make, n, d)
    doc["results"]["in_U"] = not doc["results"]["in_U"]
    assert rejected(op, code, doc)


def test_inverse_oracle_rejects_a_slice_that_does_not_annihilate():
    op, code, doc = passing(W.inverse_orbit, 3, 3)
    assert doc["results"]["in_U"] is True
    doc["results"]["slice_basis"][0] = "z1^2"
    assert rejected(op, code, doc)


def test_digest_mismatch_is_a_failure():
    op, code, doc = passing(W.assoc_diagonal, 2, 4)
    stdout = json.dumps(doc, sort_keys=True) + "\n"
    assert oracles.check(op, code, stdout, {oracles.argv_key(op.argv): "0" * 64}) is not None
    good = {oracles.argv_key(op.argv): oracles.stdout_digest(stdout)}
    assert oracles.check(op, code, stdout, good) is None


def test_certificate_rejects_a_degenerate_tuple():
    z1, z2 = {(1, 0): 1}, {(0, 1): 1}
    assert W.certified_finite_colength([W.mul(z1, z1), W.mul(z2, z2)], 2, 2)
    assert not W.certified_finite_colength([W.mul(z1, z1), W.mul(z1, z2)], 2, 2)


@pytest.mark.parametrize("name", W.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_named_metric(name, trace, section):
    _, result = run.run(name, seed=1, seconds=0, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    def counts():
        _, result = run.run(name, seed=2, seconds=0, trace=1, tiny=True)
        metrics = result["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] != "s" and k != "trace_overhead"}

    first = counts()
    assert first["linalg.eliminations"] > 0 and first["fractions.new_calls"] > 0
    assert counts() == first
