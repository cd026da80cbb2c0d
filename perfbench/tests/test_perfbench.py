"""Tests of the benchmark's own arithmetic: checkers, normalization, spans.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The closed-form checkers are compared with the program's ``wfomc`` at
small domain sizes, on more than one route.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro import parse, wfomc  # noqa: E402
from repro.logic import WeightedVocabulary  # noqa: E402
from repro.weights import WeightPair  # noqa: E402


def _weighted(sentence, pairs):
    vocabulary = WeightedVocabulary.counting(sentence).vocabulary
    weights = {p.name: WeightPair(1, 1) for p in vocabulary}
    weights.update({name: WeightPair(*pair) for name, pair in pairs.items()})
    return WeightedVocabulary(vocabulary, weights)


def _fraction(rng):
    return Fraction(rng.randint(2, 9), rng.randint(2, 9))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("method", ["fo2", "lineage"])
def test_fo2_closed_form_matches_wfomc(n, method):
    sentence = parse(workloads.FO2_SENTENCE)
    rng = random.Random(n)
    w_r, wbar_r, w_s, wbar_s = (_fraction(rng) for _ in range(4))
    wv = _weighted(sentence, {"R": (w_r, wbar_r), "S": (w_s, wbar_s)})
    assert wfomc(sentence, n, wv, options=method) == \
        checks.fo2_sentence_wfomc(n, w_r, wbar_r, w_s, wbar_s)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_theta1_closed_form_matches_wfomc(n):
    machine = workloads.theta1_machine()
    sentence = workloads.encode_theta1(machine, epochs=1).sentence
    accepting = machine.count_accepting(n, 1)
    assert wfomc(sentence, n) == checks.theta1_wfomc(n, accepting)
    w, wbar = Fraction(40503, 32771), Fraction(65535, 49157)
    wv = _weighted(sentence, {"H_0_1_1": (w, wbar)})
    assert wfomc(sentence, n, wv) == \
        checks.theta1_wfomc(n, accepting, w, wbar)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("method", ["fo2", "lineage"])
def test_forall_exists_closed_form_matches_wfomc(n, method):
    sentence = parse(served.FORMULA)
    w = Fraction(10007, 1009)
    wv = _weighted(sentence, {"R": (w, 1)})
    assert wfomc(sentence, n, wv, options=method) == \
        checks.forall_exists_wfomc(n, w)


def test_compiled_sweep_answers_match_closed_form():
    workload = workloads.CompiledSweep()
    workload.setup()
    op = workload.make_op(0, random.Random(7))
    assert workload.check(op, workload.run(op))
    assert workload.direct_check([(op, op.expected)], seed=7)


def test_normalize_rescales_to_reference_speed():
    ref = calibrate.REFERENCE_CALIBRATION_MS
    assert calibrate.normalize(120.0, ref) == pytest.approx(120.0)
    # Twice as slow a machine: the op and its calibration both double.
    assert calibrate.normalize(240.0, 2 * ref) == pytest.approx(120.0)
    assert calibrate.normalize(1.0, 3.0, reference_ms=6.0) == 2.0
    with pytest.raises(ValueError):
        calibrate.normalize(1.0, 0.0)


def test_calibration_is_positive_and_best_of_repeats():
    assert calibrate.calibrate(rounds=200, repeats=2) > 0


def test_percentile_and_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert calibrate.percentile(values, 0.5) == 3.0
    assert calibrate.percentile(values, 0.9) == pytest.approx(4.6)
    assert calibrate.percentile([5.0], 0.99) == 5.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert calibrate.spread(values) == pytest.approx((q3 - q1) / med)


def test_loglog_slope_recovers_degree():
    points = [(n, 0.5 * n ** 3) for n in (8, 12, 16)]
    assert calibrate.loglog_slope(points) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        calibrate.loglog_slope([(4, 1.0), (4, 2.0)])


def test_self_times_subtract_children():
    tracer = tracing.Tracer()
    ms = 1_000_000
    tracer.spans = [
        ["op", 0, 100 * ms, -1],
        ["a", 10 * ms, 60 * ms, 0],
        ["b", 20 * ms, 30 * ms, 1],
        ["b", 70 * ms, 90 * ms, 0],
        ["op", 200 * ms, 250 * ms, -1],
    ]
    tracer.counts = [(1, {"cells": 3}), (4, {"cells": 9})]
    times, counts = tracer.self_times_ms(0)
    assert times == pytest.approx({"op": 30.0, "a": 40.0, "b": 30.0})
    assert counts == {"cells": 3}


def test_wrapped_entry_points_are_restored():
    import importlib

    counter = importlib.import_module("repro.propositional.counter")
    original = counter.CountingEngine.__dict__["run"]
    tracer = tracing.Tracer()
    tracer.install()
    assert counter.CountingEngine.__dict__["run"] is not original
    tracer.uninstall()
    assert counter.CountingEngine.__dict__["run"] is original


def test_result_line_prints_exactly_the_declared_metrics():
    spec = run.load_spec()
    summary = {"correct": True, "attempted": 3, "failed": 0,
               "setup_s": 0.5, "ops_per_s": 2.0, "latency_p50_ms": 1.5,
               "peak_rss_mb": 30.0, "calibration_ms": 6.0,
               "layers": {"other_ms": 0.1}}
    e2e = run.result_line(spec, summary, trace=False)
    assert set(e2e) == {"correct", "attempted", "failed", "metrics"}
    assert list(e2e["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    layered = run.result_line(spec, summary, trace=True)
    assert list(layered["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert layered["metrics"]["other_ms"]["value"] == 0.1


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "fo2_lifted",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == b""
