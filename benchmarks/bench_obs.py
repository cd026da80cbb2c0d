"""Observability overhead: tracing enabled must stay within 5%.

The obs subsystem's contract is *near-zero cost*: spans are a single
``None`` check when tracing is off, and cheap enough when it is on that
an operator can leave tracing enabled on a production daemon.  This
module measures both sides of that contract on the steady-state Theta_1
serving workload (the compiled k=32 weight sweep served by one
``evaluate_many`` pass — the same instance every other serving gate
uses):

* ``off_s`` — the instrumented code paths with tracing disabled, i.e.
  what every ordinary run pays for the instrumentation existing at all;
* ``on_s`` — the same workload with the ring-buffer recorder installed
  and a latency histogram observation per evaluation, i.e. what a
  traced daemon pays.

Both are mean CPU seconds per sweep over interleaved off/on pairs.
``check_regression.py --obs-overhead`` gates ``on_s / off_s - 1`` at
5% with bit-identical results on every run.  Running this
module as a script prints the measurement; ``--emit`` writes
``BENCH_obs.json`` next to the repo's other baseline documents::

    python benchmarks/bench_obs.py [--emit]
"""

from __future__ import annotations

import argparse
import json
import os
import time


def _workload_helpers():
    # Importable both as ``benchmarks.bench_obs`` (pytest collects the
    # directory as a package) and as a bare script/module the way
    # ``check_regression.py`` loads it (benchmarks/ on sys.path).
    try:
        from .bench_compile import _cold_caches, _theta1_sweep_instance
    except ImportError:
        from bench_compile import _cold_caches, _theta1_sweep_instance
    return _cold_caches, _theta1_sweep_instance


#: Interleaved off/on pairs per measurement.
OBS_PAIRS = 400


def measure_obs_overhead(sweep_size=32, n=3, pairs=OBS_PAIRS):
    """Steady-state compiled sweep: tracing off vs tracing on.

    Compiles the Theta_1 circuit once, primes the evaluation caches,
    then times ``evaluate_many`` over the ``sweep_size`` weight
    vocabularies with the obs layer disabled and enabled.  The enabled
    side carries the full per-request observability cost a serving
    daemon adds: the recorder active (so every ``span()`` in the
    compile/evaluate path records), plus one histogram observation per
    sweep, mirroring the daemon's per-request latency accounting.

    One sweep takes well under a millisecond, where a best-of-5 wall
    clock reads scheduler noise several times larger than the cost
    bounded here.  So the sides run as ``pairs`` interleaved off/on
    pairs, alternating which goes first, each run timed by this
    process's CPU clock, and each side reports the mean of its runs.
    """
    from repro.compile import compile_wfomc
    from repro.obs import (
        Histogram,
        disable_tracing,
        enable_tracing,
        span,
    )

    _cold_caches, _theta1_sweep_instance = _workload_helpers()
    sentence, vocabularies = _theta1_sweep_instance(sweep_size)
    _cold_caches()
    compiled = compile_wfomc(sentence, n, method="lineage")
    baseline = compiled.evaluate_many(vocabularies)
    disable_tracing()
    hist = Histogram()

    def traced_sweep():
        start = time.perf_counter()
        with span("request", cat="bench", k=len(vocabularies)):
            result = compiled.evaluate_many(vocabularies)
        hist.record(time.perf_counter() - start)
        return result

    seconds = {False: 0.0, True: 0.0}
    identical = True
    events = 0
    for i in range(pairs):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            # Tracing is toggled outside the timer.
            recorder = enable_tracing() if traced else None
            try:
                start = time.process_time()
                result = (traced_sweep() if traced
                          else compiled.evaluate_many(vocabularies))
                seconds[traced] += time.process_time() - start
            finally:
                disable_tracing()
            identical = identical and result == baseline
            events += len(recorder) if traced else 0

    off_s = seconds[False] / pairs
    on_s = seconds[True] / pairs
    identical = identical and hist.snapshot()["count"] == pairs
    return {
        "sweep_size": sweep_size,
        "n": n,
        "pairs": pairs,
        "off_s": off_s,
        "on_s": on_s,
        "overhead": on_s / off_s - 1.0,
        "bit_identical": identical,
        "events_recorded": events,
    }


# -- pytest-benchmark smoke test (CI keeps the traced path alive) ------------


def test_obs_smoke_traced_sweep_bit_identical(benchmark):
    from fractions import Fraction

    from repro.compile import compile_wfomc
    from repro.logic.parser import parse
    from repro.logic.syntax import predicates_of
    from repro.logic.vocabulary import WeightedVocabulary
    from repro.obs import disable_tracing, enable_tracing

    f = parse("forall x, y. (R(x) | S(x, y) | T(y))")
    arities = predicates_of(f)
    vocabularies = [
        WeightedVocabulary.from_weights(
            {name: (Fraction(k, 3), 1) for name in arities}, arities)
        for k in range(1, 7)
    ]
    compiled = compile_wfomc(f, 2, method="lineage")
    plain = compiled.evaluate_many(vocabularies)

    recorder = enable_tracing()
    try:
        traced = benchmark(lambda: compiled.evaluate_many(vocabularies))
    finally:
        disable_tracing()
    assert traced == plain
    assert len(recorder) > 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--emit", action="store_true",
        help="write BENCH_obs.json at the repo root")
    args = parser.parse_args()
    result = measure_obs_overhead()
    print(json.dumps(result, indent=2))
    if args.emit:
        out = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "BENCH_obs.json")
        with open(out, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print("wrote {}".format(os.path.normpath(out)))
