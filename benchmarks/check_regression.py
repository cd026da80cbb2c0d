"""Benchmark-regression gate for CI: fail on >25% engine slowdowns.

Re-measures the hard ``bench_wmc_ablation`` instances plus the
branching-bound Theta_1 grounding (cold, under both decision heuristics)
and compares them against the committed ``BENCH_engine_v3.json``
baseline.  Raw wall clock is machine-dependent, so every mean is first
normalized by the brute-force enumeration baseline measured *in the same
process on the same machine*: the ratio ``engine_mean /
enumeration_mean`` cancels machine speed and isolates how the engine
performs relative to straight-line Python.  A normalized ratio more than
``--tolerance`` (default 25%) above the committed ratio fails the run.

The Theta_1 instance also gates the *heuristic ablation*: the default
CDCL+EVSIDS engine must stay faster than the learning-free MOMS engine
by at least ``--ablation-floor`` (default 2x), so a regression in the
learned-clause or branching machinery cannot hide behind a fast runner.

The *persistent-cache* gate runs the Theta_1 weight sweep twice in
separate subprocesses sharing one on-disk store (serial and
``workers=2``): the warm process must be at least ``--persist-floor``
(default 2x) faster than the cold one with bit-identical counts — the
warm-start-serving property the cache subsystem exists for.  Disable
with ``--skip-persist``.

The *knowledge-compilation* gate runs the same Theta_1 weight sweep
compile-once-evaluate-k against k direct counts (both from cold
caches): the compiled route must win by at least ``--compile-floor``
(default 2x) with bit-identical results — the amortization property of
:mod:`repro.compile`.  Disable with ``--skip-compile``.

The *batched-evaluation* gate serves the compiled Theta_1 k=32 sweep
in steady state: one ``CompiledWFOMC.evaluate_many`` pass must beat a
loop of scalar ``evaluate`` calls by at least ``--batch-floor``
(default 5x) with bit-identical counts.  Disable with ``--skip-batch``.

The *budget-overhead* gate re-times the cold Theta_1 run with a
generous never-tripping :class:`repro.Budget` attached: the per-
decision/per-conflict budget bookkeeping of the fault-tolerance layer
may add at most ``--budget-overhead`` (default 5%) over the unbudgeted
run.  Plain and budgeted runs are interleaved and timed in process CPU
time.  Disable with ``--skip-budget``.

The *observability-overhead* gate re-times the steady-state compiled
Theta_1 sweep with tracing enabled (span recorder active plus
per-request histogram accounting) against the tracing-off run: the obs
layer may add at most ``--obs-overhead`` (default 5%) with bit-identical
results.  Disable with ``--skip-obs``.

The *serving* gate runs the 32-concurrent same-circuit distinct-weight
``/v1/wfomc`` sweep workload against a coalescing and a non-coalescing
daemon: cross-request coalescing must deliver at least ``--serve-floor``
(default 2x) the uncoalesced throughput with answers bit-identical
between the two modes.  Disable with ``--skip-serve``; ``--only-serve``
runs just this gate (the CI serve-smoke job uses it).

Usage::

    python benchmarks/check_regression.py --baseline BENCH_engine_v3.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: The gated instances: cold-engine runs of the ablation workloads and the
#: cold Theta_1 grounding (a fresh component/key cache per call, so the
#: gate times the real search core — warm figures collapse to cache
#: lookups and would hide a slowdown in propagation/learning/branching).
GATED = ("cold_engine_n2", "cold_engine_n3", "test_theta1_identity_n3")
NORMALIZER = "test_enumeration_baseline"
#: The default engine must beat the MOMS ablation by at least this factor
#: on the branching-bound Theta_1 instance.
ABLATION = ("test_theta1_identity_n3", "theta1_identity_n3_moms")
#: Cold Theta_1 runs per side of the budget-overhead gate.
BUDGET_RUNS = 9


def measure():
    """Current means via the same harness that produced the baseline."""
    from bench_parallel import _measure_ablation_serial, _measure_theta1_ablation

    means = _measure_ablation_serial()
    means.update(_measure_theta1_ablation())
    return means


def check(baseline_path, tolerance, ablation_floor):
    with open(baseline_path) as fh:
        baseline = json.load(fh)["serial"]
    for required in GATED + (NORMALIZER,) + ABLATION:
        if required not in baseline:
            raise SystemExit(
                "baseline {} lacks entry {!r}; regenerate it with "
                "`python benchmarks/bench_parallel.py --emit`".format(
                    baseline_path, required
                )
            )

    base_norm = baseline[NORMALIZER]["v3_mean_s"]

    def evaluate(current):
        curr_norm = current[NORMALIZER]
        failures = []
        for name in GATED:
            committed_ratio = baseline[name]["v3_mean_s"] / base_norm
            current_ratio = current[name] / curr_norm
            regression = current_ratio / committed_ratio - 1.0
            status = "FAIL" if regression > tolerance else "ok"
            print(
                "{:32s} committed {:.5f}  current {:.5f}  drift {:+.1%}  [{}]".format(
                    name, committed_ratio, current_ratio, regression, status
                )
            )
            if regression > tolerance:
                failures.append(name)
        cdcl_name, moms_name = ABLATION
        speedup = current[moms_name] / current[cdcl_name]
        status = "FAIL" if speedup < ablation_floor else "ok"
        print(
            "{:32s} cdcl/evsids vs moms speedup {:.2f}x  (floor {:.1f}x)  [{}]".format(
                "theta1_cdcl_vs_moms", speedup, ablation_floor, status
            )
        )
        if speedup < ablation_floor:
            failures.append("theta1_cdcl_vs_moms")
        return failures

    failures = evaluate(measure())
    if failures:
        # A single noisy window on a shared runner can spike one ratio;
        # only fail when an independent re-measurement confirms it.
        print("over tolerance on {}; re-measuring to confirm...".format(
            ", ".join(failures)))
        failures = evaluate(measure())

    if failures:
        raise SystemExit(
            "benchmark regression >{:.0%} (confirmed twice) on: {}".format(
                tolerance, ", ".join(failures)
            )
        )
    print("benchmark regression check passed (tolerance {:.0%})".format(tolerance))


def check_persist(persist_floor):
    """Warm-vs-cold cross-process sweep gate (serial and workers=2).

    One retry per configuration: subprocess wall clocks on shared
    runners are noisy, and the floor is meant to catch the cache layer
    breaking (warm ~= cold), not a scheduler hiccup.
    """
    from bench_persist import measure_warm_vs_cold

    failures = []
    for workers in (0, 2):
        label = "persist_warm_vs_cold_{}".format(
            "serial" if not workers else "workers{}".format(workers))
        result = measure_warm_vs_cold(workers=workers)
        if not result["bit_identical"]:
            raise SystemExit(
                "{}: warm counts differ from cold counts — the persistent "
                "cache returned a wrong value".format(label))
        speedup = result["speedup"]
        if speedup < persist_floor:
            result = measure_warm_vs_cold(workers=workers)
            if not result["bit_identical"]:
                raise SystemExit(
                    "{}: warm counts differ from cold counts".format(label))
            speedup = result["speedup"]
        status = "FAIL" if speedup < persist_floor else "ok"
        print(
            "{:32s} cold {:.3f}s  warm {:.3f}s  speedup {:.2f}x  "
            "(floor {:.1f}x)  [{}]".format(
                label, result["cold_s"], result["warm_s"], speedup,
                persist_floor, status))
        if speedup < persist_floor:
            failures.append(label)
    if failures:
        raise SystemExit(
            "persistent-cache warm start below {:.1f}x (confirmed twice) "
            "on: {}".format(persist_floor, ", ".join(failures)))
    print("persistent-cache warm-start check passed (floor {:.1f}x)".format(
        persist_floor))


def check_compile(compile_floor):
    """Compile-once-evaluate-k vs k direct counts on the Theta_1 sweep.

    The amortization gate of the knowledge-compilation subsystem: the
    compiled sweep must be at least ``compile_floor`` times faster than
    the same sweep served by repeated direct counts, with bit-identical
    results.  One retry absorbs scheduler noise, exactly like the
    persistent-cache gate.
    """
    from bench_compile import measure_compile_vs_direct

    result = measure_compile_vs_direct()
    if not result["bit_identical"]:
        raise SystemExit(
            "compiled sweep counts differ from direct counts — the "
            "circuit evaluated to a wrong value")
    speedup = result["speedup"]
    if speedup < compile_floor:
        result = measure_compile_vs_direct()
        if not result["bit_identical"]:
            raise SystemExit(
                "compiled sweep counts differ from direct counts")
        speedup = result["speedup"]
    status = "FAIL" if speedup < compile_floor else "ok"
    print(
        "{:32s} direct {:.3f}s  compiled {:.3f}s  speedup {:.2f}x  "
        "(floor {:.1f}x)  [{}]".format(
            "compile_vs_direct_theta1", result["direct_s"],
            result["compiled_s"], speedup, compile_floor, status))
    if speedup < compile_floor:
        raise SystemExit(
            "compiled weight sweep below {:.1f}x over direct counts "
            "(confirmed twice)".format(compile_floor))
    print("knowledge-compilation amortization check passed "
          "(floor {:.1f}x)".format(compile_floor))


def check_batch(batch_floor):
    """One ``evaluate_many`` pass vs a loop of scalar ``evaluate`` calls.

    On the compiled Theta_1 k=32 sweep in steady state, the staged
    batch pass must be at least ``batch_floor`` times faster than the
    scalar loop with bit-identical counts.  One retry absorbs scheduler
    noise, exactly like the other wall-clock gates.
    """
    from bench_compile import measure_batch_vs_scalar

    result = measure_batch_vs_scalar()
    if not result["bit_identical"]:
        raise SystemExit(
            "evaluate_many counts differ from scalar evaluate counts — "
            "the batch pass evaluated to a wrong value")
    speedup = result["speedup"]
    if speedup < batch_floor:
        result = measure_batch_vs_scalar()
        if not result["bit_identical"]:
            raise SystemExit(
                "evaluate_many counts differ from scalar evaluate counts")
        speedup = result["speedup"]
    status = "FAIL" if speedup < batch_floor else "ok"
    print(
        "{:32s} scalar {:.4f}s  batch {:.4f}s  speedup {:.2f}x  "
        "(floor {:.1f}x)  [{}]".format(
            "batch_vs_scalar_theta1", result["scalar_s"], result["batch_s"],
            speedup, batch_floor, status))
    if speedup < batch_floor:
        raise SystemExit(
            "batched evaluation below {:.1f}x over scalar evaluation "
            "(confirmed twice)".format(batch_floor))
    print("batched-evaluation check passed (floor {:.1f}x)".format(
        batch_floor))


def check_serve(serve_floor):
    """Coalesced vs uncoalesced serving on the 32-concurrent sweep.

    The cross-request-coalescing gate of the serving layer: 32
    concurrent same-circuit distinct-weight ``/v1/wfomc`` requests must
    be served at least ``serve_floor`` times faster by the coalescing
    daemon than by the non-coalescing one, with answers bit-identical
    between the two modes.  One retry absorbs scheduler noise, exactly
    like the other wall-clock gates.
    """
    from bench_serve import measure_serve_coalescing

    result = measure_serve_coalescing()
    if not result["bit_identical"]:
        raise SystemExit(
            "coalesced answers differ from uncoalesced answers — the "
            "batched evaluation returned a wrong value")
    speedup = result["speedup"]
    if speedup < serve_floor:
        result = measure_serve_coalescing()
        if not result["bit_identical"]:
            raise SystemExit(
                "coalesced answers differ from uncoalesced answers")
        speedup = result["speedup"]
    status = "FAIL" if speedup < serve_floor else "ok"
    print(
        "{:32s} uncoalesced {:.3f}s  coalesced {:.3f}s  speedup {:.2f}x  "
        "batches {}  (floor {:.1f}x)  [{}]".format(
            "serve_coalescing_x32", result["uncoalesced_s"],
            result["coalesced_s"], speedup, result["batches"],
            serve_floor, status))
    if speedup < serve_floor:
        raise SystemExit(
            "coalesced serving below {:.1f}x over uncoalesced "
            "(confirmed twice)".format(serve_floor))
    print("cross-request-coalescing check passed (floor {:.1f}x)".format(
        serve_floor))


def check_budget_overhead(max_overhead):
    """Budget bookkeeping must stay nearly free on the hot counting path.

    The fault-tolerance layer charges a :class:`repro.Budget` on every
    engine decision and conflict; this gate re-times the cold Theta_1
    grounding with a generous never-tripping budget against the
    unbudgeted run and fails when the relative overhead exceeds
    ``max_overhead``.  The two kinds of run are interleaved, alternating
    which goes first, and timed by this process's CPU clock: wall-clock
    runs timed back to back read the machine's load drifting between
    them as overhead.  Each side is the minimum of ``BUDGET_RUNS`` runs.
    One re-measurement absorbs what noise is left, exactly like the
    other gates.
    """
    import time

    from bench_parallel import _measure_theta1_cold

    def measure():
        from repro.resilience.limits import Budget

        def plain_run():
            return _measure_theta1_cold(repeats=1, clock=time.process_time)

        def budgeted_run():
            return _measure_theta1_cold(
                repeats=1, clock=time.process_time,
                budget=Budget(timeout=3600.0, max_conflicts=10 ** 9,
                              max_decisions=10 ** 9))

        plain, budgeted = [], []
        for i in range(BUDGET_RUNS):
            if i % 2:
                budgeted.append(budgeted_run())
                plain.append(plain_run())
            else:
                plain.append(plain_run())
                budgeted.append(budgeted_run())
        return min(plain), min(budgeted)

    plain, budgeted = measure()
    overhead = budgeted / plain - 1.0
    if overhead > max_overhead:
        plain, budgeted = measure()
        overhead = budgeted / plain - 1.0
    status = "FAIL" if overhead > max_overhead else "ok"
    print(
        "{:32s} plain {:.4f}s  budgeted {:.4f}s  overhead {:+.1%}  "
        "(max {:.0%})  [{}]".format(
            "budget_overhead_theta1", plain, budgeted, overhead,
            max_overhead, status))
    if overhead > max_overhead:
        raise SystemExit(
            "budget bookkeeping overhead {:.1%} exceeds {:.0%} "
            "(confirmed twice)".format(overhead, max_overhead))
    print("budget-overhead check passed (max {:.0%})".format(max_overhead))


def check_obs_overhead(max_overhead):
    """Tracing enabled must stay nearly free on the serving hot path.

    The observability layer promises a daemon can leave tracing on:
    this gate re-times the steady-state compiled Theta_1 k=32 sweep
    with the span recorder active and per-request histogram accounting
    against the tracing-off run (the mean CPU time of each side over
    interleaved off/on pairs, see :func:`bench_obs.measure_obs_overhead`)
    and fails when the relative overhead exceeds ``max_overhead``.  One
    re-measurement absorbs what noise is left, exactly like the other
    gates.
    """
    from bench_obs import measure_obs_overhead

    result = measure_obs_overhead()
    if not result["bit_identical"]:
        raise SystemExit(
            "traced sweep counts differ from untraced counts — the "
            "observability layer changed a result")
    overhead = result["overhead"]
    if overhead > max_overhead:
        result = measure_obs_overhead()
        if not result["bit_identical"]:
            raise SystemExit(
                "traced sweep counts differ from untraced counts")
        overhead = result["overhead"]
    status = "FAIL" if overhead > max_overhead else "ok"
    print(
        "{:32s} off {:.3f}ms  on {:.3f}ms  overhead {:+.1%}  "
        "(max {:.0%})  [{}]".format(
            "obs_overhead_theta1", result["off_s"] * 1e3,
            result["on_s"] * 1e3, overhead, max_overhead, status))
    if overhead > max_overhead:
        raise SystemExit(
            "tracing overhead {:.1%} exceeds {:.0%} "
            "(confirmed twice)".format(overhead, max_overhead))
    print("observability-overhead check passed (max {:.0%})".format(
        max_overhead))


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)  # for bench_parallel
    sys.path.insert(0, os.path.join(here, os.pardir, "src"))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default=os.path.join(here, os.pardir, "BENCH_engine_v3.json"),
        help="committed baseline JSON (default: repo-root BENCH_engine_v3.json)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed relative slowdown before failing (default 0.25)",
    )
    parser.add_argument(
        "--ablation-floor", type=float, default=2.0,
        help="minimum theta1 speedup of the default engine over the MOMS "
             "ablation (default 2.0)",
    )
    parser.add_argument(
        "--persist-floor", type=float, default=2.0,
        help="minimum warm-vs-cold speedup of the persisted Theta_1 "
             "weight sweep across processes (default 2.0)",
    )
    parser.add_argument(
        "--skip-persist", action="store_true",
        help="skip the cross-process persistent-cache gate",
    )
    parser.add_argument(
        "--compile-floor", type=float, default=2.0,
        help="minimum speedup of the compiled Theta_1 weight sweep over "
             "repeated direct counts (default 2.0)",
    )
    parser.add_argument(
        "--skip-compile", action="store_true",
        help="skip the knowledge-compilation amortization gate",
    )
    parser.add_argument(
        "--batch-floor", type=float, default=5.0,
        help="minimum steady-state speedup of one evaluate_many pass over "
             "a loop of scalar evaluate calls on the compiled Theta_1 "
             "k=32 sweep (default 5.0)",
    )
    parser.add_argument(
        "--skip-batch", action="store_true",
        help="skip the batched-evaluation gate",
    )
    parser.add_argument(
        "--budget-overhead", type=float, default=0.05,
        help="maximum relative slowdown a generous never-tripping budget "
             "may add to the cold Theta_1 run (default 0.05)",
    )
    parser.add_argument(
        "--skip-budget", action="store_true",
        help="skip the budget-bookkeeping overhead gate",
    )
    parser.add_argument(
        "--obs-overhead", type=float, default=0.05,
        help="maximum relative slowdown enabled tracing may add to the "
             "steady-state compiled Theta_1 sweep (default 0.05)",
    )
    parser.add_argument(
        "--skip-obs", action="store_true",
        help="skip the observability-overhead gate",
    )
    parser.add_argument(
        "--serve-floor", type=float, default=2.0,
        help="minimum throughput speedup of the coalescing daemon over "
             "the non-coalescing one on the 32-concurrent same-circuit "
             "sweep workload (default 2.0)",
    )
    parser.add_argument(
        "--skip-serve", action="store_true",
        help="skip the cross-request-coalescing serving gate",
    )
    parser.add_argument(
        "--only-serve", action="store_true",
        help="run only the cross-request-coalescing serving gate (used "
             "by the CI serve-smoke job)",
    )
    args = parser.parse_args()
    if args.only_serve:
        check_serve(args.serve_floor)
        return
    check(args.baseline, args.tolerance, args.ablation_floor)
    if not args.skip_persist:
        check_persist(args.persist_floor)
    if not args.skip_compile:
        check_compile(args.compile_floor)
    if not args.skip_batch:
        check_batch(args.batch_floor)
    if not args.skip_budget:
        check_budget_overhead(args.budget_overhead)
    if not args.skip_obs:
        check_obs_overhead(args.obs_overhead)
    if not args.skip_serve:
        check_serve(args.serve_floor)


if __name__ == "__main__":
    main()
