"""One library workload in a fresh process: a set-up probe or a timed window.

``worker.py probe --workload W`` measures one cold set-up: a calibration,
then the time from before ``import repro`` until the first op can be
sent.  ``worker.py window --workload W --seed S --seconds T [--trace]``
runs the closed loop for ``T`` seconds and prints the window's metrics.
Both print one JSON object on the last line of standard output.

In the window every op is made cold outside its timer, then paired with
a calibration taken just before it (see ``calibrate.py``).

With ``--trace`` whole groups of ops alternate between traced and
untraced (a group is one op, or one op per size for ``fo2_lifted``), so
the traced run measures its own overhead against untraced ops taken
under the same conditions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    return workloads


def probe(name, import_only):
    calibration_ms = calibrate.calibrate()
    started = time.perf_counter()
    workloads = _import_program()
    if not import_only:
        workloads.WORKLOADS[name]().setup()
    return {"setup_s": time.perf_counter() - started,
            "calibration_ms": calibration_ms}


def window(name, seed, seconds, trace, spans_path):
    workloads = _import_program()
    workload = workloads.WORKLOADS[name]()
    workload.setup()
    rng = random.Random(seed)
    group = len(workloads.FO2_SIZES) if name == "fo2_lifted" else 1

    tracer = None
    setup_layers = {}
    if trace:
        import tracing

        tracer = tracing.Tracer()
        if name == "compiled_sweep":
            # Trace one more cold compile: the set-up's layer split.
            workloads.clear_compile_cache()
            workload.cold()
            gc.collect()
            scale = calibrate.normalize(1.0, calibrate.calibrate())
            tracer.install()
            root = tracer.open("compile")
            workload.setup()
            tracer.close(root)
            tracer.uninstall()
            times, _ = tracer.self_times_ms(root)
            ground = (times.get("grounding.lineage", 0.0)
                      + times.get("propositional.cnf", 0.0))
            setup_layers = {
                "compile.trace_ms": times.get("compile.trace", 0.0) * scale,
                "compile.ground_ms": ground * scale,
                "compile.circuit_nodes": workload.compiled.stats()["nodes"],
            }

    records = []
    answered = []
    failed = 0
    started = time.perf_counter()
    index = 0
    # Whole groups only, so every size weighs the same in ``ops_per_s``.
    while time.perf_counter() - started < seconds or index % group:
        op = workload.make_op(index, rng)
        traced = tracer is not None and (index // group) % 2 == 1
        workload.cold()
        gc.collect()
        calibration_ms = calibrate.calibrate()
        if traced:
            tracer.install()
            root = tracer.open("op")
        t0 = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception as exc:  # noqa: BLE001 -- an op that raises fails
            elapsed = time.perf_counter() - t0
            print("op {} raised {!r}".format(index, exc), file=sys.stderr)
            result = exc
            ok = False
        else:
            elapsed = time.perf_counter() - t0
            ok = workload.check(op, result)
        scale = calibrate.normalize(1.0, calibration_ms)
        record = {"size": op.size, "raw_ms": elapsed * 1000.0,
                  "calibration_ms": calibration_ms,
                  "ms": elapsed * 1000.0 * scale, "traced": traced}
        if traced:
            tracer.close(root)
            tracer.uninstall()
            times, record["counts"] = tracer.self_times_ms(root)
            record["layers"] = {k: v * scale for k, v in times.items()}
        if name == "grounded_cdcl":
            record["engine"] = workload.engine_counts()
        records.append(record)
        if ok:
            answered.append((op, result))
        else:
            failed += 1
            print("op {} returned a wrong answer".format(index),
                  file=sys.stderr)
        index += 1

    direct_ok = True
    if name == "compiled_sweep" and answered:
        direct_ok = workload.direct_check(answered, seed)
    if tracer is not None and spans_path:
        tracer.dump(spans_path)
    return summarize(name, records, failed, direct_ok, setup_layers,
                     workloads)


def summarize(name, records, failed, direct_ok, setup_layers, workloads):
    """The window's end-to-end, per-layer and diagnostic figures."""
    reported = workloads.FO2_REPORTED_SIZE if name == "fo2_lifted" else None

    def at_reported(r):
        return reported is None or r["size"] == reported

    plain = [r for r in records if not r["traced"]]
    timed = [r["ms"] for r in plain if at_reported(r)]
    raw = [r["raw_ms"] for r in plain if at_reported(r)]
    summary = {
        "attempted": len(records),
        "failed": failed,
        "correct": failed == 0 and direct_ok and bool(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "calibration_ms": statistics.median(
            r["calibration_ms"] for r in records),
    }
    if timed:
        summary.update({
            "latency_p50_ms": statistics.median(timed),
            "latency_p90_ms": calibrate.percentile(timed, 0.9),
            "latency_p99_ms": calibrate.percentile(timed, 0.99),
            "raw_p50_ms": statistics.median(raw),
            "raw_p90_ms": calibrate.percentile(raw, 0.9),
            "samples": len(timed),
            "ops_per_s": len(plain) / (sum(r["ms"] for r in plain) / 1000.0),
        })
    if name == "fo2_lifted":
        by_size = {}
        for r in plain:
            by_size.setdefault(r["size"], []).append(r["ms"])
        points = [(n, statistics.median(ms))
                  for n, ms in sorted(by_size.items())]
        summary["size_p50_ms"] = {str(n): ms for n, ms in points}
        if len(points) > 1:
            summary["fo2_degree"] = calibrate.loglog_slope(points)

    traced = [r for r in records if r["traced"] and at_reported(r)]
    if traced:
        layers = {}
        for key in ("logic.scott", "wfomc.fo2.tables", "wfomc.fo2.recursion",
                    "grounding.lineage", "propositional.cnf",
                    "propositional.engine", "compile.evaluate"):
            layers[key + "_ms"] = statistics.median(
                r["layers"].get(key, 0.0) for r in traced)
        layers["wfomc.fo2.cells"] = statistics.median(
            r["counts"].get("wfomc.fo2.cells", 0) for r in traced)
        layers["other_ms"] = statistics.median(
            r["layers"]["op"] for r in traced)
        traced_p50 = statistics.median(r["ms"] for r in traced)
        layers["trace_overhead_pct"] = (
            (traced_p50 / summary["latency_p50_ms"] - 1.0) * 100.0
            if timed else 0.0)
        layers.update(setup_layers)
        summary["layers"] = layers
    engine = [r["engine"] for r in records if "engine" in r]
    if engine:
        summary["engine"] = {
            key: statistics.median(e[key] for e in engine)
            for key in engine[0]}
        summary["engine_counts_steady"] = all(e == engine[0] for e in engine)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "window"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="file the traced run writes its spans to")
    args = parser.parse_args(argv)
    if args.mode == "probe":
        out = probe(args.workload, args.import_only)
    else:
        out = window(args.workload, args.seed, args.seconds, args.trace,
                     args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
