"""Benchmark of the WFOMC stack: one workload per run, metrics as JSON.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fo2_lifted --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones; the line before it holds diagnostics (p90, p99, raw
wall times, calibration, ``fo2_degree``).  Inputs come from ``--seed``
and every answer is checked.

``--repeat N`` runs the workload (every workload when ``--workload`` is
omitted) ``N`` times with seeds ``seed``, ``seed + 1``, ... and prints
every metric's median and spread (IQR over median): the steadiness
evidence for the bounds in ``BENCHMARK.json``.

Library workloads (``fo2_lifted``, ``grounded_cdcl``, ``compiled_sweep``)
run in fresh worker processes (``worker.py``) and report times at the
reference machine speed of ``calibrate.py``; ``served`` drives a
``repro serve`` daemon (``served.py``) and reports raw wall time.
Every process the benchmark starts gets a fresh ``REPRO_CACHE_DIR``
under ``.perfbench-tmp/`` and runs without ``REPRO_STORE_URL`` and
``REPRO_FAULT_PLAN``; traced runs write their spans to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
PROGRAM = os.path.join(ROOT, "src", "repro", "__init__.py")
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")
SPANS_DIR = os.path.join(ROOT, ".perfbench-out")

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: A run must end within this many seconds.
RUN_BUDGET_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Runner:
    """Starts the benchmark's processes under one deadline and scratch dir."""

    def __init__(self, deadline):
        self.deadline = deadline
        os.makedirs(SCRATCH, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)

    def env(self):
        """A fresh environment for one child process."""
        env = dict(os.environ)
        env.pop("REPRO_STORE_URL", None)
        env.pop("REPRO_FAULT_PLAN", None)
        env["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="cache-",
                                                  dir=self.scratch)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        return env

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchmarkError("run budget exhausted")
        return left

    def worker(self, *args):
        """Run ``worker.py`` and return its JSON result."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=self.env(),
                                  stdout=subprocess.PIPE,
                                  stdin=subprocess.DEVNULL,
                                  timeout=self.remaining(), check=False)
        except subprocess.TimeoutExpired:
            raise BenchmarkError("worker timed out: {}".format(args)) from None
        if done.returncode != 0:
            raise BenchmarkError("worker failed ({}): {}".format(
                done.returncode, args))
        return json.loads(done.stdout.decode().strip().splitlines()[-1])

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


def spans_path(workload, seed):
    os.makedirs(SPANS_DIR, exist_ok=True)
    return os.path.join(SPANS_DIR, "spans-{}-seed{}.json".format(workload,
                                                                 seed))


def library_run(runner, workload, seed, seconds, trace):
    summary = {}
    if not trace:
        # The first probe after a checkout also writes bytecode caches.
        runner.worker("probe", "--workload", workload, "--import-only")
        setups = []
        for _ in range(SETUP_PROBES):
            probe = runner.worker("probe", "--workload", workload)
            setups.append(calibrate.normalize(probe["setup_s"],
                                              probe["calibration_ms"]))
        summary["setup_s"] = statistics.median(setups)
        summary["setup_runs_s"] = setups
    args = ["window", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if trace:
        args += ["--trace", "--spans", spans_path(workload, seed)]
    summary.update(runner.worker(*args))
    return summary


def measure(workload, seed, seconds, trace):
    runner = Runner(time.monotonic() + RUN_BUDGET_S)
    try:
        if workload == "served":
            import served

            return served.run(ROOT, runner.env, runner.scratch, seed, seconds,
                              trace,
                              spans_path=spans_path(workload, seed)
                              if trace else None,
                              spawns=1 if trace else served.SETUP_SPAWNS)
        return library_run(runner, workload, seed, seconds, trace)
    finally:
        runner.close()


def result_line(spec, summary, trace):
    """The final JSON object: every metric of the requested kind."""
    metrics = {}
    if trace:
        layers = dict(summary.get("layers", {}))
        layers["calibration_ms"] = summary["calibration_ms"]
        engine = summary.get("engine", {})
        for key, value in engine.items():
            layers["engine." + key] = value
        if "fo2_degree" in summary:
            layers["fo2_degree"] = summary["fo2_degree"]
        for metric in spec["per_layer"]:
            metrics[metric["name"]] = {
                "value": layers.get(metric["name"], 0.0),
                "unit": metric["unit"]}
    else:
        for metric in spec["end_to_end"]:
            metrics[metric["name"]] = {"value": summary[metric["name"]],
                                       "unit": metric["unit"]}
    return {"correct": bool(summary["correct"]),
            "attempted": int(summary["attempted"]),
            "failed": int(summary["failed"]),
            "metrics": metrics}


def repeat(args, spec, workload):
    """Run ``workload`` ``args.repeat`` times; print medians and spreads."""
    per_metric = {}
    for offset in range(args.repeat):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed + offset),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, timeout=600,
                              check=True)
        lines = done.stdout.decode().strip().splitlines()
        result = json.loads(lines[-1])
        diagnostics = json.loads(lines[-2])["diagnostics"]
        values = {name: m["value"] for name, m in result["metrics"].items()}
        for name, value in diagnostics.items():
            if isinstance(value, (int, float)) and name not in values:
                values["diag." + name] = value
        values["correct"] = float(result["correct"])
        values["failed"] = result["failed"]
        for name, value in values.items():
            per_metric.setdefault(name, []).append(value)
        print(json.dumps({"seed": args.seed + offset, **values}), flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for name, values in per_metric.items():
        med = statistics.median(values)
        row = {"median": med, "min": min(values), "max": max(values)}
        if len(values) >= 2 and med:
            row["spread"] = calibrate.spread(values)
        if bounds.get(name) is not None:
            row["bound"] = bounds[name]
        report[name] = row
        print("{:32s} median {:12.5g}  spread {:>7}  [{:.5g} .. {:.5g}]"
              .format(name, med,
                      "{:.2%}".format(row["spread"]) if "spread" in row
                      else "-", row["min"], row["max"]))
    print(json.dumps({"workload": workload, "runs": args.repeat,
                      "summary": report}), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark of the WFOMC stack (see module docstring).")
    parser.add_argument("--workload",
                        help="a workload of BENCHMARK.json; with --repeat, "
                             "every workload when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N seeds and print medians and spreads")
    args = parser.parse_args(argv)

    if not os.path.exists(SPEC_PATH) or not os.path.exists(PROGRAM):
        print("perfbench: run from a checkout holding BENCHMARK.json and "
              "src/repro", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.repeat and args.workload is None:
        for workload in names:
            repeat(args, spec, workload)
        return 0
    if args.workload not in names:
        print("perfbench: unknown workload {!r}; expected one of {}".format(
            args.workload, names), file=sys.stderr)
        return 2
    if args.repeat:
        repeat(args, spec, args.workload)
        return 0
    try:
        summary = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    except (BenchmarkError, OSError, RuntimeError, ValueError) as exc:
        print("perfbench: {}".format(exc), file=sys.stderr)
        return 1
    diagnostics = {k: v for k, v in summary.items()
                   if k not in ("layers", "correct", "attempted", "failed")}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "diagnostics": diagnostics}))
    print(json.dumps(result_line(spec, summary, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
