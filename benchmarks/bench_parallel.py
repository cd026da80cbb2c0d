"""Engine v3: conflict-driven serial speed, ablation, parallel scaling.

Two roles:

* pytest-benchmark tests (collected with the rest of ``benchmarks/``) keep
  the parallel and CDCL/MOMS code paths exercised by the CI smoke run on
  small instances, asserting bit-identical counts;
* running the module as a script regenerates the committed baseline::

      python benchmarks/bench_parallel.py --emit BENCH_engine_v3.json

  which measures (a) the hard ``bench_wmc_ablation`` instances on the
  serial engine, compared against the engine-v2 means recorded in
  ``BENCH_engine_v2.json``, (b) the branching-bound Theta_1 grounding at
  n = 3 cold for the default CDCL+EVSIDS engine *and* the learning-free
  MOMS engine (the heuristic ablation the CI regression gate watches),
  and (c) parallel scaling of ``workers=2``/``workers=4`` over a suite of
  independent hard random 3-CNF components (the shape lineages of
  conjunctions of independent subsentences produce).
"""

from __future__ import annotations

import random


def _engine_imports():
    from repro.propositional.counter import (
        CountingEngine,
        EngineStats,
        wmc_cnf,
    )
    from repro.propositional.cnf import CNF

    return CountingEngine, EngineStats, wmc_cnf, CNF


def random_components(num_components, nvars, ratio, seed):
    """Variable-disjoint random 3-CNF blocks, each structurally distinct.

    Clause ratio ~2.0 sits in the counting-hard regime (many models, deep
    branching); every block draws from its own stream so no two are
    isomorphic and the component cache cannot collapse them.
    """
    clauses = []
    for k in range(num_components):
        rng = random.Random("{}:{}".format(seed, k))
        base = 1 + k * nvars
        for _ in range(int(nvars * ratio)):
            vs = rng.sample(range(base, base + nvars), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses, num_components * nvars


def _count(clauses, total_vars, workers=None):
    _CountingEngine, EngineStats, wmc_cnf, CNF = _engine_imports()
    cnf = CNF()
    for v in range(1, total_vars + 1):
        cnf.var_for(v)
    for c in clauses:
        cnf.add_clause(c)
    return wmc_cnf(cnf, lambda _v: (1, 1), engine_cache={},
                   stats=EngineStats(), workers=workers)


# -- pytest-benchmark tests (small instances; CI smoke keeps them alive) ----


def test_multi_component_serial(benchmark):
    clauses, total_vars = random_components(4, 18, 2.0, seed=11)
    result = benchmark(_count, clauses, total_vars)
    assert result > 0


def test_multi_component_workers2(benchmark):
    clauses, total_vars = random_components(4, 18, 2.0, seed=11)
    serial = _count(clauses, total_vars)
    result = benchmark(_count, clauses, total_vars, 2)
    assert result == serial  # bit-identical to the serial engine


def test_cdcl_and_moms_engines_agree(benchmark):
    # The CI smoke run keeps the heuristic ablation path alive: the
    # conflict-driven default and the learning-free MOMS engine must
    # produce bit-identical counts on a conflict-rich instance.
    clauses, total_vars = random_components(1, 20, 3.5, seed=23)
    _CountingEngine, EngineStats, wmc_cnf, CNF = _engine_imports()
    cnf = CNF()
    for v in range(1, total_vars + 1):
        cnf.var_for(v)
    for c in clauses:
        cnf.add_clause(c)

    def cdcl():
        return wmc_cnf(cnf, lambda _v: (1, 1), engine_cache={},
                       stats=EngineStats(), learn=True)

    moms = wmc_cnf(cnf, lambda _v: (1, 1), engine_cache={},
                   stats=EngineStats(), learn=False)
    result = benchmark(cdcl)
    assert result == moms


def test_activity_gate_keeps_exact_moms_order_when_conflict_light(benchmark):
    # Regression guard for the EVSIDS activity gate: on model-dense
    # (conflict-light) instances the default engine must make *exactly*
    # the MOMS decisions — same decision count as ``branching="moms"``
    # on the same trail machinery — because its per-search conflict rate
    # never crosses the activity threshold.  Before the gate, stale
    # activity from earlier searches could perturb the order here.
    CountingEngine, EngineStats, wmc_cnf, CNF = _engine_imports()
    clauses, total_vars = random_components(4, 18, 2.0, seed=11)
    cnf = CNF()
    for v in range(1, total_vars + 1):
        cnf.var_for(v)
    for c in clauses:
        cnf.add_clause(c)

    def count(branching):
        stats = EngineStats()
        result = wmc_cnf(cnf, lambda _v: (1, 1), engine_cache={},
                         stats=stats, branching=branching)
        return result, stats

    (moms_result, moms_stats) = count("moms")
    (default_result, default_stats) = benchmark(count, "evsids")
    assert default_result == moms_result
    # Conflict-light: a handful of conflicts over hundreds of decisions.
    assert default_stats.conflicts * 16 < default_stats.decisions
    assert default_stats.decisions == moms_stats.decisions


def test_fo2_batch_reuses_decomposition(benchmark):
    from repro.logic.parser import parse
    from repro.wfomc.solver import clear_solver_caches, wfomc_batch

    f = parse("forall x. exists y. (R(x, y) | (P(x) & Q(y)))")

    def run():
        clear_solver_caches()
        return wfomc_batch(f, range(1, 9), method="fo2")

    results = benchmark(run)
    assert results[1] == 5 and results[3] == 26369  # matches the lineage path


# -- baseline emission -------------------------------------------------------


def _measure_ablation_serial():
    """Warm-cache per-call times of the bench_wmc_ablation instances.

    Each figure is the *minimum* of several repeated timing windows
    (``timeit.repeat``): for microsecond-scale warm loops the minimum is
    far more stable under scheduler noise than the mean, which keeps the
    CI regression gate (benchmarks/check_regression.py) from flaking on
    shared runners.
    """
    import timeit

    from repro.grounding.lineage import ground_atom_weights, lineage
    from repro.logic.parser import parse
    from repro.logic.vocabulary import WeightedVocabulary
    from repro.propositional.bruteforce import wmc_enumerate
    from repro.propositional.counter import wmc_formula

    sentence = parse("forall x, y. (R(x) | S(x, y) | T(y))")
    wv = WeightedVocabulary.counting(sentence)
    expected = {2: 161, 3: 13009}
    means = {}
    for name, n in (("test_dpll_counter", 2), ("test_dpll_beyond_enumeration", 3)):
        prop = lineage(sentence, n)
        weight_of, universe = ground_atom_weights(wv, n)
        assert wmc_formula(prop, weight_of, universe) == expected[n]  # warm
        loops = 300
        means[name] = min(timeit.repeat(
            lambda: wmc_formula(prop, weight_of, universe),
            number=loops, repeat=7,
        )) / loops

    # Cold-engine figures: a fresh component/key cache per call, so every
    # iteration exercises the full search core (propagation, branching,
    # residual extraction, canonicalization).  These are what the CI
    # regression gate checks — warm figures above collapse to cache hits
    # and would hide a slowdown in the engine itself.
    from repro.propositional.cnf import to_cnf
    from repro.propositional.counter import CountingEngine, EngineStats

    for name, n in (("cold_engine_n2", 2), ("cold_engine_n3", 3)):
        prop = lineage(sentence, n)
        weight_of, universe = ground_atom_weights(wv, n)
        cnf = to_cnf(prop, extra_labels=sorted(set(universe), key=repr))
        weights = {}
        totals = {}
        for v in range(1, cnf.num_vars + 1):
            pair = weight_of(cnf.labels[v])
            w, wbar = int(pair.w), int(pair.wbar)
            weights[v] = (w, wbar)
            totals[v] = w + wbar
        clauses = tuple(cnf.clauses)

        def cold_run():
            engine = CountingEngine(weights, totals, cache={},
                                    stats=EngineStats(), key_cache={})
            return engine.run(clauses)

        assert cold_run() == expected[n]
        stats = EngineStats()
        CountingEngine(weights, totals, cache={}, stats=stats,
                       key_cache={}).run(clauses)
        assert stats.decisions > 0  # the gate must time real search work
        loops = 100
        means[name] = min(timeit.repeat(cold_run, number=loops, repeat=7)) / loops

    # The n = 2 enumeration baseline anchors machine-speed normalization
    # for the CI regression check (see benchmarks/check_regression.py).
    prop = lineage(sentence, 2)
    weight_of, universe = ground_atom_weights(wv, 2)
    loops = 15
    means["test_enumeration_baseline"] = min(timeit.repeat(
        lambda: wmc_enumerate(prop, weight_of, universe),
        number=loops, repeat=5,
    )) / loops
    return means


def _theta1_sentence():
    from repro.complexity.encoding import encode_theta1
    from repro.complexity.turing import RIGHT, CountingTM, Transition

    tm = CountingTM(
        states=["q0"], initial="q0", accepting=["q0"], num_tapes=1,
        active_tape={"q0": 0},
        delta={
            ("q0", 1): [Transition("q0", 1, RIGHT), Transition("q0", 0, RIGHT)],
            ("q0", 0): [Transition("q0", 0, RIGHT)],
        },
    )
    return encode_theta1(tm, epochs=1).sentence


def _measure_theta1_cold(repeats=3, clock=None, **engine_knobs):
    """Cold-cache time of the grounded Theta_1 identity at n = 3.

    Every run starts from fresh engine/grounding/solver caches (the
    minimum of ``repeats`` runs resists scheduler noise); engine knobs
    (``learn``, ``branching``, ``budget``) select the engine under test.
    ``clock`` defaults to ``time.perf_counter``; pass
    ``time.process_time`` to time this process's CPU only.
    """
    import time

    from repro.grounding.lineage import clear_grounding_caches
    from repro.propositional.counter import reset_engine
    from repro.wfomc.bruteforce import fomc_lineage
    from repro.wfomc.solver import clear_solver_caches

    clock = clock or time.perf_counter
    sentence = _theta1_sentence()
    best = None
    for _ in range(repeats):
        reset_engine()
        clear_grounding_caches()
        clear_solver_caches()
        start = clock()
        result = fomc_lineage(sentence, 3, **engine_knobs)
        elapsed = clock() - start
        assert result == 24  # 3! * #acc(3)
        if best is None or elapsed < best:
            best = elapsed
    return best


def _measure_theta1_ablation():
    """The branching-bound benchmark under both decision heuristics.

    ``test_theta1_identity_n3`` is the default engine (CDCL + EVSIDS; the
    key name matches the v1/v2 baselines so speedups chain across
    engine generations); ``theta1_identity_n3_moms`` is the learning-free
    MOMS engine the CDCL rebuild replaced.
    """
    return {
        "test_theta1_identity_n3": _measure_theta1_cold(),
        "theta1_identity_n3_moms": _measure_theta1_cold(learn=False),
    }


def _measure_parallel(num_components=8, nvars=45, ratio=2.0, seed=2026):
    """Serial vs workers=2/4 on one suite of independent hard components.

    Every configuration starts from fresh parent caches; changing the pool
    size rebuilds the pool, so worker-side caches are cold too.  The pool
    is pre-warmed with a trivial task so pool startup is not billed to the
    first measured configuration.
    """
    import time

    from repro.propositional.counter import shutdown_worker_pool

    clauses, total_vars = random_components(num_components, nvars, ratio, seed)
    timings = {}
    counts = {}
    for workers in (None, 2, 4):
        label = "serial" if workers is None else "workers{}".format(workers)
        if workers:
            shutdown_worker_pool()
            warmup, warm_vars = random_components(workers, 6, 2.0, seed + 1)
            _count(warmup, warm_vars, workers)
        start = time.perf_counter()
        counts[label] = _count(clauses, total_vars, workers)
        timings[label] = time.perf_counter() - start
    shutdown_worker_pool()
    assert counts["serial"] == counts["workers2"] == counts["workers4"]
    serial = timings["serial"]
    cores = _usable_cores()
    result = {
        "instance": "{} independent random 3-CNF components, {} vars each, "
                    "clause ratio {}, seed {}".format(
                        num_components, nvars, ratio, seed),
        "count": str(counts["serial"]),
        "usable_cores": cores,
        "serial_s": serial,
        "workers2_s": timings["workers2"],
        "workers4_s": timings["workers4"],
        "speedup_workers2": round(serial / timings["workers2"], 2),
        "speedup_workers4": round(serial / timings["workers4"], 2),
        "bit_identical": True,
    }
    if cores < 4:
        result["note"] = (
            "measured in a {}-core environment: component dispatch is the "
            "only serial section, so scaling is bounded by physical cores; "
            "re-run on a >=4-core machine to observe parallel speedup"
            .format(cores)
        )
    return result


def _usable_cores():
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def emit(path):
    import json
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    v2_path = os.path.join(here, os.pardir, "BENCH_engine_v2.json")
    v2_means = {}
    if os.path.exists(v2_path):
        with open(v2_path) as fh:
            v2 = json.load(fh)
        v2_means = {
            name: entry.get("v2_mean_s")
            for name, entry in v2.get("serial", {}).items()
        }

    serial = {}
    measured = {}
    measured.update(_measure_ablation_serial())
    measured.update(_measure_theta1_ablation())
    for name, mean in measured.items():
        entry = {"v3_mean_s": mean}
        v2_mean = v2_means.get(name)
        if v2_mean:
            entry["v2_mean_s"] = v2_mean
            entry["speedup_vs_v2"] = round(v2_mean / mean, 2)
        serial[name] = entry
    cdcl = serial["test_theta1_identity_n3"]["v3_mean_s"]
    moms = serial["theta1_identity_n3_moms"]["v3_mean_s"]
    serial["test_theta1_identity_n3"]["speedup_vs_moms"] = round(moms / cdcl, 2)

    payload = {
        "description": (
            "Engine v3 (conflict-driven clause learning with a side "
            "learned-clause database, 1-UIP backjumping, EVSIDS "
            "branching, adaptive split-free residual extraction) vs the "
            "engine-v2 means recorded in BENCH_engine_v2.json, plus "
            "process-pool scaling of top-level component counting. "
            "Serial ablation figures are minimum-of-repeats per-call "
            "times (minimums resist scheduler noise); the "
            "theta1_identity_n3 entries are minimum-of-3 cold-cache runs "
            "for the default CDCL+EVSIDS engine and for the learning-free "
            "MOMS engine (speedup_vs_moms is the heuristic ablation the "
            "CI regression gate watches).  Parallel timings start from "
            "fresh parent and worker caches with a pre-warmed pool."
        ),
        "command": "python benchmarks/bench_parallel.py --emit BENCH_engine_v3.json",
        "serial": serial,
        "parallel": _measure_parallel(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    import argparse
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--emit", metavar="PATH", default="BENCH_engine_v3.json",
                        help="where to write the measured baseline JSON")
    emit(parser.parse_args().emit)
