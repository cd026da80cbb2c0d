"""Knowledge-compilation benchmarks: compile-once vs repeated counting.

Three roles, mirroring ``bench_persist.py``:

* pytest-benchmark smoke tests keep the compile code paths exercised in
  CI on small instances, asserting bit-identical counts between the
  compiled fast path and direct dispatch (and exact gradients);
* :func:`measure_compile_vs_direct` runs the branching-bound Theta_1
  weight sweep both ways from cold caches — ``k`` direct counts against
  compile-once-evaluate-``k`` — and reports both wall clocks.
  ``check_regression.py`` gates the speedup (>= 2x with bit-identical
  results), the amortization property the subsystem exists for;
* :func:`measure_batch_vs_scalar` serves the same sweep from the
  compiled circuit in steady state, once as one staged
  ``evaluate_many`` pass and once as ``k`` scalar ``evaluate`` calls.
  ``check_regression.py`` gates that speedup too (>= 5x with
  bit-identical counts).

Running this module as a script prints both measurements::

      python benchmarks/bench_compile.py
"""

from __future__ import annotations

import json
import time
from fractions import Fraction


def _theta1_sweep_instance(sweep_size):
    """The Theta_1 sentence plus ``sweep_size`` weight vocabularies."""
    from repro.complexity.encoding import encode_theta1
    from repro.complexity.turing import RIGHT, CountingTM, Transition
    from repro.logic.syntax import predicates_of
    from repro.logic.vocabulary import WeightedVocabulary

    tm = CountingTM(
        states=["q0"], initial="q0", accepting=["q0"], num_tapes=1,
        active_tape={"q0": 0},
        delta={
            ("q0", 1): [Transition("q0", 1, RIGHT), Transition("q0", 0, RIGHT)],
            ("q0", 0): [Transition("q0", 0, RIGHT)],
        },
    )
    sentence = encode_theta1(tm, epochs=1).sentence
    arities = predicates_of(sentence)
    varied = sorted(arities)[0]
    vocabularies = [
        WeightedVocabulary.from_weights(
            {name: (Fraction(k, 2), 1) if name == varied else (1, 1)
             for name in arities},
            arities,
        )
        for k in range(1, sweep_size + 1)
    ]
    return sentence, vocabularies


def _cold_caches():
    from repro.compile import clear_compile_cache
    from repro.grounding.lineage import clear_grounding_caches
    from repro.propositional.counter import reset_engine
    from repro.wfomc.solver import clear_solver_caches

    reset_engine()
    clear_grounding_caches()
    clear_solver_caches()
    clear_compile_cache()


def measure_compile_vs_direct(sweep_size=32, n=3):
    """Cold-cache wall clock: ``k`` direct counts vs compile + ``k`` evals.

    Both runs start from fully cold caches, so the direct side pays one
    grounding and ``k`` full counting searches (the searches share the
    weight-independent key caches and whatever components the varied
    predicate does not touch — the strongest baseline the engine
    offers), while the compiled side pays one grounding, one traced
    search, and ``k`` linear circuit evaluations.  Returns both times,
    the speedup, and whether the result lists were bit-identical.
    """
    from repro.wfomc.solver import wfomc_weight_sweep

    sentence, vocabularies = _theta1_sweep_instance(sweep_size)

    _cold_caches()
    start = time.perf_counter()
    direct = wfomc_weight_sweep(sentence, n, vocabularies, method="lineage",
                                via_polynomial=False)
    direct_s = time.perf_counter() - start

    _cold_caches()
    start = time.perf_counter()
    compiled = wfomc_weight_sweep(sentence, n, vocabularies,
                                  method="lineage", compile=True)
    compiled_s = time.perf_counter() - start

    identical = all(
        a == b and (a.numerator, a.denominator) == (b.numerator, b.denominator)
        for a, b in zip(direct, compiled)
    ) and len(direct) == len(compiled)
    return {
        "sweep_size": sweep_size,
        "n": n,
        "direct_s": direct_s,
        "compiled_s": compiled_s,
        "speedup": direct_s / compiled_s,
        "bit_identical": identical,
    }


def _best_of(fn, repeats):
    """Minimum wall clock over ``repeats`` runs, and the last result."""
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def measure_batch_vs_scalar(sweep_size=32, n=3, repeats=3):
    """Steady-state sweep serving: one ``evaluate_many`` pass vs ``k``
    scalar ``evaluate`` calls on the compiled Theta_1 circuit.

    The circuit is compiled once before either side is timed, so the
    figures isolate evaluation, the per-request cost of a sweep-serving
    process.  Returns the best-of-``repeats`` wall clock of each side,
    the speedup, and whether the counts agree in numerator and
    denominator.
    """
    from repro.compile import compile_wfomc

    sentence, vocabularies = _theta1_sweep_instance(sweep_size)
    compiled = compile_wfomc(sentence, n, method="lineage")
    scalar_s, reference = _best_of(
        lambda: [compiled.evaluate(wv) for wv in vocabularies], repeats)
    batch_s, results = _best_of(
        lambda: compiled.evaluate_many(vocabularies), repeats)
    identical = len(results) == len(reference) and all(
        (a.numerator, a.denominator) == (b.numerator, b.denominator)
        for a, b in zip(reference, results))
    return {
        "sweep_size": sweep_size,
        "n": n,
        "repeats": repeats,
        "circuit_nodes": len(compiled.circuit),
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
        "bit_identical": identical,
    }


# -- pytest-benchmark smoke tests (CI keeps the compile paths alive) ---------


def test_compile_smoke_sweep_bit_identical(benchmark):
    from repro.logic.parser import parse
    from repro.logic.vocabulary import WeightedVocabulary
    from repro.logic.syntax import predicates_of
    from repro.wfomc.solver import wfomc_weight_sweep

    f = parse("forall x, y. (R(x) | S(x, y) | T(y))")
    arities = predicates_of(f)
    vocabularies = [
        WeightedVocabulary.from_weights(
            {name: (Fraction(k, 3), 1) for name in arities}, arities)
        for k in range(1, 7)
    ]
    direct = wfomc_weight_sweep(f, 2, vocabularies, method="lineage",
                                via_polynomial=False)

    def compiled_sweep():
        return wfomc_weight_sweep(f, 2, vocabularies, method="lineage",
                                  compile=True)

    compiled = benchmark(compiled_sweep)
    assert compiled == direct


def test_compile_smoke_gradient(benchmark):
    from repro.compile import compile_wfomc
    from repro.logic.parser import parse
    from repro.logic.vocabulary import WeightedVocabulary

    f = parse("forall x. exists y. R(x, y)")
    compiled = compile_wfomc(f, 3, method="lineage")
    wv = WeightedVocabulary.from_weights({"R": (Fraction(1, 2), 2)},
                                         {"R": 2})

    value, grads = benchmark(lambda: compiled.gradient(wv))
    assert value == compiled.evaluate(wv)
    assert set(grads) == {"R"}


if __name__ == "__main__":
    print(json.dumps({"compile_vs_direct": measure_compile_vs_direct(),
                      "batch_vs_scalar": measure_batch_vs_scalar()},
                     indent=2))
