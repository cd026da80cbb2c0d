"""The three library workloads: seeded inputs, one cold op, its check.

Importing this module imports the program, so a set-up probe times it
as part of set-up.  Every op is reached only through public functions:

* ``fo2_lifted`` -- a cold ``wfomc`` of the FO2 sentence
  ``forall x. exists y. (R(x,y) & (S(x) -> ~S(y)))`` at n = 8, 12, 16
  in turn, each op with fresh rational weights p/q, 2 <= p, q <= 9;
* ``grounded_cdcl`` -- a cold ``wfomc(Theta_1, 3)``: the FO3 Turing
  machine sentence, routed to lineage grounding plus the CDCL engine;
* ``compiled_sweep`` -- ``wfomc_weight_sweep`` of Theta_1 at n = 3 over
  32 weight vectors through the compiled circuit built at set-up.

"Cold" means the public caches are cleared before each op, outside its
timer: the engine's (``reset_engine``), the solver's
(``clear_solver_caches``) and the compiler's (``clear_compile_cache``).
``compiled_sweep`` keeps its compiled circuit, which is its set-up's
product; its ops clear the other two.
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro import SolverOptions, parse, wfomc, wfomc_weight_sweep
from repro.compile import clear_compile_cache, compile_wfomc
from repro.complexity.encoding import encode_theta1
from repro.complexity.turing import RIGHT, CountingTM, Transition
from repro.logic import WeightedVocabulary
from repro.propositional import engine_stats, reset_engine
from repro.wfomc import clear_solver_caches
from repro.weights import WeightPair

import checks

FO2_SENTENCE = "forall x. exists y. (R(x,y) & (S(x) -> ~S(y)))"
FO2_SIZES = (8, 12, 16)
#: Numerators and denominators of the FO2 weights.
FO2_WEIGHT_TERMS = range(2, 10)
#: The size whose ops give ``latency_p50_ms`` and the per-layer split.
FO2_REPORTED_SIZE = 12

THETA1_N = 3
SWEEP_K = 32
#: Bit size of every numerator and denominator of a swept weight, so
#: every op evaluates numbers of the same size.
SWEEP_BITS = 16
#: Sweep answers cross-checked against a direct ``wfomc`` per run.
SWEEP_DIRECT_SAMPLES = 3

#: Engine counters reported per ``grounded_cdcl`` op.
ENGINE_COUNTERS = ("decisions", "conflicts", "propagations",
                   "learned_clauses")


def theta1_machine():
    """The one-state machine of ``benchmarks/bench_theta1.py``."""
    return CountingTM(
        states=["q0"],
        initial="q0",
        accepting=["q0"],
        num_tapes=1,
        active_tape={"q0": 0},
        delta={
            ("q0", 1): [Transition("q0", 1, RIGHT),
                        Transition("q0", 0, RIGHT)],
            ("q0", 0): [Transition("q0", 0, RIGHT)],
        },
    )


class Op:
    """One op's inputs and the answer it must return."""

    __slots__ = ("size", "args", "expected")

    def __init__(self, size, args, expected):
        self.size = size
        self.args = args
        self.expected = expected


class Deck:
    """Values dealt in seeded, shuffled rounds.

    Within each round of ``len(values)`` draws every value comes up
    once, so runs with different seeds see the same mix of values.
    """

    def __init__(self, values):
        self.values = list(values)
        self._left = []

    def draw(self, rng):
        if not self._left:
            self._left = list(self.values)
            rng.shuffle(self._left)
        return self._left.pop()


class Workload:
    """Set-up, seeded ops and checks of one library workload."""

    name = None

    def setup(self):
        raise NotImplementedError

    def make_op(self, index, rng):
        raise NotImplementedError

    def cold(self):
        reset_engine()
        clear_solver_caches()
        clear_compile_cache()

    def run(self, op):
        return wfomc(*op.args)

    def check(self, op, result):
        return result == op.expected


class FO2Lifted(Workload):
    name = "fo2_lifted"

    def setup(self):
        self.sentence = parse(FO2_SENTENCE)
        self.vocabulary = WeightedVocabulary.counting(self.sentence).vocabulary
        # One deck per size, weight and side of the fraction: an op's
        # cost depends on the sizes of its weights, so balanced decks
        # keep each size's median from depending on the seed.
        self.decks = {}

    def _weight(self, n, slot, rng):
        p, q = (self.decks.setdefault((n, slot, part), Deck(FO2_WEIGHT_TERMS))
                .draw(rng) for part in "pq")
        return Fraction(p, q)

    def make_op(self, index, rng):
        n = FO2_SIZES[index % len(FO2_SIZES)]
        w_r, wbar_r, w_s, wbar_s = (self._weight(n, slot, rng)
                                    for slot in range(4))
        wv = WeightedVocabulary(self.vocabulary, {
            "R": WeightPair(w_r, wbar_r), "S": WeightPair(w_s, wbar_s)})
        expected = checks.fo2_sentence_wfomc(n, w_r, wbar_r, w_s, wbar_s)
        return Op(n, (self.sentence, n, wv), expected)


class GroundedCDCL(Workload):
    name = "grounded_cdcl"

    def setup(self):
        machine = theta1_machine()
        self.sentence = encode_theta1(machine, epochs=1).sentence
        self.expected = checks.theta1_wfomc(
            THETA1_N, machine.count_accepting(THETA1_N, 1))

    def make_op(self, index, rng):
        return Op(THETA1_N, (self.sentence, THETA1_N), self.expected)

    @staticmethod
    def engine_counts():
        """The engine's work since the last ``reset_engine``."""
        stats = engine_stats()
        counts = {name: stats[name] for name in ENGINE_COUNTERS}
        lookups = stats["cache_hits"] + stats["cache_misses"]
        counts["cache_hit_rate"] = (stats["cache_hits"] / lookups
                                    if lookups else 0.0)
        return counts


class CompiledSweep(Workload):
    name = "compiled_sweep"

    def setup(self):
        machine = theta1_machine()
        self.sentence = encode_theta1(machine, epochs=1).sentence
        self.accepting = machine.count_accepting(THETA1_N, 1)
        self.vocabulary = WeightedVocabulary.counting(self.sentence).vocabulary
        #: The swept predicate: the alphabetically first one.
        self.swept = min(p.name for p in self.vocabulary)
        self.options = SolverOptions(compile=True)
        # What the first sweep would compile, under the same cache key.
        self.compiled = compile_wfomc(self.sentence, THETA1_N,
                                      self.vocabulary)

    def _weight(self, rng):
        low = 1 << (SWEEP_BITS - 1)
        return Fraction(rng.randrange(low, 2 * low) | 1,
                        rng.randrange(low, 2 * low) | 1)

    def make_op(self, index, rng):
        ones = {p.name: WeightPair(1, 1) for p in self.vocabulary}
        vectors, expected = [], []
        for _ in range(SWEEP_K):
            w, wbar = self._weight(rng), self._weight(rng)
            weights = dict(ones)
            weights[self.swept] = WeightPair(w, wbar)
            vectors.append(WeightedVocabulary(self.vocabulary, weights))
            expected.append(checks.theta1_wfomc(THETA1_N, self.accepting,
                                                w, wbar))
        return Op(THETA1_N, (self.sentence, THETA1_N, vectors), expected)

    def cold(self):
        reset_engine()
        clear_solver_caches()

    def run(self, op):
        return wfomc_weight_sweep(*op.args, options=self.options)

    def direct_check(self, answered, seed):
        """A seeded sample of swept answers against direct ``wfomc``.

        ``answered`` lists ``(op, result)`` pairs of the timed window.
        """
        rng = random.Random(seed)
        for _ in range(SWEEP_DIRECT_SAMPLES):
            op, result = rng.choice(answered)
            column = rng.randrange(SWEEP_K)
            self.cold()
            direct = wfomc(self.sentence, THETA1_N, op.args[2][column])
            if direct != result[column]:
                return False
        return True


WORKLOADS = {cls.name: cls for cls in (FO2Lifted, GroundedCDCL,
                                       CompiledSweep)}
