"""The engine's trace mode: compiled circuits from the CDCL search itself.

``trace_cnf_clauses`` runs ``CountingEngine``'s conflict-driven search
over circuit nodes.  These tests hold it to independent oracles: the
learning-free counter (``learn=False``) on a seeded random 3-CNF corpus
whose traces must learn clauses, the direct count's decision sequence at
all-ones weights, direct ``wfomc`` on Theta_1 at n=4, and budgets that
abort a trace part way.  They also pin the CNFs the grounded route
builds, including the hidden tautologies ``to_cnf`` drops.
"""

import random
from fractions import Fraction

import pytest

from repro.compile import clear_compile_cache, compile_cnf, compile_wfomc
from repro.compile.circuit import Circuit
from repro.complexity.encoding import encode_theta1
from repro.complexity.turing import RIGHT, CountingTM, Transition
from repro.errors import BudgetExceededError
from repro.grounding.lineage import lineage
from repro.logic.parser import parse
from repro.logic.vocabulary import WeightedVocabulary
from repro.options import SolverOptions
from repro.propositional import counter
from repro.propositional.bruteforce import wmc_enumerate
from repro.propositional.cnf import CNF, to_cnf
from repro.propositional.counter import (
    cnf_for_formula,
    engine_stats,
    reset_engine,
    wmc_cnf,
    wmc_formula,
)
from repro.propositional.formula import pand, pnot, por, pvar
from repro.resilience.limits import Budget
from repro.weights import WeightPair
from repro.wfomc.solver import clear_solver_caches, wfomc

TRANSITIVITY = "forall x, y, z. (R(x, y) & R(y, z) -> R(x, z))"


def _theta1():
    """Theta_1 of the one-tape machine the grounded benchmarks use."""
    tm = CountingTM(
        states=["q0"], initial="q0", accepting=["q0"], num_tapes=1,
        active_tape={"q0": 0},
        delta={
            ("q0", 1): [Transition("q0", 1, RIGHT),
                        Transition("q0", 0, RIGHT)],
            ("q0", 0): [Transition("q0", 0, RIGHT)],
        },
    )
    return encode_theta1(tm, epochs=1).sentence


def _cold():
    reset_engine()
    clear_compile_cache()
    clear_solver_caches()


def _random_3cnf(rng):
    num_vars = rng.randint(30, 50)
    ratio = rng.uniform(3.5, 5.0)
    cnf = CNF()
    for v in range(1, num_vars + 1):
        cnf.var_for(v)
    for _ in range(int(num_vars * ratio)):
        cnf.add_clause(tuple(v if rng.random() < 0.5 else -v
                             for v in rng.sample(range(1, num_vars + 1), 3)))
    return cnf


def _weight_vectors(num_vars, rng):
    """All-ones, fractional, zero-including and Skolem ``(1, -1)``."""
    def fraction():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    return [
        [(1, 1)] * num_vars,
        [(fraction(), fraction()) for _ in range(num_vars)],
        [(0, 2) if v % 5 == 0 else (Fraction(1, 3), 0) if v % 7 == 0
         else (1, 1) for v in range(1, num_vars + 1)],
        [(1, -1) if v % 3 == 0 else (2, 1) for v in range(1, num_vars + 1)],
    ]


class TestRandomCorpus:
    def test_traced_circuits_equal_the_learning_free_count(self):
        reset_engine()
        rng = random.Random(2026)
        conflicts = backjumps = 0
        for _ in range(40):
            cnf = _random_3cnf(rng)
            before = engine_stats()
            circuit = compile_cnf(cnf)
            after = engine_stats()
            conflicts += after["conflicts"] - before["conflicts"]
            backjumps += after["backjumps"] - before["backjumps"]
            vectors = _weight_vectors(cnf.num_vars, rng)
            compiled = circuit.evaluate_many(
                [lambda label, vec=vec: vec[label - 1] for vec in vectors])
            for vec, value in zip(vectors, compiled):
                oracle = wmc_cnf(cnf, lambda label, vec=vec: vec[label - 1],
                                 options=SolverOptions(learn=False))
                assert value == oracle
        # The corpus must exercise learning, or it checks nothing new.
        assert conflicts > 0 and backjumps > 0


class TestSameSearch:
    @pytest.mark.parametrize("n,decisions", [(3, 41), (4, 432)])
    def test_trace_and_count_make_the_same_decisions(self, n, decisions):
        sentence = _theta1()
        _cold()
        budget = Budget(timeout=60)
        compiled = compile_wfomc(sentence, n, method="lineage", budget=budget)
        assert engine_stats()["decisions"] == decisions
        _cold()
        count = wfomc(sentence, n, options=SolverOptions(method="lineage"))
        assert engine_stats()["decisions"] == decisions
        counting = WeightedVocabulary.counting(sentence)
        assert compiled.evaluate(counting) == count
        if n == 4:
            weighted = counting
            for name in sorted(counting.vocabulary.names())[:3]:
                weighted = weighted.with_weight(name, WeightPair(-2, 3))
            assert compiled.evaluate(weighted) == wfomc(
                sentence, n, weighted, options=SolverOptions(method="lineage"))


def _check_template(rows, template):
    """A template over slots equals the count of its canonical rows."""
    circuit = Circuit(*template)
    slots = {abs(lit) for row in rows for lit in row}
    rng = random.Random(len(rows))
    pairs = {v: (Fraction(rng.randint(-3, 5), 2), rng.randint(1, 4))
             for v in slots}
    engine = counter.CountingEngine(
        pairs, {v: w + wbar for v, (w, wbar) in pairs.items()}, cache={},
        key_cache={})
    assert circuit.evaluate(pairs) == engine.run(rows)


class TestBudgetedTrace:
    SENTENCE = "exists x, y, z. (R(x, y) & S(y, z) & T(z))"

    @pytest.mark.parametrize("make_budget,made", [
        (lambda: Budget(max_decisions=5), False),
        (lambda: Budget(max_decisions=60), True),
        (lambda: Budget(max_conflicts=2), True),
        (lambda: _cancelled(), False),
    ], ids=["decisions", "late-decisions", "conflicts", "cancelled"])
    def test_aborted_trace_keeps_only_complete_templates(self, make_budget,
                                                         made):
        sentence = parse(self.SENTENCE)
        _cold()
        with pytest.raises(BudgetExceededError):
            compile_wfomc(sentence, 3, method="lineage", budget=make_budget())
        assert bool(counter._TRACE_TEMPLATES) is made
        for rows, template in counter._TRACE_TEMPLATES.items():
            _check_template(rows, template)
        compiled = compile_wfomc(sentence, 3, method="lineage")
        counting = WeightedVocabulary.counting(sentence)
        skolem = counting.with_weight("S", WeightPair(1, -1))
        for weights in (counting, skolem):
            assert compiled.evaluate(weights) == wfomc(
                sentence, 3, weights, options=SolverOptions(method="lineage"))


def _cancelled():
    budget = Budget()
    budget.cancel()
    return budget


class TestGroundedCNF:
    @pytest.mark.parametrize("text,n,size", [
        (None, 3, (399, 1374)),
        (TRANSITIVITY, 4, (52, 144)),
    ], ids=["theta1", "transitivity"])
    def test_cnf_sizes(self, text, n, size):
        sentence = _theta1() if text is None else parse(text)
        cnf = cnf_for_formula(lineage(sentence, n))
        assert (cnf.num_vars, len(cnf.clauses)) == size

    def test_hidden_tautology_keeps_its_variables_mass(self):
        a, b, c = pvar("a"), pvar("b"), pvar("c")
        formula = pand(por(pnot(pand(a, b)), b), c)
        assert to_cnf(formula).clauses == [(3,)]
        weights = {"a": (2, 3), "b": (5, 7), "c": (11, 13)}.__getitem__
        assert wmc_formula(formula, weights) == (2 + 3) * (5 + 7) * 11

    @pytest.mark.parametrize("formula,dropped", [
        (por(pnot(pand(pvar("a"), pnot(pvar("b")))), pnot(pvar("b"))), True),
        (por(pnot(pand(pvar("a"), pvar("b"))), pnot(pvar("b"))), False),
        (por(pnot(pand(pvar("a"), por(pvar("b"), pvar("c")))),
             por(pvar("b"), pvar("c"))), False),
    ], ids=["negative-literal", "opposite-polarity", "compound-parts"])
    def test_only_literal_parts_match(self, formula, dropped):
        formula = pand(formula, pvar("d"))
        assert (len(to_cnf(formula).clauses) == 1) is dropped
        weights = {"a": (2, 3), "b": (5, 7), "c": (11, 13),
                   "d": (1, 4)}.__getitem__
        universe = ("a", "b", "c", "d")
        assert wmc_formula(formula, weights, universe) == wmc_enumerate(
            formula, weights, universe)
