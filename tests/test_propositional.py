"""Tests for propositional formulas, CNF conversion, and the WMC engine.

The DPLL counter is the load-bearing substrate of every grounded
computation, so it gets property tests against assignment enumeration,
including with negative weights.
"""


from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import compile_formula
from repro.grounding.lineage import ground_atom_weights, lineage
from repro.logic.parser import parse
from repro.logic.vocabulary import WeightedVocabulary
from repro.propositional.bruteforce import count_models_enumerate, wmc_enumerate
from repro.propositional.cnf import to_cnf
from repro.propositional.counter import (
    cnf_for_formula,
    model_count,
    satisfiable,
    wmc_formula,
)
from repro.propositional.formula import (
    PAnd,
    PFalse,
    POr,
    PTrue,
    pand,
    peval,
    pnot,
    por,
    prop_vars,
    pvar,
)
from repro.weights import WeightPair

from .strategies import fractions, prop_formulas

a, b, c = pvar("a"), pvar("b"), pvar("c")

WEIGHT_PAIRS = [
    WeightPair(0, 1), WeightPair(1, 0), WeightPair(1, -1), WeightPair(1, 1),
    WeightPair(Fraction(-2, 3), 3), WeightPair(2, Fraction(1, 2)),
]


class TestFormulaConstructors:
    def test_pand_flattens_and_folds(self):
        assert pand(a, pand(b, c)) == PAnd((a, b, c))
        assert pand() == PTrue()
        assert pand(a, PFalse()) == PFalse()
        assert pand(a) == a

    def test_por_flattens_and_folds(self):
        assert por(a, por(b, c)) == POr((a, b, c))
        assert por() == PFalse()
        assert por(a, PTrue()) == PTrue()

    def test_pnot_folds(self):
        assert pnot(pnot(a)) == a
        assert pnot(PTrue()) == PFalse()

    def test_prop_vars(self):
        assert prop_vars(pand(a, pnot(por(b, c)))) == {"a", "b", "c"}

    def test_peval(self):
        f = por(pand(a, b), pnot(c))
        assert peval(f, {"a": True, "b": True, "c": True})
        assert not peval(f, {"a": False, "b": True, "c": True})


class TestCNF:
    def test_clausal_formula_direct(self):
        f = pand(por(a, b), por(pnot(a), c))
        cnf = to_cnf(f)
        # No auxiliary variables for a clausal input.
        assert cnf.num_vars == 3
        assert len(cnf.clauses) == 2

    def test_tseitin_for_non_clausal(self):
        f = por(pand(a, b), pand(pnot(a), c))
        cnf = to_cnf(f)
        assert cnf.num_vars > 3

    def test_contradiction(self):
        cnf = to_cnf(PFalse())
        assert cnf.contradictory

    def test_tseitin_preserves_model_count(self):
        f = por(pand(a, b), pand(pnot(a), c))
        assert model_count(f) == count_models_enumerate(f)

    @settings(max_examples=60, deadline=None)
    @given(prop_formulas())
    def test_tseitin_count_property(self, f):
        universe = sorted(prop_vars(f))
        assert model_count(f, universe) == count_models_enumerate(f, universe)

    def test_clausal_input_keeps_the_direct_conversion(self):
        # Pinned from the all-clausal fast path the single conversion
        # path replaced: variable, clause and literal order, repeated
        # clauses (b | a, c | !a) and the tautology (a | !a | c) dropped.
        f = pand(por(a, b), por(pnot(a), c), por(b, a), por(a, pnot(a), c),
                 pnot(b), por(c, pnot(a)))
        cnf = to_cnf(f, extra_labels=("z",))
        assert cnf.num_vars == 4
        assert cnf.clauses == [(2, 3), (-2, 4), (-3,)]
        assert cnf.labels == {1: "z", 2: "a", 3: "b", 4: "c"}

    @pytest.mark.parametrize("text, clauses", [
        ("forall x, y. (R(x) | S(x, y) | T(y))",
         [(1, 3, 7), (1, 4, 8), (2, 5, 7), (2, 6, 8)]),
        ("forall x, y. (~R(x, y) | ~R(y, x) | x = y)", [(-2, -3)]),
    ])
    def test_clausal_lineage_keeps_the_direct_conversion(self, text, clauses):
        sentence = parse(text)
        _, universe = ground_atom_weights(
            WeightedVocabulary.counting(sentence), 2)
        cnf = cnf_for_formula(lineage(sentence, 2), universe)
        assert cnf.clauses == clauses
        assert cnf.num_vars == len(universe)
        assert cnf.labels == dict(enumerate(sorted(universe, key=repr), 1))

    def test_top_level_clause_conjunct_adds_no_auxiliary(self):
        cnf = to_cnf(pand(por(a, b), por(pand(a, c), pnot(b))))
        # One auxiliary (4) for the nested a & c; the clause a | b and
        # the top-level disjunction get none.
        assert cnf.labels == {1: "a", 2: "b", 3: "c"}
        assert cnf.num_vars == 4
        assert cnf.clauses == [(1, 2), (-4, 1), (-4, 3), (4, -1, -3), (4, -2)]

    def test_top_level_disjunction_is_one_clause(self):
        cnf = to_cnf(por(pand(a, b), pand(pnot(a), c)))
        assert cnf.num_vars == 5  # a, b, c and one auxiliary per conjunction
        assert cnf.clauses[-1] == (3, 5)


class TestWMC:
    def test_single_variable(self):
        weights = {"a": WeightPair(2, 3)}
        assert wmc_formula(a, weights.__getitem__) == 2
        assert wmc_formula(pnot(a), weights.__getitem__) == 3

    def test_unconstrained_variable_contributes_total(self):
        weights = {"a": WeightPair(2, 3), "b": WeightPair(5, 7)}
        assert wmc_formula(a, weights.__getitem__, universe=["a", "b"]) == 2 * 12

    def test_negative_weights(self):
        # Skolem-style cancellation: a free (1, -1) variable zeroes the count.
        weights = {"a": WeightPair(1, 1), "b": WeightPair(1, -1)}
        assert wmc_formula(a, weights.__getitem__, universe=["a", "b"]) == 0

    def test_contradiction_counts_zero(self):
        assert model_count(pand(a, pnot(a))) == 0

    def test_tautology(self):
        assert model_count(por(a, pnot(a))) == 2

    @settings(max_examples=60, deadline=None)
    @given(prop_formulas(), fractions(), fractions(), fractions(), fractions())
    def test_wmc_matches_enumeration(self, f, wa, wb, wc, wd):
        pairs = {
            "a": WeightPair(wa, 1),
            "b": WeightPair(wb, 2),
            "c": WeightPair(wc, wd),
            "d": WeightPair(1, wd),
        }
        universe = ["a", "b", "c", "d"]
        fast = wmc_formula(f, pairs.__getitem__, universe)
        slow = wmc_enumerate(f, pairs.__getitem__, universe)
        assert fast == slow

    @settings(max_examples=80, deadline=None)
    @given(prop_formulas(),
           st.lists(st.sampled_from(WEIGHT_PAIRS), min_size=4, max_size=4))
    def test_wmc_and_circuit_match_enumeration(self, f, pairs):
        # Zero, negative and Skolem (1, -1) weights: a CNF that gained or
        # lost a model, or weighted an auxiliary, cannot cancel out.
        weights = dict(zip("abcd", pairs))
        universe = sorted(weights)
        expected = wmc_enumerate(f, weights.__getitem__, universe)
        assert wmc_formula(f, weights.__getitem__, universe) == expected
        circuit = compile_formula(f, universe)
        assert circuit.evaluate({k: (w.w, w.wbar) for k, w in weights.items()}) == expected

    def test_component_decomposition_correctness(self):
        # Two independent components: counts multiply.
        f = pand(por(a, b), por(c, pvar("d")))
        assert model_count(f) == 9

    def test_large_independent_product(self):
        # 20 independent clauses: DPLL must not blow up.
        f = pand(*(por(pvar("x{}".format(i)), pvar("y{}".format(i))) for i in range(20)))
        assert model_count(f) == 3 ** 20


class TestSAT:
    def test_satisfiable(self):
        assert satisfiable(pand(por(a, b), pnot(a)))

    def test_unsatisfiable(self):
        assert not satisfiable(pand(a, pnot(a)))

    def test_deep_unsat(self):
        f = pand(por(a, b), por(pnot(a), b), pnot(b))
        assert not satisfiable(f)

    @settings(max_examples=60, deadline=None)
    @given(prop_formulas())
    def test_sat_iff_count_positive(self, f):
        assert satisfiable(f) == (count_models_enumerate(f) > 0)
