"""Tests for the knowledge-compilation subsystem (``repro.compile``).

Layers: white-box units for the circuit IR (hash-consing, folding,
evaluation, gradients, smoothing, serialization), the staged batch pass
of ``evaluate_many`` against the scalar interpreter, equivalence of
compiled circuits with direct counting across the CNF / formula /
lineage / FO2 entry points, exact gradient validation against
interpolated derivatives, persistence through the on-disk store, and
the solver-level ``compile=`` fast paths.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import (
    CircuitBuilder,
    Circuit,
    clear_compile_cache,
    compile_cnf,
    compile_formula,
    compile_lineage,
    compile_stats,
    compile_wfomc,
)
from repro.cache import decode_value, encode_value, open_store
from repro.compile.trace import CIRCUITS_NS
from repro.logic.parser import parse
from repro.logic.vocabulary import Predicate, Vocabulary, WeightedVocabulary
from repro.options import SolverOptions
from repro.propositional.cnf import CNF
from repro.propositional.counter import (
    EngineStats,
    engine_stats,
    reset_engine,
    wmc_cnf,
    wmc_formula,
)
from repro.propositional.formula import pand, pnot, por, pvar
from repro.utils import polynomial_interpolate, vocabulary_signature
from repro.weights import WeightPair
from repro.wfomc.bruteforce import wfomc_lineage
from repro.wfomc.solver import (
    probability,
    wfomc,
    wfomc_batch,
    wfomc_weight_sweep,
)


def _cnf(clauses, num_vars):
    cnf = CNF()
    for v in range(1, num_vars + 1):
        cnf.var_for(v)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


def _pairs_fn(pairs):
    return lambda label: pairs[label - 1]


_RST = "forall x, y. (R(x) | S(x, y) | T(y))"
_RST_ARITIES = {"R": 1, "S": 2, "T": 1}


def _rst_vocabularies(*weight_maps):
    return [WeightedVocabulary.from_weights(weights, _RST_ARITIES)
            for weights in weight_maps]


def _rst_sweep(k=6):
    """``k`` weight vectors of the R/S/T sentence varying only ``R``."""
    return _rst_vocabularies(*[
        {"R": (Fraction(j, 3), 1), "S": (1, 1), "T": (1, 1)}
        for j in range(1, k + 1)])


class TestCircuitBuilder:
    def test_hash_consing_shares_structurally_equal_nodes(self):
        b = CircuitBuilder()
        x1 = b.lit("x", True)
        x2 = b.lit("x", True)
        assert x1 == x2
        p1 = b.times([x1, b.lit("y", False)])
        p2 = b.times([b.lit("y", False), x1])  # commutative: same node
        assert p1 == p2

    def test_constant_folding(self):
        b = CircuitBuilder()
        x = b.lit("x", True)
        assert b.times([b.const(2), b.const(3)]) == b.const(6)
        assert b.times([x, b.const(0)]) == b.const(0)
        assert b.times([x, b.const(1)]) == x
        assert b.plus([x, b.const(0)]) == x
        assert b.plus([b.const(2), b.const(-2)]) == b.const(0)
        assert b.pow(x, 0) == b.const(1)
        assert b.pow(x, 1) == x
        assert b.pow(b.const(3), 4) == b.const(81)

    def test_duplicate_children_are_powers_not_sets(self):
        b = CircuitBuilder()
        x = b.lit("x", True)
        square = b.times([x, x])
        circuit = b.build(square)
        assert circuit.evaluate({"x": (3, 1)}) == 9

    def test_empty_operators(self):
        b = CircuitBuilder()
        assert b.times([]) == b.const(1)
        assert b.plus([]) == b.const(0)

    def test_is_zero(self):
        b = CircuitBuilder()
        assert b.is_zero(b.const(0))
        assert not b.is_zero(b.const(2))
        assert not b.is_zero(b.lit("x", True))


class TestCircuitEvaluation:
    def _example(self):
        # (x + ~x * tot(y)) * 3 ^ see manual value below
        b = CircuitBuilder()
        x = b.lit("x", True)
        nx = b.lit("x", False)
        ty = b.tot("y")
        node = b.plus([b.times([x, b.tot("y")]),
                       b.times([nx, ty])])
        root = b.times([node, b.const(3)])
        return b.build(root)

    def test_evaluate_matches_manual_computation(self):
        c = self._example()
        weights = {"x": (Fraction(1, 2), 2), "y": (5, -1)}
        # (1/2 * 4 + 2 * 4) * 3 = 30
        assert c.evaluate(weights) == 30

    def test_gradient_matches_hand_derivative(self):
        c = self._example()
        weights = {"x": (Fraction(1, 2), 2), "y": (5, -1)}
        value, grads = c.gradient(weights)
        assert value == 30
        # d/dw_x = tot(y) * 3 = 12; d/dwbar_x likewise 12
        assert grads["x"] == (12, 12)
        # d/dw_y = d/dwbar_y = (w_x + wbar_x) * 3 = 15/2
        assert grads["y"] == (Fraction(15, 2), Fraction(15, 2))

    def test_gradient_handles_zero_valued_product_children(self):
        b = CircuitBuilder()
        root = b.times([b.lit("x", True), b.lit("y", True)])
        c = b.build(root)
        value, grads = c.gradient({"x": (0, 1), "y": (7, 1)})
        assert value == 0
        assert grads["x"] == (7, 0)  # the cofactor, no division by zero
        assert grads["y"] == (0, 0)

    def test_pow_gradient(self):
        b = CircuitBuilder()
        c = b.build(b.pow(b.lit("x", True), 3))
        value, grads = c.gradient({"x": (Fraction(2), 1)})
        assert value == 8
        assert grads["x"] == (12, 0)  # 3 * x^2

    def test_degree_and_depth_and_stats(self):
        c = self._example()
        assert c.degree("x") == 1
        assert c.degree("y") == 1
        stats = c.stats()
        assert stats["nodes"] == len(c)
        assert stats["depth"] == c.depth()
        assert stats["vars"] == 2


#: A leaf value: an int (zero and negatives included) or a rational
#: whose denominator differs from draw to draw, so ``D_k`` varies.
_LEAF_VALUES = st.one_of(
    st.integers(-3, 3),
    st.fractions(-4, 4, max_denominator=9),
)
_PAIRS = st.one_of(st.just((1, -1)), st.tuples(_LEAF_VALUES, _LEAF_VALUES))


@st.composite
def _circuits_and_batches(draw):
    """A random circuit over 2-3 keys and a weight batch for it.

    Nodes are built bottom-up from ``lit``/``tot`` leaves and int and
    Fraction constants with ``times``, ``plus`` (unsmoothed: children of
    unequal degree) and ``pow``; a node is kept only while its degree is
    at most 12, which bounds the size of the interpreter's numbers.
    """
    builder = CircuitBuilder()
    keys = ("a", "b", "c")[:draw(st.integers(2, 3))]
    nodes, degrees = [], []
    for key in keys:
        for node in (builder.lit(key, True), builder.lit(key, False),
                     builder.tot(key)):
            nodes.append(node)
            degrees.append(1)
    constants = st.one_of(st.integers(-3, 3),
                          st.fractions(-3, 3, max_denominator=6))
    for _ in range(draw(st.integers(1, 10))):
        op = draw(st.sampled_from(("const", "times", "plus", "pow")))
        if op == "const":
            node, degree = builder.const(draw(constants)), 0
        elif op == "pow":
            j = draw(st.integers(0, len(nodes) - 1))
            power = draw(st.integers(2, 3))
            node, degree = builder.pow(nodes[j], power), degrees[j] * power
        else:
            picks = draw(st.lists(st.integers(0, len(nodes) - 1),
                                  min_size=1, max_size=4))
            kids = [nodes[j] for j in picks]
            if op == "times":
                node = builder.times(kids)
                degree = sum(degrees[j] for j in picks)
            else:
                node = builder.plus(kids)
                degree = max(degrees[j] for j in picks)
        if degree <= 12:
            nodes.append(node)
            degrees.append(degree)
    batch = draw(st.lists(st.fixed_dictionaries({key: _PAIRS for key in keys}),
                          min_size=1, max_size=5))
    return builder.build(nodes[-1]), batch


class TestEvaluateMany:
    """``evaluate_many`` is one staged pass over the rows, bit-identical
    in numerator and denominator to a loop of scalar ``evaluate`` calls;
    each test runs on a lineage circuit and on an FO2 circuit."""

    @pytest.fixture(scope="class", params=["lineage", "fo2"])
    def compiled(self, request):
        compiled = compile_wfomc(parse(_RST), 2, method=request.param)
        assert compiled.kind == request.param
        return compiled

    @staticmethod
    def _check(compiled, vocabularies):
        got = compiled.evaluate_many(vocabularies)
        expected = [compiled.evaluate(wv) for wv in vocabularies]
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert isinstance(a, Fraction)
            assert (a.numerator, a.denominator) == (
                b.numerator, b.denominator)
        return got

    def test_empty_batch(self, compiled):
        assert compiled.evaluate_many([]) == []

    def test_single_vector(self, compiled):
        self._check(compiled, _rst_vocabularies(
            {"R": (Fraction(2, 3), 5), "S": (1, Fraction(1, 4)), "T": (3, 1)}))

    def test_uniform_batch_broadcasts(self, compiled):
        # No slot varies, so the root is one scalar copied K times.
        batch = _rst_vocabularies(
            *[{"R": (Fraction(1, 3), 1), "S": (2, 1), "T": (1, 7)}] * 4)
        assert len(set(self._check(compiled, batch))) == 1

    def test_zero_negative_and_skolem_weights(self, compiled):
        self._check(compiled, _rst_vocabularies(
            {"R": (0, 1), "S": (1, 1), "T": (1, -1)},
            {"R": (-2, 3), "S": (Fraction(1, 2), 0), "T": (1, -1)},
            {"R": (1, -1), "S": (-1, Fraction(-1, 3)), "T": (0, 0)},
            {"R": (1, -1), "S": (1, -1), "T": (1, -1)},
        ))

    def test_matches_scalar_loop(self, compiled):
        self._check(compiled, _rst_sweep())

    def test_circuit_level_mapping_weights(self):
        b = CircuitBuilder()
        root = b.times([b.plus([b.lit("x", True), b.lit("y", False)]),
                        b.pow(b.tot("y"), 2), b.const(Fraction(3, 2))])
        c = b.build(root)
        batch = [{"x": (1, 1), "y": (1, 1)}, {"x": (2, 0), "y": (0, 3)},
                 {"x": (Fraction(1, 2), 1), "y": (1, -1)}]
        assert c.evaluate_many(batch) == [c.evaluate(w) for w in batch]

    @staticmethod
    def _check_circuit(circuit, batch):
        got = circuit.evaluate_many(batch)
        expected = [circuit.evaluate(w) for w in batch]
        assert all(isinstance(v, Fraction) for v in got)
        assert [(v.numerator, v.denominator) for v in got] == [
            (v.numerator, v.denominator) for v in expected]

    def test_varying_denominators_pad_scalar_children(self):
        # ``b`` carries the same non-integral pair in every vector while
        # D_k varies with ``a``, so b's leaves and the Fraction constant
        # become columns, and the unsmoothed sum pads children whose
        # exponents are 0, 1 and 2.
        b = CircuitBuilder()
        root = b.plus([b.times([b.lit("a", True), b.lit("b", False)]),
                       b.const(Fraction(7, 2)), b.lit("b", True),
                       b.pow(b.tot("c"), 2)])
        c = b.build(root)
        half = (Fraction(1, 2), Fraction(-2, 3))
        self._check_circuit(c, [
            {"a": (Fraction(1, 5), 1), "b": half, "c": (1, 2)},
            {"a": (3, Fraction(1, 7)), "b": half, "c": (1, 2)},
            {"a": (1, -1), "b": half, "c": (0, 0)},
        ])
        # The same pair everywhere: D_k is uniform and padding scalar.
        self._check_circuit(c, [{"a": half, "b": half, "c": half}] * 3)

    @settings(max_examples=200, deadline=None)
    @given(case=_circuits_and_batches())
    def test_integer_pass_matches_interpreter_on_random_circuits(self, case):
        circuit, batch = case
        self._check_circuit(circuit, batch)


class TestSmoothing:
    def test_unsmooth_plus_is_detected_and_repaired(self):
        b = CircuitBuilder()
        root = b.plus([b.lit("x", True), b.lit("y", True)])
        c = b.build(root)
        assert not c.is_smooth()
        smoothed = c.smooth()
        assert smoothed.is_smooth()
        # Each branch gained the other variable's total factor.
        weights = {"x": (2, 3), "y": (5, 7)}
        assert smoothed.evaluate(weights) == 2 * (5 + 7) + 5 * (2 + 3)

    def test_traced_circuits_are_smooth_by_construction(self):
        cnf = _cnf([(1, 2), (-2, 3), (1, -3)], 4)
        circuit = compile_cnf(cnf)
        assert circuit.is_smooth()
        # Smoothing an already-smooth circuit changes nothing observable.
        weights = {v: (Fraction(1, 3), 2) for v in range(1, 5)}
        assert circuit.smooth().evaluate(weights) == circuit.evaluate(weights)


class TestSerialization:
    def test_payload_roundtrip_through_store_codec(self):
        cnf = _cnf([(1, 2), (-1, 3), (2, -3)], 3)
        circuit = compile_cnf(cnf)
        payload = decode_value(encode_value(circuit.to_payload()))
        restored = Circuit.from_payload(payload)
        weights = {v: (Fraction(2, 3), -1) for v in range(1, 4)}
        assert restored.evaluate(weights) == circuit.evaluate(weights)
        value, grads = restored.gradient(weights)
        assert (value, grads) == circuit.gradient(weights)

    def test_foreign_payloads_degrade_to_none(self):
        assert Circuit.from_payload(None) is None
        assert Circuit.from_payload(("other", 1, 0, ())) is None
        assert Circuit.from_payload(("accirc", 999, 0, ())) is None


def _enumeration(clauses, pairs):
    total = Fraction(0)
    for bits in itertools.product((False, True), repeat=len(pairs)):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            weight = Fraction(1)
            for bit, pair in zip(bits, pairs):
                weight *= pair[0] if bit else pair[1]
            total += weight
    return total


class TestCompileCNF:
    def test_matches_wmc_cnf_at_many_weights(self):
        clauses = [(1, 2, -3), (-1, 4), (2, 3), (-4, -2, 1)]
        cnf = _cnf(clauses, 5)  # variable 5 occurs in no clause
        circuit = compile_cnf(cnf)
        for pairs in (
            [WeightPair(1, 1)] * 5,
            [WeightPair(Fraction(1, 2), 2), WeightPair(0, 1),
             WeightPair(1, -1), WeightPair(3, Fraction(-1, 3)),
             WeightPair(2, 5)],
        ):
            direct = wmc_cnf(cnf, lambda v: pairs[v - 1], engine_cache={},
                             stats=EngineStats())
            compiled = circuit.evaluate(lambda v: tuple(pairs[v - 1]))
            assert compiled == direct
            assert (compiled.numerator, compiled.denominator) == (
                direct.numerator, direct.denominator)

    def test_contradictory_cnf_compiles_to_zero(self):
        cnf = _cnf([(1,), ()], 2)
        assert compile_cnf(cnf).evaluate({1: (1, 1), 2: (1, 1)}) == 0

    def test_empty_cnf_counts_unconstrained_mass(self):
        cnf = _cnf([], 2)
        assert compile_cnf(cnf).evaluate({1: (2, 3), 2: (1, 4)}) == 25

    def test_tseitin_auxiliaries_are_baked_out(self):
        # A non-clausal formula forces the Tseitin path in to_cnf.
        formula = por(pand(pvar("a"), pvar("b")),
                      pand(pvar("c"), pnot(pvar("a"))))
        circuit = compile_formula(formula)
        assert set(circuit.leaf_keys()) <= {"a", "b", "c"}
        for w in ((1, 1), (Fraction(1, 2), Fraction(1, 3))):
            weights = {label: w for label in ("a", "b", "c")}
            direct = wmc_formula(formula, lambda label: WeightPair(*w))
            assert circuit.evaluate(weights) == direct

    def test_gradient_is_exact_on_multilinear_wmc(self):
        # WMC is degree-1 in every (w_v, wbar_v) coordinate, so central
        # differences are *exactly* the derivative — no tolerance.
        clauses = [(1, -2), (2, 3), (-1, -3), (1, 2, 3)]
        cnf = _cnf(clauses, 3)
        circuit = compile_cnf(cnf)
        pairs = [(Fraction(2, 3), 1), (Fraction(-1, 2), 2), (3, Fraction(1, 5))]
        value, grads = circuit.gradient(_pairs_fn(pairs))
        assert value == _enumeration(clauses, pairs)
        h = Fraction(1, 9)
        for v in (1, 2, 3):
            for side in (0, 1):
                def shifted(delta):
                    def fn(u):
                        if u == v:
                            pair = list(pairs[u - 1])
                            pair[side] += delta
                            return tuple(pair)
                        return pairs[u - 1]
                    return fn
                fd = (circuit.evaluate(shifted(h))
                      - circuit.evaluate(shifted(-h))) / (2 * h)
                assert fd == grads[v][side]


class TestCompileLineage:
    def test_matches_wfomc_lineage_across_weight_vectors(self):
        sentence = parse("forall x, y. (R(x) | S(x, y))")
        circuit = compile_lineage(sentence, 3)
        for w_r, w_s in ((Fraction(1, 2), 2), (1, 1), (-1, Fraction(1, 3))):
            wv = WeightedVocabulary.from_weights(
                {"R": (w_r, 1), "S": (w_s, 1)}, {"R": 1, "S": 2})
            direct = wfomc_lineage(sentence, 3, wv)
            compiled = circuit.evaluate(
                lambda label: tuple(wv.weight(label[0])))
            assert compiled == direct

    def test_template_cache_shares_isomorphic_components(self):
        reset_engine()
        sentence = parse("forall x, y. (R(x) | S(x, y) | T(y))")
        compile_lineage(sentence, 3)
        stats = engine_stats()
        # Symmetric lineages re-encounter renamed copies of the same
        # component: the canonical templates must be reused.
        assert stats["trace_template_hits"] > 0


class TestCompileWFOMC:
    SENTENCES = [
        ("forall x. exists y. R(x, y)", 3),
        ("forall x. (P(x) | exists y. (R(x, y) & ~P(y)))", 2),
        ("exists x. forall y. (R(x, y) | x = y)", 3),
    ]

    @pytest.mark.parametrize("text,n", SENTENCES)
    def test_fo2_and_lineage_kinds_agree_with_the_solver(self, text, n):
        sentence = parse(text)
        weighted = WeightedVocabulary.uniform(
            WeightedVocabulary.counting(sentence).vocabulary,
            WeightPair(Fraction(1, 2), Fraction(3, 2)))
        reference = wfomc(sentence, n, weighted, method="lineage")
        for method in ("auto", "fo2", "lineage"):
            compiled = compile_wfomc(sentence, n, method=method)
            assert compiled.evaluate(weighted) == reference

    def test_kind_dispatch(self):
        fo2 = compile_wfomc(parse("forall x. exists y. R(x, y)"), 2)
        assert fo2.kind == "fo2"
        three_var = compile_wfomc(
            parse("forall x, y, z. (R(x, y) | R(y, z))"), 2)
        assert three_var.kind == "lineage"

    def test_domain_size_zero_routes_to_lineage(self):
        sentence = parse("forall x. exists y. R(x, y)")
        compiled = compile_wfomc(sentence, 0, method="fo2")
        assert compiled.kind == "lineage"
        assert compiled.evaluate(WeightedVocabulary.counting(sentence)) == 1

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            compile_wfomc(parse("exists x. P(x)"), 2, method="enumerate")

    def test_compiled_cache_hits(self):
        clear_compile_cache()
        sentence = parse("forall x. exists y. R(x, y)")
        first = compile_wfomc(sentence, 3)
        second = compile_wfomc(sentence, 3)
        assert first is second
        stats = compile_stats()
        assert stats["compiled"] == 1
        assert stats["circuits"]["hits"] >= 1

    def test_gradient_matches_interpolated_derivative(self):
        # WFOMC is a polynomial in each predicate's w coordinate; the
        # derivative read off d+1 evaluation points by exact Lagrange
        # interpolation must equal the circuit gradient exactly.
        sentence = parse("forall x, y. (R(x, y) | R(y, x))")
        for method in ("fo2", "lineage"):
            compiled = compile_wfomc(sentence, 3, method=method)
            base = WeightedVocabulary.from_weights(
                {"R": (Fraction(1, 2), Fraction(2, 3))}, {"R": 2})
            value, grads = compiled.gradient(base)
            assert value == wfomc(sentence, 3, base, method="lineage")
            degree = 9 + 1  # at most n**2 atoms, degree <= 9; margin
            points = []
            for t in range(degree + 1):
                shifted = base.with_weight(
                    "R", WeightPair(Fraction(1, 2) + t, Fraction(2, 3)))
                points.append((t, compiled.evaluate(shifted)))
            coefficients = polynomial_interpolate(points)
            assert coefficients[1] == grads["R"][0]


_FO3 = "forall x, y, z. (R(x, y) | S(y, z) | T(x))"
_FO3_ARITIES = {"R": 2, "S": 2, "T": 1}


class TestPredicateLeaves:
    """``compile_wfomc`` re-emits lineage circuits over predicate-name
    leaves; ``compile_lineage`` keeps its ground-atom leaves."""

    @staticmethod
    def _random_vocabulary(rng):
        def weight():
            return Fraction(rng.randint(-5, 9), rng.randint(1, 7))

        return WeightedVocabulary.from_weights(
            {name: (weight(), weight()) for name in _FO3_ARITIES},
            _FO3_ARITIES)

    def test_fo3_leaves_are_predicate_names(self):
        sentence = parse(_FO3)
        compiled = compile_wfomc(sentence, 3)
        assert compiled.kind == "lineage"
        assert set(compiled.circuit.leaf_keys()) == set(_FO3_ARITIES)
        atoms = compile_lineage(sentence, 3)
        assert len(compiled.circuit) < len(atoms)

    def test_compile_lineage_keeps_atom_leaves(self):
        atoms = compile_lineage(parse(_FO3), 3)
        keys = atoms.leaf_keys()
        assert len(keys) > len(_FO3_ARITIES)
        for name, args in keys:
            assert len(args) == _FO3_ARITIES[name]

    def test_gradient_is_the_atom_gradient_summed_per_predicate(self):
        sentence = parse(_FO3)
        compiled = compile_wfomc(sentence, 3)
        atoms = compile_lineage(sentence, 3)
        rng = random.Random(19)
        for _ in range(3):
            wv = self._random_vocabulary(rng)
            atom_value, atom_grads = atoms.gradient(
                lambda atom: tuple(wv.weight(atom[0])))
            expected = {name: (0, 0) for name in _FO3_ARITIES}
            for (name, _args), (gw, gwbar) in atom_grads.items():
                expected[name] = (expected[name][0] + gw,
                                  expected[name][1] + gwbar)
            value, grads = compiled.gradient(wv)
            assert value == atom_value
            assert grads == expected

    def test_old_atom_leaf_store_row_recompiles(self, tmp_path):
        # A row persisted before leaves became predicate names: layout
        # version 1 over the atom-leaf lineage circuit.
        cache_dir = str(tmp_path / "old-rows")
        sentence = parse(_FO3)
        vocabulary = Vocabulary(Predicate(name, arity) for name, arity
                                in sorted(_FO3_ARITIES.items()))
        store_key = ("wfomc", sentence, 3,
                     vocabulary_signature(vocabulary, ordered=True), "auto")
        old_row = ("cwfomc", 1, "lineage", (),
                   compile_lineage(sentence, 3, vocabulary).to_payload())
        store = open_store(cache_dir)
        store.put(CIRCUITS_NS, store_key, old_row)
        store.flush()
        wv = self._random_vocabulary(random.Random(7))
        expected = wfomc(sentence, 3, wv, method="lineage")

        clear_compile_cache()
        compiled = compile_wfomc(sentence, 3, vocabulary, persist=True,
                                 cache_dir=cache_dir)
        assert compile_stats()["compile_store_hits"] == 0
        assert set(compiled.circuit.leaf_keys()) == set(_FO3_ARITIES)
        assert compiled.evaluate(wv) == expected

        # The recompile replaced the row: a cold lookup now hits it.
        open_store(cache_dir).flush()
        clear_compile_cache()
        reloaded = compile_wfomc(sentence, 3, vocabulary, persist=True,
                                 cache_dir=cache_dir)
        assert compile_stats()["compile_store_hits"] == 1
        assert reloaded.evaluate_many([wv]) == [expected]


class TestPersistence:
    def test_circuits_roundtrip_through_the_store(self, tmp_path):
        cache_dir = str(tmp_path / "circ-store")
        sentence = parse("forall x, y. (R(x) | S(x, y))")
        wv = WeightedVocabulary.from_weights(
            {"R": (Fraction(1, 2), 1), "S": (2, 1)}, {"R": 1, "S": 2})
        clear_compile_cache()
        first = compile_wfomc(sentence, 3, method="lineage", persist=True,
                              cache_dir=cache_dir)
        expected = first.evaluate(wv)
        from repro.cache import open_store

        open_store(cache_dir).flush()
        # A cold in-memory state must be served from disk.
        clear_compile_cache()
        reset_engine()
        second = compile_wfomc(sentence, 3, method="lineage", persist=True,
                               cache_dir=cache_dir)
        assert compile_stats()["compile_store_hits"] == 1
        assert second.evaluate(wv) == expected

    def test_store_serves_fo2_circuits_with_fixed_pairs(self, tmp_path):
        cache_dir = str(tmp_path / "fo2-store")
        sentence = parse("forall x. exists y. R(x, y)")
        wv = WeightedVocabulary.from_weights({"R": (Fraction(1, 3), 2)},
                                             {"R": 2})
        clear_compile_cache()
        first = compile_wfomc(sentence, 3, persist=True, cache_dir=cache_dir)
        expected = first.evaluate(wv)
        from repro.cache import open_store

        open_store(cache_dir).flush()
        clear_compile_cache()
        second = compile_wfomc(sentence, 3, persist=True, cache_dir=cache_dir)
        assert second.kind == "fo2"
        assert second.fixed_pairs == first.fixed_pairs
        assert second.evaluate(wv) == expected


class TestSolverFastPaths:
    def test_weight_sweep_compile_is_bit_identical(self):
        sentence = parse("forall x, y. (R(x) | S(x, y))")
        arities = {"R": 1, "S": 2}
        vocabularies = [
            WeightedVocabulary.from_weights(
                {"R": (Fraction(k, 2), 1), "S": (1, 1)}, arities)
            for k in range(1, 6)
        ]
        direct = wfomc_weight_sweep(sentence, 3, vocabularies,
                                    method="lineage", via_polynomial=False)
        compiled = wfomc_weight_sweep(sentence, 3, vocabularies,
                                      method="lineage", compile=True)
        assert compiled == direct
        for a, b in zip(compiled, direct):
            assert (a.numerator, a.denominator) == (b.numerator, b.denominator)

    def test_batch_compile_matches_direct(self):
        sentence = parse("forall x. exists y. R(x, y)")
        direct = wfomc_batch(sentence, [1, 2, 3])
        compiled = wfomc_batch(sentence, [1, 2, 3], compile=True)
        assert compiled == direct

    def test_probability_compile_matches_direct(self):
        sentence = parse("exists x. P(x)")
        wv = WeightedVocabulary.from_weights(
            {"P": (Fraction(1, 3), Fraction(2, 3))}, {"P": 1})
        assert (probability(sentence, 3, wv, compile=True)
                == probability(sentence, 3, wv))

    def test_weight_sweep_matches_direct(self):
        f = parse(_RST)
        vocabularies = _rst_sweep()
        direct = wfomc_weight_sweep(f, 2, vocabularies,
                                    via_polynomial=False)
        got = wfomc_weight_sweep(f, 2, vocabularies,
                                 options=SolverOptions(compile=True))
        assert got == direct

    def test_batch_compiles_once_per_size(self):
        f = parse(_RST)
        wv = _rst_sweep(1)[0]
        clear_compile_cache()
        before = compile_stats()["compiled"]
        results = wfomc_batch(f, [2, 3], wv,
                              options=SolverOptions(compile=True))
        assert compile_stats()["compiled"] - before == 2
        assert results == {n: wfomc(f, n, wv) for n in (2, 3)}

    def test_mln_query_sweep_compiled_route_matches_loop(self):
        from repro.mln import MLN, mln_query_sweep

        mlns = [MLN([(Fraction(w, 2), parse("S(x, y)")),
                     (Fraction(3), parse("P(x)"))])
                for w in (5, 7, 9)]
        query = parse("exists x. P(x)")
        plain = mln_query_sweep(mlns, query, 2)
        assert mln_query_sweep(mlns, query, 2,
                               options=SolverOptions(compile=True)) == plain

    def test_mln_query_sweep_pole_falls_back(self):
        from repro.mln import MLN, mln_query_sweep

        # A weight-1 soft constraint sits on the pole of the frozen
        # reduction template; the sweep must fall back to the per-MLN
        # loop and still be exact.
        mlns = [MLN([(Fraction(w), parse("P(x)"))]) for w in (1, 2)]
        query = parse("exists x. P(x)")
        plain = mln_query_sweep(mlns, query, 2)
        compiled = mln_query_sweep(mlns, query, 2,
                                   options=SolverOptions(compile=True))
        assert compiled == plain

    def test_enumerate_method_ignores_compile(self):
        sentence = parse("exists x. P(x)")
        assert (wfomc_weight_sweep(
                    sentence, 2, [WeightedVocabulary.counting(sentence)],
                    method="enumerate", compile=True)
                == wfomc_weight_sweep(
                    sentence, 2, [WeightedVocabulary.counting(sentence)],
                    method="enumerate"))
