"""Differential fuzzing across every counting configuration.

After three engine rewrites (component caching, watched literals, CDCL)
and the knowledge-compilation subsystem, the correctness surface is
wide: any of the search knobs, the parallel mode, the persistent cache,
or the circuit compiler could in principle drift from the others.  This
suite pins them together: for hypothesis-generated propositional CNFs
and small FO2 sentences, the CDCL engine, the learning-free engine,
phase-saving on/off, brute-force enumeration, persist-on (cold *and*
disk-warm) / persist-off runs, and compiled-circuit evaluation (cold
*and* template-cache-warm) must produce bit-identical exact counts —
and circuit gradients must equal finite differences on rational
perturbations (exactly: WMC is multilinear per variable).

A seeded deterministic corpus of random 3-CNFs and FO2 sentences rides
along as a regression net: it reruns the same instances every time (no
hypothesis shrinking involved), so a failure here bisects cleanly.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.compile import compile_cnf, compile_wfomc, clear_compile_cache
from repro.grounding.lineage import clear_grounding_caches
from repro.propositional.cnf import CNF
from repro.propositional.counter import EngineStats, reset_engine, wmc_cnf
from repro.wfomc.solver import clear_solver_caches, wfomc
from repro.weights import WeightPair

from .strategies import cnf_clause_lists, fo2_sentences, weighted_vocabularies


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One persistent store shared by the whole module.

    Sharing is deliberate: entries are content-addressed and exact, so a
    hit from an earlier example must be just as correct as a fresh
    computation — the differential assertions below would catch any
    key collision or stale payload.
    """
    return str(tmp_path_factory.mktemp("diff-store"))


def _cnf_from_clauses(clauses, num_vars):
    cnf = CNF()
    for v in range(1, num_vars + 1):
        cnf.var_for(v)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


def _wmc_reference(clauses, pairs):
    """WMC by enumerating all assignments of variables 1..len(pairs)."""
    total = Fraction(0)
    for bits in itertools.product((False, True), repeat=len(pairs)):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in clauses):
            weight = Fraction(1)
            for bit, pair in zip(bits, pairs):
                weight *= pair.w if bit else pair.wbar
            total += weight
    return total


def _count_all_ways(cnf, pairs, cache_dir):
    """The counted value under every engine configuration.

    Returns ``{name: Fraction}`` for: the default CDCL engine, the MOMS
    branching ablation, the learning-free engine, the phase-saving
    ablation, the Luby-restart policy at its most aggressive unit, a
    persist-on run (writing the store), a persist-on run
    with a *fresh in-memory cache* (so every component it reuses comes
    back from disk), compiled-circuit evaluation from a cold trace
    (fresh template cache) and a cache-warm one, and the circuit's
    staged ``evaluate_many`` pass over a perturbed weight batch, each
    element checked bit-identical against the row interpreter in here.
    """
    weight_of = lambda v: pairs[v - 1]  # noqa: E731
    results = {}
    for name, kwargs in (
        ("cdcl", {}),
        ("moms-branching", {"branching": "moms"}),
        ("no-learn", {"learn": False}),
        ("no-phase-saving", {"phase_saving": False}),
        # Unit 1 fires a restart after every Luby step — maximally
        # aggressive, so even small instances exercise the restart path.
        ("luby-restarts", {"restarts": 1}),
        ("persist-cold", {"persist": True, "cache_dir": cache_dir}),
        ("persist-warm", {"persist": True, "cache_dir": cache_dir}),
    ):
        results[name] = wmc_cnf(cnf, weight_of, engine_cache={},
                                stats=EngineStats(), **kwargs)
    circuit_weights = lambda v: tuple(pairs[v - 1])  # noqa: E731
    reset_engine()  # compiled-cold: empty trace-template cache
    circuit = compile_cnf(cnf)
    results["compiled-cold"] = circuit.evaluate(circuit_weights)
    results["compiled-warm"] = compile_cnf(cnf).evaluate(circuit_weights)
    results["evaluate-many"] = _evaluate_many(circuit, pairs)
    return results


def _evaluate_many(circuit, pairs):
    """Element 0 of an ``evaluate_many`` batch over ``pairs`` and four
    perturbations of it; asserts every element bit-identical to the
    scalar interpreter.  The perturbations give the vectors different
    common denominators, so the integer pass scales each by its own."""
    def fn_for(ps):
        return lambda v: tuple(ps[v - 1])

    perturbed = [
        [WeightPair(p.w + delta, p.wbar) for p in pairs]
        for delta in (Fraction(1, 3), Fraction(2), Fraction(1, 5))
    ] + [
        # A different denominator per variable and per side.
        [WeightPair(p.w + Fraction(1, v + 2), p.wbar - Fraction(v, 7))
         for v, p in enumerate(pairs)]
    ]
    batch = [fn_for(pairs)] + [fn_for(ps) for ps in perturbed]
    got = circuit.evaluate_many(batch)
    expected = [circuit.evaluate(fn) for fn in batch]
    assert [(v.numerator, v.denominator) for v in got] == [
        (v.numerator, v.denominator) for v in expected]
    return got[0]


class TestPropositionalDifferential:
    @settings(max_examples=60, deadline=None)
    @given(clauses=cnf_clause_lists(num_vars=6, max_clauses=12),
           wvs=weighted_vocabularies())
    def test_all_configurations_match_enumeration(self, clauses, wvs,
                                                  cache_dir):
        num_vars = 6
        named = list(wvs.items())
        pairs = [named[v % len(named)][1] for v in range(num_vars)]
        cnf = _cnf_from_clauses(clauses, num_vars)
        reference = _wmc_reference(clauses, pairs)
        results = _count_all_ways(cnf, pairs, cache_dir)
        for name, got in results.items():
            assert got == reference, name
            # Bit-identical, not merely numerically equal.
            assert (got.numerator, got.denominator) == (
                reference.numerator, reference.denominator), name


class TestFO2Differential:
    @settings(max_examples=25, deadline=None)
    @given(sentence=fo2_sentences(), wv=weighted_vocabularies())
    def test_fo2_lineage_enumeration_and_persistence_agree(
            self, sentence, wv, cache_dir):
        n = 2
        reference = wfomc(sentence, n, wv, method="enumerate")
        configurations = (
            ("fo2", {"method": "fo2"}),
            ("lineage", {"method": "lineage"}),
            ("fo2-persist", {"method": "fo2", "persist": True,
                             "cache_dir": cache_dir}),
            ("lineage-persist", {"method": "lineage", "persist": True,
                                 "cache_dir": cache_dir}),
        )
        for name, kwargs in configurations:
            # Fresh in-memory caches per configuration: each one has to
            # recompute (or, for the persist runs, re-read from disk)
            # rather than coast on another configuration's result cache.
            reset_engine()
            clear_grounding_caches()
            clear_solver_caches()
            got = wfomc(sentence, n, wv, **kwargs)
            assert got == reference, name
        # Compiled circuits, cold and cache-warm, for both kinds.
        for method in ("fo2", "lineage"):
            reset_engine()
            clear_grounding_caches()
            clear_solver_caches()
            clear_compile_cache()
            try:
                compiled = compile_wfomc(sentence, n, wv.vocabulary,
                                         method=method)
            except Exception as exc:  # NotFO2Error from strict fo2 mode
                from repro.errors import NotFO2Error

                if method == "fo2" and isinstance(exc, NotFO2Error):
                    continue
                raise
            assert compiled.evaluate(wv) == reference, (
                "compiled-cold", method)
            warm = compile_wfomc(sentence, n, wv.vocabulary, method=method)
            assert warm.evaluate(wv) == reference, ("compiled-warm", method)


# -- seeded deterministic regression corpus ----------------------------------


def _corpus_cnf(seed, num_vars, ratio):
    """A reproducible random 3-CNF (the counting-hard shapes)."""
    rng = random.Random("differential:{}".format(seed))
    clauses = []
    for _ in range(int(num_vars * ratio)):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


#: (seed, num_vars, clause ratio, weight scheme).  Ratios cover the
#: model-dense regime (2.0), the hard middle (3.5), and near-threshold
#: refutation-heavy instances (4.2); weight schemes cover unweighted,
#: fractional, and negative (Skolem-style) pairs.
_CORPUS = [
    (11, 12, 2.0, "unweighted"),
    (23, 12, 3.5, "unweighted"),
    (5, 12, 4.2, "unweighted"),
    (42, 10, 2.0, "fractional"),
    (87, 10, 3.5, "fractional"),
    (61, 10, 4.2, "skolem"),
    (7, 14, 3.0, "unweighted"),
    (99, 10, 3.0, "skolem"),
]


def _corpus_pairs(scheme, num_vars):
    if scheme == "unweighted":
        return [WeightPair(1, 1)] * num_vars
    if scheme == "fractional":
        return [WeightPair(Fraction(v % 3 + 1, 2), Fraction(1, v % 2 + 1))
                for v in range(1, num_vars + 1)]
    return [WeightPair(1, -1) if v % 4 == 0 else WeightPair(1, 1)
            for v in range(1, num_vars + 1)]


class TestSeededRegressionCorpus:
    @pytest.mark.parametrize("seed,num_vars,ratio,scheme", _CORPUS)
    def test_corpus_instance_agrees_everywhere(self, seed, num_vars, ratio,
                                               scheme, cache_dir):
        clauses = _corpus_cnf(seed, num_vars, ratio)
        pairs = _corpus_pairs(scheme, num_vars)
        cnf = _cnf_from_clauses(clauses, num_vars)
        reference = _wmc_reference(clauses, pairs)
        results = _count_all_ways(cnf, pairs, cache_dir)
        for name, got in results.items():
            assert got == reference, (name, seed)

    _FO2_CORPUS = [
        "forall x. exists y. R(x, y)",
        "forall x, y. (R(x, y) | R(y, x))",
        "forall x. (P(x) | exists y. (R(x, y) & ~P(y)))",
        "exists x. forall y. (R(x, y) | x = y)",
        "(forall x. P(x)) | (forall x, y. ~R(x, y))",
    ]

    @pytest.mark.parametrize("text", _FO2_CORPUS)
    def test_fo2_corpus_cross_method_and_persistence(self, text, cache_dir):
        from repro.logic.parser import parse

        sentence = parse(text)
        reference = wfomc(sentence, 3, method="lineage")
        for kwargs in ({"method": "fo2"},
                       {"method": "fo2", "persist": True,
                        "cache_dir": cache_dir},
                       {"method": "lineage", "persist": True,
                        "cache_dir": cache_dir}):
            reset_engine()
            clear_grounding_caches()
            clear_solver_caches()
            assert wfomc(sentence, 3, **kwargs) == reference


class TestCircuitGradientDifferential:
    """Circuit gradients vs finite differences on rational perturbations.

    WMC is multilinear in each variable's ``(w, wbar)`` coordinate, so a
    central difference is not an approximation but the *exact*
    derivative — the comparison is ``==``, no tolerance anywhere.
    """

    @settings(max_examples=30, deadline=None)
    @given(clauses=cnf_clause_lists(num_vars=5, max_clauses=10),
           wvs=weighted_vocabularies())
    def test_gradient_equals_central_difference(self, clauses, wvs):
        num_vars = 5
        named = list(wvs.items())
        pairs = [tuple(named[v % len(named)][1]) for v in range(num_vars)]
        cnf = _cnf_from_clauses(clauses, num_vars)
        circuit = compile_cnf(cnf)
        weight_fn = lambda v: pairs[v - 1]  # noqa: E731
        value, grads = circuit.gradient(weight_fn)
        assert value == circuit.evaluate(weight_fn)
        h = Fraction(1, 5)
        for v in circuit.leaf_keys():
            for side in (0, 1):
                def shifted(delta, v=v, side=side):
                    def fn(u):
                        if u == v:
                            pair = list(pairs[u - 1])
                            pair[side] += delta
                            return tuple(pair)
                        return pairs[u - 1]
                    return fn
                derivative = (circuit.evaluate(shifted(h))
                              - circuit.evaluate(shifted(-h))) / (2 * h)
                assert derivative == grads[v][side], (v, side)

    @settings(max_examples=10, deadline=None)
    @given(sentence=fo2_sentences(), wv=weighted_vocabularies())
    def test_fo2_circuit_gradient_matches_interpolated_derivative(
            self, sentence, wv):
        # Per-predicate WFOMC gradients have polynomial degree up to the
        # number of ground atoms; exact Lagrange interpolation over
        # degree+1 points recovers the derivative with no tolerance.
        from repro.utils import polynomial_interpolate

        n = 2
        compiled = compile_wfomc(sentence, n, wv.vocabulary)
        value, grads = compiled.gradient(wv)
        assert value == wfomc(sentence, n, wv, method="enumerate")
        name = next(iter(p.name for p in wv.vocabulary))
        arity = next(p.arity for p in wv.vocabulary if p.name == name)
        degree = n ** arity
        base = wv.weight(name)
        points = []
        for t in range(degree + 2):
            shifted = wv.with_weight(name, WeightPair(base.w + t, base.wbar))
            points.append((t, compiled.evaluate(shifted)))
        coefficients = polynomial_interpolate(points)
        assert coefficients[1] == grads[name][0]
