"""Tests for the FO2 lifted algorithm (Appendix C): the PTIME data
complexity result, validated exhaustively against the lineage engine."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.compile import compile_wfomc
from repro.errors import NotFO2Error
from repro.logic.parser import parse
from repro.logic.vocabulary import WeightedVocabulary
from repro.wfomc.bruteforce import wfomc_lineage
from repro.weights import WeightPair
from repro.wfomc.closed_forms import (
    fomc_forall_exists,
    table1_fomc,
    table1_wfomc,
    wfomc_forall_exists,
    wfomc_forall_exists_escape,
)
from repro.wfomc.fo2 import clear_fo2_caches, wfomc_fo2

from .strategies import fo2_nested_sentences, weighted_vocabularies


class TestClosedFormAgreement:
    count = staticmethod(wfomc_fo2)

    def test_forall_exists(self):
        f = parse("forall x. exists y. R(x, y)")
        for n in range(6):
            assert self.count(f, n) == fomc_forall_exists(n)

    def test_table1(self):
        f = parse("forall x, y. (R(x) | S(x, y) | T(y))")
        for n in range(5):
            assert self.count(f, n) == table1_fomc(n)

    def test_polynomial_scaling(self):
        # The lifted solver must comfortably reach domain sizes far beyond
        # any grounded method (2^(n^2) worlds).
        f = parse("forall x. exists y. R(x, y)")
        assert self.count(f, 30) == (2 ** 30 - 1) ** 30

    # The weighted closed forms at sizes no grounded method reaches, with
    # fractional and negative weights so the integer scaling of the
    # recursion has denominators to clear.

    def test_weighted_table1_large_n(self):
        pr = WeightPair(Fraction(2, 3), 5)
        ps = WeightPair(Fraction(-1, 2), Fraction(3, 4))
        pt = WeightPair(3, Fraction(-2, 5))
        wv = WeightedVocabulary.from_weights(
            {"R": pr, "S": ps, "T": pt}, {"R": 1, "S": 2, "T": 1})
        f = parse("forall x, y. (R(x) | S(x, y) | T(y))")
        assert self.count(f, 40, wv) == table1_wfomc(40, pr, ps, pt)

    def test_weighted_forall_exists_large_n(self):
        pair = WeightPair(Fraction(3, 7), Fraction(-5, 2))
        wv = WeightedVocabulary.from_weights({"R": pair}, {"R": 2})
        f = parse("forall x. exists y. R(x, y)")
        assert self.count(f, 100, wv) == wfomc_forall_exists(100, pair)

    def test_weighted_escape_large_n(self):
        pr = WeightPair(Fraction(3, 7), Fraction(5, 2))
        ps = WeightPair(Fraction(-9, 4), Fraction(2, 3))
        wv = WeightedVocabulary.from_weights({"R": pr, "S": ps},
                                             {"R": 2, "S": 1})
        f = parse("forall x. exists y. (R(x,y) & (S(x) -> ~S(y)))")
        assert self.count(f, 40, wv) == wfomc_forall_exists_escape(40, pr, ps)


def _compiled_count(formula, n, weighted_vocabulary=None):
    wv = weighted_vocabulary or WeightedVocabulary.counting(formula)
    return compile_wfomc(formula, n, wv.vocabulary).evaluate(wv)


class TestClosedFormAgreementCompiled(TestClosedFormAgreement):
    """The same closed forms through the compiled FO2 circuit, which
    recurses over the weight-independent cell classes."""

    count = staticmethod(_compiled_count)


class TestThreadSafety:
    def test_concurrent_calls_match_serial(self):
        # Serving executor threads share the module-level decomposition
        # caches; every thread must still get the serial answer.
        import random
        import sys
        import threading

        f = parse("forall x. exists y. (R(x,y) & (S(x) -> ~S(y)))")
        wv = WeightedVocabulary.from_weights(
            {"R": (Fraction(3, 7), Fraction(5, 2)),
             "S": (Fraction(-9, 4), Fraction(2, 3))}, {"R": 2, "S": 1})
        sizes = range(5, 21)
        clear_fo2_caches()
        serial = {n: wfomc_fo2(f, n, wv) for n in sizes}
        clear_fo2_caches()
        results, errors = [], []

        def work(seed):
            order = list(sizes)
            random.Random(seed).shuffle(order)
            try:
                for n in order:
                    results.append((n, wfomc_fo2(f, n, wv)))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 8 * len(sizes)
        assert all(value == serial[n] for n, value in results)


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "text",
        [
            "forall x, y. (R(x, y) -> R(y, x))",          # symmetry
            "forall x. ~R(x, x)",                          # irreflexivity
            "forall x. exists y. (R(x, y) & x != y)",      # no self-witness
            "exists x. forall y. R(x, y)",                 # universal row
            "forall x. (P(x) <-> exists y. R(x, y))",      # biconditional def
            "(exists x. P(x)) & (forall x. exists y. S(x, y))",
            "exists x. exists y. (P(x) & S(x, y) & Q(y))", # the FO2 CQ of Sec 1
            "forall x, y. (R(x, y) | x = y)",              # equality in matrix
            "Z | (forall x. P(x))",                        # zero-ary symbol
        ],
    )
    def test_matches_lineage(self, text):
        f = parse(text)
        for n in (0, 1, 2, 3):
            assert wfomc_fo2(f, n) == wfomc_lineage(f, n), (text, n)

    @settings(max_examples=40, deadline=None)
    @given(fo2_nested_sentences())
    def test_matches_lineage_random_unweighted(self, f):
        for n in (1, 2):
            assert wfomc_fo2(f, n) == wfomc_lineage(f, n)

    @settings(max_examples=25, deadline=None)
    @given(fo2_nested_sentences(), weighted_vocabularies())
    def test_matches_lineage_random_weighted(self, f, wv):
        assert wfomc_fo2(f, 2, wv) == wfomc_lineage(f, 2, wv)


class TestWeighted:
    def test_weighted_forall_exists(self):
        f = parse("forall x. exists y. R(x, y)")
        pair = (Fraction(1, 2), Fraction(3))
        wv = WeightedVocabulary.from_weights({"R": pair}, {"R": 2})
        for n in range(4):
            expected = ((Fraction(1, 2) + 3) ** n - Fraction(3) ** n) ** n
            assert wfomc_fo2(f, n, wv) == expected

    def test_negative_weights_supported(self):
        f = parse("forall x, y. (R(x, y) | S(x, y))")
        wv = WeightedVocabulary.from_weights(
            {"R": (1, -1), "S": (2, 1)}, {"R": 2, "S": 2}
        )
        for n in (1, 2):
            assert wfomc_fo2(f, n, wv) == wfomc_lineage(f, n, wv)


class TestRejections:
    def test_three_variables_rejected(self):
        f = parse("forall x, y, z. (R(x, y) | R(y, z))")
        with pytest.raises(NotFO2Error):
            wfomc_fo2(f, 2)

    def test_ternary_predicate_rejected(self):
        f = parse("forall x, y. T(x, y, x)")
        with pytest.raises(NotFO2Error):
            wfomc_fo2(f, 2)


class TestFriendsSmokers:
    def test_friends_smokers_hard_constraint(self):
        # The motivating MLN-style sentence: smoking propagates to friends.
        f = parse("forall x, y. (Smokes(x) & Friends(x, y) -> Smokes(y))")
        for n in (0, 1, 2):
            assert wfomc_fo2(f, n) == wfomc_lineage(f, n)

    def test_friends_smokers_larger_domain(self):
        f = parse("forall x, y. (Smokes(x) & Friends(x, y) -> Smokes(y))")
        # Known closed form: sum_k C(n,k) 2^(n^2 - k(n-k)) counts worlds by
        # the set of smokers: edges from a smoker to a non-smoker forbidden.
        from math import comb

        for n in (1, 2, 3, 4, 5):
            expected = sum(comb(n, k) * 2 ** (n * n - k * (n - k)) for k in range(n + 1))
            assert wfomc_fo2(f, n) == expected
