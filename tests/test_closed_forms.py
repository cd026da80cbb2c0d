"""Tests for the paper's closed-form solutions (Table 1 and Section 1-2)."""

from fractions import Fraction


from repro.logic.parser import parse
from repro.logic.vocabulary import WeightedVocabulary
from repro.weights import WeightPair
from repro.wfomc.bruteforce import wfomc_lineage
from repro.wfomc.closed_forms import (
    fomc_forall_exists,
    table1_fomc,
    table1_wfomc,
    wfomc_exists_unary,
    wfomc_forall_exists,
    wfomc_forall_exists_escape,
)

TABLE1 = parse("forall x, y. (R(x) | S(x, y) | T(y))")
FORALL_EXISTS = parse("forall x. exists y. R(x, y)")


class TestForallExists:
    def test_fomc_values(self):
        assert [fomc_forall_exists(n) for n in range(5)] == [1, 1, 9, 343, 50625]

    def test_matches_bruteforce(self):
        for n in range(4):
            assert fomc_forall_exists(n) == wfomc_lineage(FORALL_EXISTS, n)

    def test_weighted_matches_bruteforce(self):
        pair = WeightPair(Fraction(1, 2), 3)
        wv = WeightedVocabulary.from_weights({"R": pair}, {"R": 2})
        for n in range(4):
            assert wfomc_forall_exists(n, pair) == wfomc_lineage(FORALL_EXISTS, n, wv)

    def test_unweighted_special_case(self):
        for n in range(5):
            assert wfomc_forall_exists(n, WeightPair(1, 1)) == fomc_forall_exists(n)


class TestExistsUnary:
    def test_matches_bruteforce(self):
        pair = WeightPair(2, Fraction(1, 4))
        wv = WeightedVocabulary.from_weights({"S": pair}, {"S": 1})
        f = parse("exists y. S(y)")
        for n in range(5):
            assert wfomc_exists_unary(n, pair) == wfomc_lineage(f, n, wv)


class TestForallExistsEscape:
    def test_matches_bruteforce(self):
        f = parse("forall x. exists y. (R(x,y) & (S(x) -> ~S(y)))")
        pr = WeightPair(Fraction(3, 7), Fraction(-5, 2))
        ps = WeightPair(2, Fraction(1, 3))
        wv = WeightedVocabulary.from_weights({"R": pr, "S": ps},
                                             {"R": 2, "S": 1})
        for n in range(4):
            assert wfomc_forall_exists_escape(n, pr, ps) == \
                wfomc_lineage(f, n, wv)


class TestTable1:
    def test_fomc_small_values(self):
        # n = 1: worlds over R/1, S/1x1, T/1 (8 total); only R=S=T=empty fails.
        assert table1_fomc(0) == 1
        assert table1_fomc(1) == 7

    def test_fomc_matches_bruteforce(self):
        for n in range(3):
            assert table1_fomc(n) == wfomc_lineage(TABLE1, n)

    def test_wfomc_matches_bruteforce(self):
        pr = WeightPair(2, 1)
        ps = WeightPair(Fraction(1, 2), Fraction(1, 3))
        pt = WeightPair(1, 4)
        wv = WeightedVocabulary.from_weights(
            {"R": pr, "S": ps, "T": pt}, {"R": 1, "S": 2, "T": 1}
        )
        for n in range(3):
            assert table1_wfomc(n, pr, ps, pt) == wfomc_lineage(TABLE1, n, wv)

    def test_wfomc_generalizes_fomc(self):
        one = WeightPair(1, 1)
        for n in range(5):
            assert table1_wfomc(n, one, one, one) == table1_fomc(n)

    def test_wfomc_accepts_tuples(self):
        assert table1_wfomc(2, (1, 1), (1, 1), (1, 1)) == table1_fomc(2)
