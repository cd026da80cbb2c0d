"""White-box tests for the FO2 cell decomposition (Appendix C internals)."""

import itertools
from fractions import Fraction

import pytest

from repro.logic.parser import parse
from repro.logic.scott import scott_normalize, skolemize_scott
from repro.logic.vocabulary import WeightedVocabulary
from repro.wfomc.fo2 import FO2CellDecomposition, _combine_universal
from repro.errors import NotFO2Error
from repro.utils import binomial, multinomial


def _decomposition(text, weights=None):
    f = parse(text)
    wv = weights or WeightedVocabulary.counting(f)
    sentences, wv1 = scott_normalize(f, wv)
    universal, wv2 = skolemize_scott(sentences, wv1)
    matrix = _combine_universal(universal)
    return FO2CellDecomposition(matrix, wv2), wv2


class TestCells:
    def test_pure_binary_has_reflexive_slots(self):
        decomposition, _ = _decomposition("forall x, y. (R(x, y) | R(y, x))")
        kinds = [kind for _name, kind in decomposition.type_slots if _name == "R"]
        assert kinds == ["refl"]

    def test_unary_predicates_become_slots(self):
        decomposition, _ = _decomposition("forall x. (P(x) | Q(x))")
        names = {name for name, kind in decomposition.type_slots if kind == "unary"}
        assert {"P", "Q"} <= names

    def test_unused_predicates_excluded_from_slots(self):
        # A vocabulary with an extra predicate not in the sentence: the
        # decomposition must ignore it (the caller masses it separately).
        f = parse("forall x. P(x)")
        wv = WeightedVocabulary.from_weights(
            {"P": (1, 1), "Unused": (1, 1)}, {"P": 1, "Unused": 2}
        )
        sentences, wv1 = scott_normalize(f, wv)
        universal, wv2 = skolemize_scott(sentences, wv1)
        matrix = _combine_universal(universal)
        decomposition = FO2CellDecomposition(matrix, wv2)
        assert "Unused" not in decomposition.matrix_preds

    def test_run_at_zero_elements(self):
        decomposition, _ = _decomposition("forall x, y. R(x, y)")
        zero = {name: False for name in decomposition.zero_preds}
        assert decomposition.run(0, zero) == 1


class TestCombineUniversal:
    def test_three_variable_prefix_rejected(self):
        from repro.logic.scott import UniversalSentence
        from repro.logic.syntax import Var, Atom

        sentence = UniversalSentence(
            (Var("a"), Var("b"), Var("c")),
            Atom("T", (Var("a"), Var("b"))),
        )
        with pytest.raises(NotFO2Error):
            _combine_universal([sentence])

    def test_variable_renaming(self):
        from repro.logic.scott import UniversalSentence
        from repro.logic.syntax import Var, Atom, free_variables

        s1 = UniversalSentence((Var("u"), Var("v")), Atom("R", (Var("u"), Var("v"))))
        s2 = UniversalSentence((Var("a"),), Atom("P", (Var("a"),)))
        matrix = _combine_universal([s1, s2])
        names = {v.name for v in free_variables(matrix)}
        assert names <= {"fo2_x", "fo2_y"}


class TestWeightedCells:
    def test_cell_weights_multiply_unary_and_reflexive(self):
        wv = WeightedVocabulary.from_weights(
            {"P": (2, 3), "R": (5, 7)}, {"P": 1, "R": 2}
        )
        decomposition, wv2 = _decomposition("forall x, y. (P(x) | R(x, y))", wv)
        # A 1-type fixing P(x)=True, R(x,x)=True weighs 2 * 5 (times any
        # Scott/Skolem slots, which weigh 1).
        bits_all_true = tuple(True for _ in decomposition.type_slots)
        weight = decomposition._type_weight(bits_all_true)
        assert weight == 10


def _compositions(n, parts):
    """Every tuple of ``parts`` non-negative ints summing to ``n``."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def _composition_sum(cells, cell_weights, r, n):
    """The module docstring's formula, one term per composition of ``n``
    over the unmerged cells, in plain ``Fraction`` arithmetic."""
    if not cells:
        return Fraction(0) if n > 0 else Fraction(1)
    total = Fraction(0)
    for counts in _compositions(n, len(cells)):
        term = Fraction(multinomial(counts))
        for k, n_k in enumerate(counts):
            term *= cell_weights[k] ** n_k * r[k][k] ** binomial(n_k, 2)
            for l in range(k + 1, len(cells)):
                term *= r[k][l] ** (n_k * counts[l])
        total += term
    return total


class TestRecursionAgainstCompositionSum:
    """``run`` groups cells with equal ``r`` rows and counts in scaled
    integers; the plain composition sum over the ungrouped cells is the
    reference it must equal exactly."""

    # (sentence, its cells and classes under counting weights, weights
    # per user predicate).  The first weight set of each grouping
    # sentence sums a class to 0: grouped cells differ only in
    # ``R(x, x)``, so ``w_R + wbar_R = 0`` cancels them.  The rest mix
    # zeros, negatives and fractions.
    CASES = [
        ("forall x. exists y. (R(x,y) & (S(x) -> ~S(y)))", (7, 4), [
            {"R": (2, -2), "S": (Fraction(3, 5), Fraction(-7, 4))},
            {"R": (0, Fraction(5, 3)), "S": (-2, 0)},
            {"R": (Fraction(-1, 2), Fraction(3, 7)), "S": (1, 1)},
            {"R": (1, 1), "S": (1, 1)},
        ]),
        ("forall x, y. (S(x) & R(x,y) -> T(y))", (7, 4), [
            {"R": (Fraction(1, 3), Fraction(-1, 3)), "S": (2, 3),
             "T": (Fraction(5, 2), -1)},
            {"R": (0, 2), "S": (Fraction(-4, 9), 1), "T": (0, Fraction(1, 6))},
            {"R": (Fraction(7, 2), Fraction(-3, 8)), "S": (-1, -1),
             "T": (3, 0)},
        ]),
        ("forall x, y. (P(x) | Q(y) | x = y)", (4, 4), [
            {"P": (Fraction(2, 3), -3), "Q": (0, Fraction(5, 7))},
            {"P": (1, -1), "Q": (-2, 2)},
        ]),
    ]

    @staticmethod
    def _weighted(text, weights):
        f = parse(text)
        arities = {p.name: p.arity
                   for p in WeightedVocabulary.counting(f).vocabulary}
        return _decomposition(
            text, WeightedVocabulary.from_weights(weights, arities))

    @pytest.mark.parametrize("text,shape", [case[:2] for case in CASES])
    def test_cells_and_classes(self, text, shape):
        decomposition, _ = _decomposition(text)
        zero = {name: True for name in decomposition.zero_preds}
        cells, _cell_weights, r = decomposition._cell_tables(
            tuple(sorted(zero.items())), zero)
        assert (len(cells), len({tuple(row) for row in r})) == shape

    @pytest.mark.parametrize("text,shape,weight_sets", CASES)
    def test_run_equals_composition_sum(self, text, shape, weight_sets):
        for weights in weight_sets:
            decomposition, _ = self._weighted(text, weights)
            for bits in itertools.product(
                    (False, True), repeat=len(decomposition.zero_preds)):
                zero = dict(zip(decomposition.zero_preds, bits))
                cells, cell_weights, r = decomposition._cell_tables(
                    tuple(sorted(zero.items())), zero)
                for n in range(8):
                    assert decomposition.run(n, zero) == _composition_sum(
                        cells, cell_weights, r, n), (text, weights, bits, n)
