"""White-box tests for the FO2 cell decomposition (Appendix C internals)."""

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings

from repro.compile.circuit import CircuitBuilder
from repro.compile.wfomc import _compile_cells
from repro.logic.parser import parse
from repro.logic.scott import scott_normalize, skolemize_scott
from repro.logic.vocabulary import WeightedVocabulary
from repro.propositional.formula import peval
from repro.wfomc.fo2 import FO2CellDecomposition, _combine_universal
from repro.errors import NotFO2Error
from repro.utils import binomial, multinomial

from . import test_differential
from .strategies import fo2_nested_sentences


def _decomposition(text, weights=None):
    f = parse(text) if isinstance(text, str) else text
    wv = weights or WeightedVocabulary.counting(f)
    sentences, wv1 = scott_normalize(f, wv)
    universal, wv2 = skolemize_scott(sentences, wv1)
    matrix = _combine_universal(universal)
    return FO2CellDecomposition(matrix, wv2), wv2


def _zero_assignments(structure):
    for bits in itertools.product((False, True),
                                  repeat=len(structure.zero_preds)):
        zero = dict(zip(structure.zero_preds, bits))
        yield tuple(sorted(zero.items())), zero


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
            {"P": (Fraction(2, 3), 3), "R": (5, Fraction(7, 2))},
            {"P": 1, "R": 2}
        )
        decomposition, wv2 = _decomposition("forall x, y. (P(x) | R(x, y))", wv)
        # The valid 1-types over (P(x), R(x, x)) are FT, TF and TT; the
        # last two have equal 2-table rows and form one class.  A class
        # weighs the sum over its cells of the unary times the reflexive
        # weight, as ints over one denominator in lowest terms.
        cells, weights, _r, d_u, _d_r = decomposition._cell_tables((), {})
        assert cells == [(False, True), (True, False), (True, True)]
        assert d_u == 3
        assert [Fraction(w, d_u) for w in weights] == [
            3 * 5, Fraction(2, 3) * Fraction(7, 2) + Fraction(2, 3) * 5]


def _compositions(n, parts):
    """Every tuple of ``parts`` non-negative ints summing to ``n``."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def _ungrouped_tables(decomposition, zero_key, zero):
    """Per-cell weights and the full cell-by-cell ``r``, summed in plain
    ``Fraction`` arithmetic from the structure's satisfying patterns."""
    structure = decomposition.structure
    cells, satisfying, _classes = structure.tables(zero_key, zero)

    def weight(names, bits):
        total = Fraction(1)
        for name, bit in zip(names, bits):
            pair = decomposition.wv.weight(name)
            total *= pair.w if bit else pair.wbar
        return total

    slots = [name for name, _kind in structure.type_slots]
    labels = [name for name, _args in structure.off_diag_labels]
    cell_weights = [weight(slots, bits) for bits in cells]
    r = [[sum((weight(labels, bits) for bits in patterns), Fraction(0))
          for patterns in row] for row in satisfying]
    return cells, cell_weights, r


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
    """``run`` recurses over weight-independent cell classes, groups
    classes with equal ``r`` rows on top and counts in scaled integers;
    the plain composition sum over the ungrouped cells is the reference
    it must equal exactly.  The compiled recursion over the classes must
    equal it too."""

    # (sentence, its cells and weight-independent classes, weights per
    # user predicate).  The first weight set of each grouping sentence
    # sums a class to 0: grouped cells differ only in ``R(x, x)``, so
    # ``w_R + wbar_R = 0`` cancels them.  The rest mix zeros, negatives,
    # fractions and the Skolem pair ``(1, -1)``.
    CASES = [
        ("forall x. exists y. (R(x,y) & (S(x) -> ~S(y)))", (7, 4), [
            {"R": (2, -2), "S": (Fraction(3, 5), Fraction(-7, 4))},
            {"R": (0, Fraction(5, 3)), "S": (-2, 0)},
            {"R": (Fraction(-1, 2), Fraction(3, 7)), "S": (1, 1)},
            {"R": (1, 1), "S": (1, 1)},
            {"R": (1, -1), "S": (1, -1)},
        ]),
        ("forall x, y. (S(x) & R(x,y) -> T(y))", (7, 4), [
            {"R": (Fraction(1, 3), Fraction(-1, 3)), "S": (2, 3),
             "T": (Fraction(5, 2), -1)},
            {"R": (0, 2), "S": (Fraction(-4, 9), 1), "T": (0, Fraction(1, 6))},
            {"R": (Fraction(7, 2), Fraction(-3, 8)), "S": (-1, -1),
             "T": (3, 0)},
            {"R": (1, -1), "S": (0, 1), "T": (1, -1)},
        ]),
        ("forall x, y. (P(x) | Q(y) | x = y)", (4, 4), [
            {"P": (Fraction(2, 3), -3), "Q": (0, Fraction(5, 7))},
            {"P": (1, -1), "Q": (-2, 2)},
        ]),
        ("forall x. exists y. R(x, y)", (3, 2), [
            {"R": (Fraction(3, 7), Fraction(-5, 2))},
            {"R": (1, -1)},
            {"R": (0, 4)},
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
        # None of these sentences keeps a zero-ary symbol: the one
        # table call is the empty assignment's.
        assert decomposition.zero_preds == []
        cells, _satisfying, classes = decomposition.structure.tables((), {})
        assert (len(cells), len(classes)) == shape
        # ``_cell_tables`` keeps every cell first (the perfbench cell
        # count reads it), then its int weights and ``r`` per class and
        # their denominators.
        got_cells, weights, r, d_u, d_r = decomposition._cell_tables((), {})
        assert got_cells == cells
        assert len(weights) == len(r) == len(classes)
        assert all(len(row) == len(classes) for row in r)
        assert all(type(x) is int
                   for x in [*weights, *(x for row in r for x in row), d_u, d_r])

    @pytest.mark.parametrize("text,shape,weight_sets", CASES)
    def test_integer_tables_equal_fraction_sums(self, text, shape,
                                                weight_sets):
        # The integer class weights and ``r``, over their denominators,
        # equal the plain ``Fraction`` sums over each class's cells and
        # between its representatives, and each denominator is in lowest
        # terms against its ints.
        for weights in weight_sets:
            decomposition, _ = self._weighted(text, weights)
            for zero_key, zero in _zero_assignments(decomposition.structure):
                _cells, _satisfying, classes = decomposition.structure.tables(
                    zero_key, zero)
                _cells, cell_weights, cell_r = _ungrouped_tables(
                    decomposition, zero_key, zero)
                _cells, class_weights, r, d_u, d_r = (
                    decomposition._cell_tables(zero_key, zero))
                assert [Fraction(w, d_u) for w in class_weights] == [
                    sum((cell_weights[k] for k in members), Fraction(0))
                    for members in classes], (text, weights)
                reps = [members[0] for members in classes]
                assert [[Fraction(x, d_r) for x in row] for row in r] == [
                    [cell_r[k][l] for l in reps] for k in reps], (text, weights)
                assert gcd(d_u, *class_weights) == 1
                assert gcd(d_r, *(x for row in r for x in row)) == 1

    @pytest.mark.parametrize("text,shape,weight_sets", CASES)
    def test_run_equals_composition_sum(self, text, shape, weight_sets):
        for weights in weight_sets:
            decomposition, _ = self._weighted(text, weights)
            for zero_key, zero in _zero_assignments(decomposition.structure):
                cells, cell_weights, r = _ungrouped_tables(
                    decomposition, zero_key, zero)
                for n in range(8):
                    assert decomposition.run(n, zero) == _composition_sum(
                        cells, cell_weights, r, n), (text, weights, zero, n)

    @pytest.mark.parametrize("text,shape,weight_sets", CASES)
    def test_compiled_classes_equal_composition_sum(self, text, shape,
                                                    weight_sets):
        structure = _decomposition(text)[0].structure
        weighted = [self._weighted(text, weights) for weights in weight_sets]
        for zero_key, zero in _zero_assignments(structure):
            cells, satisfying, classes = structure.tables(zero_key, zero)
            ungrouped = [_ungrouped_tables(decomposition, zero_key, zero)
                         for decomposition, _wv in weighted]
            for n in range(8):
                builder = CircuitBuilder()
                circuit = builder.build(_compile_cells(
                    builder, structure, cells, satisfying, classes, n))
                for (_d, wv), tables in zip(weighted, ungrouped):
                    pairs = {p.name: (wv.weight(p.name).w,
                                      wv.weight(p.name).wbar)
                             for p in wv.vocabulary}
                    assert circuit.evaluate(pairs) == _composition_sum(
                        *tables, n), (text, wv, zero, n)


def _peval_tables(structure, zero_assignment):
    """The reference enumeration: ``peval`` on one assignment at a time,
    every 1-type for the valid cells and every 2-table of every cell
    pair."""
    base = {(name, ()): bit for name, bit in zero_assignment.items()}

    def type_assignment(bits, element):
        return {(name, (element,) if kind == "unary" else (element, element)):
                bit for (name, kind), bit in zip(structure.type_slots, bits)}

    cells = [bits for bits in itertools.product(
                 (False, True), repeat=len(structure.type_slots))
             if peval(structure.diag_prop, {**base, **type_assignment(bits, 1)})]
    labels = structure.off_diag_labels
    satisfying = []
    for cell_k in cells:
        row = []
        for cell_l in cells:
            assignment = {**base, **type_assignment(cell_k, 1),
                          **type_assignment(cell_l, 2)}
            good = []
            for bits in itertools.product((False, True), repeat=len(labels)):
                assignment.update(zip(labels, bits))
                if (peval(structure.pair_prop_xy, assignment)
                        and peval(structure.pair_prop_yx, assignment)):
                    good.append(bits)
            row.append(good)
        satisfying.append(row)
    return cells, satisfying


def _check_tables_against_peval(sentence):
    structure = _decomposition(sentence)[0].structure
    for zero_key, zero in _zero_assignments(structure):
        cells, satisfying, classes = structure.tables(zero_key, zero)
        assert (cells, satisfying) == _peval_tables(structure, zero)
        # The classes partition the cells by their satisfying rows.
        assert sorted(k for members in classes for k in members) == list(
            range(len(cells)))
        for members in classes:
            assert all(satisfying[k] == satisfying[members[0]]
                       for k in members)
        assert len({repr(satisfying[members[0]])
                    for members in classes}) == len(classes)


class TestTablesAgainstPeval:
    """The bit-parallel truth tables of :meth:`FO2CellStructure.tables`
    equal a one-assignment-at-a-time ``peval`` enumeration, in order."""

    # The last sentence has 7 type slots and 4 2-table labels, with
    # equality, a reversed binary atom and two zero-ary symbols (its
    # inner ``forall x`` re-binds a prefix variable).
    SENTENCES = test_differential.TestSeededRegressionCorpus._FO2_CORPUS + [
        "forall x. exists y. (R(x,y) & (S(x) -> ~S(y)))",
        "forall x, y. (R(x) | S(x, y) | T(y))",
        "Z | (forall x. P(x))",
        "forall x, y. ((S(x, y) & P(x)) -> (R(y, x) | x = y)) "
        "& forall x. exists y. (R(x, y) & ~P(y))",
        "forall x, y. ((S(x, y) & P(x)) -> (R(y, x) | x = y | Q(y))) "
        "& forall x. exists y. (R(x, y) & ~P(y) & (T(x) | ~Q(y)))",
    ]

    @pytest.mark.parametrize("text", SENTENCES)
    def test_corpus(self, text):
        _check_tables_against_peval(parse(text))

    def test_seven_type_slots_and_four_labels(self):
        decomposition, _ = _decomposition(self.SENTENCES[-1])
        structure = decomposition.structure
        assert (len(structure.type_slots),
                len(structure.off_diag_labels),
                len(structure.zero_preds)) == (7, 4, 2)

    @settings(max_examples=40, deadline=None)
    @given(fo2_nested_sentences())
    def test_random_sentences(self, sentence):
        _check_tables_against_peval(sentence)

    def test_store_load_derives_the_classes(self):
        # The store holds ``(cells, satisfying)``; a structure reading
        # them back derives the same classes as the one that computed
        # them.
        rows = {}

        class DictStore:
            def get(self, namespace, key):
                return rows.get((namespace, key))

            def put(self, namespace, key, value):
                rows[(namespace, key)] = value

        text = "forall x. exists y. (R(x,y) & (S(x) -> ~S(y)))"
        computed = _decomposition(text)[0].structure
        loaded = _decomposition(text)[0].structure
        for zero_key, zero in _zero_assignments(computed):
            expected = computed.tables(zero_key, zero, store=DictStore())
            assert rows[("fo2_tables", (computed.matrix_key, zero_key))] == (
                expected[0], expected[1])
            assert loaded.tables(zero_key, zero, store=DictStore()) == expected
