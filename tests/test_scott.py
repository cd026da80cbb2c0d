"""Tests for Scott's reduction and the Scott-shape Skolemizer."""

import pytest
from hypothesis import given, settings

from repro.logic.parser import parse
from repro.logic.scott import scott_normalize, skolemize_scott
from repro.logic.syntax import (
    conj,
    forall,
    free_variables,
    is_quantifier_free,
)
from repro.logic.transform import split_prenex
from repro.logic.vocabulary import WeightedVocabulary
from repro.wfomc.bruteforce import wfomc_lineage
from repro.wfomc.fo2 import wfomc_fo2

from .strategies import fo2_nested_sentences, weighted_vocabularies


def _rebuild(sentences):
    """Conjunction of prenex sentences as a single formula."""
    parts = []
    for s in sentences:
        parts.append(split_prenex(list(s.prefix), s.matrix))
    return conj(*parts)


def _rebuild_universal(sentences):
    parts = []
    for s in sentences:
        parts.append(forall(list(s.vars), s.matrix))
    return conj(*parts)


#: Sentences whose normal form must keep the weighted count; the last
#: four re-bind a variable or put a quantifier below an ``exists`` prefix.
PRESERVED = [
    "forall x. exists y. R(x, y)",
    "exists x. forall y. (R(x, y) | P(x))",
    "(forall x. P(x)) | (exists x. Q(x))",
    "forall x. (P(x) <-> exists y. R(x, y))",
    "forall x. exists x. P(x)",
    "forall x. forall x. R(x, x)",
    "forall x. exists y. forall x. R(x, y)",
    "exists x. P(x) & forall y. Q(y)",
]


def _fresh_symbols(text):
    """``{name: arity}`` of the symbols Scott and Skolem add to ``text``."""
    f = parse(text)
    wv = WeightedVocabulary.counting(f)
    sentences, wv1 = scott_normalize(f, wv)
    _universal, wv2 = skolemize_scott(sentences, wv1)
    user = {p.name for p in wv.vocabulary}
    return {p.name: p.arity for p in wv2.vocabulary if p.name not in user}


class TestScottNormalize:
    def test_output_shape(self):
        f = parse("forall x. exists y. R(x, y)")
        sentences, wv = scott_normalize(f, WeightedVocabulary.counting(f))
        for s in sentences:
            assert is_quantifier_free(s.matrix)
            kinds = [q for q, _ in s.prefix]
            assert all(k in ("forall", "exists") for k in kinds)
            # Scott shape: forall* or forall* exists.
            if "exists" in kinds:
                assert kinds.count("exists") == 1 and kinds[-1] == "exists"

    def test_new_symbols_have_neutral_weights(self):
        f = parse("forall x. (P(x) <-> exists y. R(x, y))")
        sentences, wv = scott_normalize(f, WeightedVocabulary.counting(f))
        scott_preds = [p for p in wv.vocabulary if p.name.startswith("Sc")]
        assert scott_preds
        for pred in scott_preds:
            pair = wv.weight(pred.name)
            assert (pair.w, pair.wbar) == (1, 1)

    def test_free_variables_rejected(self):
        # The check runs on the whole formula, before any prefix is
        # peeled off: ``forall x. R(x, y)`` would otherwise pass as a
        # prefix over a quantifier-free matrix.
        for text in ("P(x)", "forall x. R(x, y)"):
            f = parse(text)
            with pytest.raises(ValueError):
                scott_normalize(f, WeightedVocabulary.counting(f))

    @pytest.mark.parametrize("text", PRESERVED)
    def test_wfomc_preserved(self, text):
        f = parse(text)
        wv = WeightedVocabulary.counting(f)
        sentences, wv2 = scott_normalize(f, wv)
        g = _rebuild(sentences)
        for n in (1, 2):
            assert wfomc_lineage(f, n, wv) == wfomc_lineage(g, n, wv2)

    @settings(max_examples=15, deadline=None)
    @given(fo2_nested_sentences(), weighted_vocabularies())
    def test_wfomc_preserved_random(self, f, wv):
        sentences, wv2 = scott_normalize(f, wv)
        g = _rebuild(sentences)
        assert wfomc_lineage(f, 2, wv) == wfomc_lineage(g, 2, wv2)


class TestNormalForms:
    """Which fresh symbols each shape gets: only quantifiers below a
    conjunct's leading ``forall* [exists]`` prefix are defined."""

    def test_forall_exists_gets_one_unary_skolem_symbol(self):
        assert _fresh_symbols("forall x. exists y. R(x, y)") == {"Sk": 1}

    def test_universal_sentence_gets_no_symbol(self):
        assert _fresh_symbols("forall x, y. (R(x) | S(x, y) | T(y))") == {}

    def test_nested_exists_gets_a_unary_scott_symbol(self):
        assert _fresh_symbols("forall x. (P(x) <-> exists y. R(x, y))") == {
            "Sc": 1, "Sk": 1}

    def test_disjunction_of_sentences_is_defined_whole(self):
        f = parse("(forall x. P(x)) | (exists x. Q(x))")
        sentences, wv1 = scott_normalize(f, WeightedVocabulary.counting(f))
        assert [repr(s) for s in sentences] == [
            "Sc | Sc1",
            "forall x. ~Sc | P(x)",
            "exists x. ~P(x) | Sc",
            "forall x. ~Q(x) | Sc1",
            "exists x. ~Sc1 | Q(x)",
        ]
        assert _fresh_symbols("(forall x. P(x)) | (exists x. Q(x))") == {
            "Sc": 0, "Sc1": 0, "Sk": 0, "Sk1": 0}

    @pytest.mark.parametrize("text,prefix,symbols", [
        # A quantifier that re-binds a prefix variable is not part of
        # the prefix: it is defined by a zero-ary symbol.
        ("forall x. exists x. P(x)", ["forall"], {"Sc": 0, "Sk": 0}),
        ("forall x. forall x. R(x, x)", ["forall"], {"Sc": 0, "Sk": 0}),
        ("forall x. exists y. forall x. R(x, y)", ["forall", "exists"],
         {"Sc": 1, "Sk": 1, "Sk1": 1}),
        ("exists x. P(x) & forall y. Q(y)", ["exists"],
         {"Sc": 0, "Sk": 0, "Sk1": 0}),
    ])
    def test_rebinding_ends_the_prefix(self, text, prefix, symbols):
        f = parse(text)
        sentences, _wv = scott_normalize(f, WeightedVocabulary.counting(f))
        assert [q for q, _v in sentences[0].prefix] == prefix
        assert _fresh_symbols(text) == symbols

    def test_benchmark_sentence_has_one_table_call(self, monkeypatch):
        from repro.wfomc import fo2

        calls = []
        tables = fo2.FO2CellStructure.tables

        def counted(structure, zero_key, *args, **kwargs):
            result = tables(structure, zero_key, *args, **kwargs)
            calls.append((zero_key, result))
            return result

        monkeypatch.setattr(fo2.FO2CellStructure, "tables", counted)
        fo2.clear_fo2_caches()
        f = parse("forall x. exists y. (R(x,y) & (S(x) -> ~S(y)))")
        assert fo2.wfomc_fo2(f, 3) == wfomc_lineage(f, 3)
        ((zero_key, (cells, _satisfying, classes)),) = calls
        assert zero_key == ()
        assert (len(cells), len(classes)) == (7, 4)

    @pytest.mark.parametrize("text", PRESERVED)
    def test_fo2_equals_lineage(self, text):
        f = parse(text)
        for n in range(4):
            assert wfomc_fo2(f, n) == wfomc_lineage(f, n), n


class TestSkolemizeScott:
    def test_all_universal_after(self):
        f = parse("forall x. exists y. R(x, y)")
        wv = WeightedVocabulary.counting(f)
        sentences, wv1 = scott_normalize(f, wv)
        universal, wv2 = skolemize_scott(sentences, wv1)
        for s in universal:
            assert is_quantifier_free(s.matrix)
            assert free_variables(s.matrix) <= set(s.vars)

    def test_skolem_weights(self):
        f = parse("forall x. exists y. R(x, y)")
        wv = WeightedVocabulary.counting(f)
        sentences, wv1 = scott_normalize(f, wv)
        universal, wv2 = skolemize_scott(sentences, wv1)
        skolem_preds = [p for p in wv2.vocabulary if p.name.startswith("Sk")]
        assert skolem_preds
        for p in skolem_preds:
            pair = wv2.weight(p.name)
            assert (pair.w, pair.wbar) == (1, -1)

    @pytest.mark.parametrize(
        "text",
        [
            "forall x. exists y. R(x, y)",
            "exists x. P(x)",
            "forall x. (P(x) <-> exists y. R(x, y))",
        ],
    )
    def test_wfomc_preserved_end_to_end(self, text):
        # Over nonempty domains the full Scott+Skolem pipeline preserves
        # the weighted count.
        f = parse(text)
        wv = WeightedVocabulary.counting(f)
        sentences, wv1 = scott_normalize(f, wv)
        universal, wv2 = skolemize_scott(sentences, wv1)
        g = _rebuild_universal(universal)
        for n in (1, 2):
            assert wfomc_lineage(f, n, wv) == wfomc_lineage(g, n, wv2)
