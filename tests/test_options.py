"""SolverOptions: the one options object behind every entry point.

Pins the API redesign's contract: ``from_kwargs``/``to_kwargs`` round-trip
exactly (hypothesis-generated options), legacy keyword calls resolve to
the same object as explicit construction, unknown keywords fail with
:class:`TypeError` like the old signatures did, and entry points produce
bit-identical results whichever calling style is used.
"""

import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.parser import parse
from repro.options import BRANCHINGS, METHODS, SolverOptions


def solver_options():
    """Hypothesis strategy over every valid field combination."""
    return st.builds(
        SolverOptions,
        method=st.sampled_from(METHODS),
        workers=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        branching=st.one_of(st.none(), st.sampled_from(BRANCHINGS)),
        learn=st.one_of(st.none(), st.booleans()),
        max_learned=st.one_of(st.none(),
                              st.integers(min_value=0, max_value=1 << 12)),
        persist=st.one_of(st.none(), st.booleans()),
        cache_dir=st.one_of(st.none(), st.just("/tmp/some-cache")),
        phase_saving=st.one_of(st.none(), st.booleans()),
        compile=st.one_of(st.none(), st.booleans()),
    )


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(options=solver_options())
    def test_to_kwargs_from_kwargs_round_trips(self, options):
        assert SolverOptions.from_kwargs(None, **options.to_kwargs()) == options

    @settings(max_examples=60, deadline=None)
    @given(options=solver_options())
    def test_from_kwargs_passes_instances_through(self, options):
        assert SolverOptions.from_kwargs(options) is options

    @settings(max_examples=60, deadline=None)
    @given(options=solver_options())
    def test_replace_round_trips_every_field(self, options):
        rebuilt = SolverOptions().replace(
            **{f.name: getattr(options, f.name)
               for f in dataclasses.fields(SolverOptions)})
        assert rebuilt == options

    @settings(max_examples=60, deadline=None)
    @given(options=solver_options())
    def test_pickles_for_worker_payloads(self, options):
        assert pickle.loads(pickle.dumps(options)) == options

    def test_to_kwargs_drops_defaults(self):
        assert SolverOptions().to_kwargs() == {}
        assert SolverOptions(workers=2).to_kwargs() == {"workers": 2}


class TestFromKwargs:
    def test_method_string_shorthand(self):
        assert SolverOptions.from_kwargs("fo2") == SolverOptions(method="fo2")

    def test_legacy_kwargs_override_base(self):
        base = SolverOptions(method="lineage", workers=2)
        merged = SolverOptions.from_kwargs(base, workers=4, persist=True)
        assert merged == SolverOptions(method="lineage", workers=4,
                                       persist=True)
        # None kwargs mean "keep the base value" (old signature defaults).
        assert SolverOptions.from_kwargs(base, workers=None) == base

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError, match="wrokers"):
            SolverOptions.from_kwargs(None, wrokers=2)

    def test_bad_options_value_is_a_type_error(self):
        with pytest.raises(TypeError):
            SolverOptions.from_kwargs(42)


class TestValidation:
    def test_enumerated_fields_validate(self):
        with pytest.raises(ValueError, match="method"):
            SolverOptions(method="fo3")
        with pytest.raises(ValueError, match="branching"):
            SolverOptions(branching="vsids")
        with pytest.raises(ValueError, match="workers"):
            SolverOptions(workers=-1)
        with pytest.raises(ValueError, match="max_learned"):
            SolverOptions(max_learned=-5)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SolverOptions().method = "fo2"


class TestEntryPointEquivalence:
    """Legacy keyword calls and options= calls are bit-identical."""

    SENTENCE = "forall x, y. (R(x) | S(x, y))"

    def test_wfomc_both_styles_agree(self):
        from repro.wfomc.solver import wfomc

        f = parse(self.SENTENCE)
        legacy = wfomc(f, 3, method="lineage")
        modern = wfomc(f, 3, options=SolverOptions(method="lineage"))
        positional_method = wfomc(f, 3, None, "lineage")
        assert legacy == modern == positional_method

    def test_mln_both_styles_agree(self):
        from repro.mln import MLN, mln_probability

        mln = MLN([(Fraction(3), parse("R(x)"))])
        query = parse("exists x. R(x)")
        legacy = mln_probability(mln, query, 2, method="lineage")
        modern = mln_probability(
            mln, query, 2, options=SolverOptions(method="lineage"))
        assert legacy == modern

    def test_wmc_both_styles_agree(self):
        from repro.propositional.counter import wmc_formula
        from repro.propositional.formula import por, pvar

        formula = por(pvar("a"), pvar("b"))
        weight = lambda v: (Fraction(1, 2), Fraction(1, 3))  # noqa: E731
        legacy = wmc_formula(formula, weight, branching="moms")
        modern = wmc_formula(
            formula, weight, options=SolverOptions(branching="moms"))
        assert legacy == modern
