"""Unit tests for the formula parser."""

import pytest

from repro.errors import ParseError
from repro.logic.parser import parse
from repro.logic.syntax import (
    And,
    Atom,
    Const,
    Eq,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    FALSE,
    Var,
)

x, y = Var("x"), Var("y")


class TestAtoms:
    def test_relational_atom(self):
        assert parse("R(x, y)") == Atom("R", (x, y))

    def test_zero_ary_atom(self):
        assert parse("Z") == Atom("Z", ())

    def test_constant_argument(self):
        assert parse("R(x, 3)") == Atom("R", (x, Const(3)))

    def test_equality(self):
        assert parse("x = y") == Eq(x, y)

    def test_disequality(self):
        assert parse("x != y") == Not(Eq(x, y))

    def test_true_false(self):
        assert parse("true") == TRUE
        assert parse("false") == FALSE


class TestConnectives:
    def test_and_flattens(self):
        f = parse("P(x) & Q(x) & R(x, y)")
        assert isinstance(f, And)
        assert len(f.parts) == 3

    def test_or(self):
        f = parse("P(x) | Q(x)")
        assert isinstance(f, Or)

    def test_precedence_and_over_or(self):
        f = parse("P(x) | Q(x) & S(x)")
        assert isinstance(f, Or)
        assert isinstance(f.parts[1], And)

    def test_negation(self):
        assert parse("~P(x)") == Not(Atom("P", (x,)))

    def test_double_negation_folds(self):
        assert parse("~~P(x)") == Atom("P", (x,))

    def test_implication_right_associative(self):
        f = parse("P(x) -> Q(x) -> S(x)")
        assert isinstance(f, Implies)
        assert isinstance(f.consequent, Implies)

    def test_iff(self):
        f = parse("P(x) <-> Q(x)")
        assert isinstance(f, Iff)

    def test_parentheses(self):
        f = parse("(P(x) | Q(x)) & S(x)")
        assert isinstance(f, And)


class TestQuantifiers:
    def test_forall(self):
        f = parse("forall x. P(x)")
        assert f == Forall(x, Atom("P", (x,)))

    def test_exists(self):
        f = parse("exists x. P(x)")
        assert isinstance(f, Exists)

    def test_multiple_vars(self):
        f = parse("forall x, y. R(x, y)")
        assert isinstance(f, Forall)
        assert isinstance(f.body, Forall)

    def test_quantifier_scopes_over_connectives(self):
        f = parse("forall x. P(x) & Q(x)")
        assert isinstance(f, Forall)
        assert isinstance(f.body, And)

    def test_nested(self):
        f = parse("forall x. exists y. R(x, y)")
        assert isinstance(f, Forall)
        assert isinstance(f.body, Exists)


class TestErrors:
    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("P(x) P(y)")

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse("(P(x)")

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse("forall x P(x)")

    def test_uppercase_variable_rejected(self):
        with pytest.raises(ParseError):
            parse("forall X. P(X)")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse("P(x) @ Q(x)")

    def test_lone_term(self):
        with pytest.raises(ParseError):
            parse("x")

    def test_deep_parentheses_raise_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("(" * 200 + "P(x)" + ")" * 200)

    def test_deep_negation_raises_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("~" * 2000 + "P(x)")

    def test_moderate_nesting_still_parses(self):
        assert parse("(" * 100 + "P(x)" + ")" * 100) == parse("P(x)")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "forall x. exists y. R(x, y)",
            "forall x, y. (R(x) | S(x, y) | T(y))",
            "exists x, y. R(x, y) & x != y",
            "forall x. (P(x) -> exists y. (R(x, y) & ~P(y)))",
            "Z | ~Z",
        ],
    )
    def test_parse_repr_parse(self, text):
        f = parse(text)
        assert parse(repr(f)) == f
