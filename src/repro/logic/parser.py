"""A small recursive-descent parser for first-order formulas.

Grammar (precedence from loosest to tightest)::

    formula   := iff
    iff       := implies ( "<->" implies )*
    implies   := or ( "->" implies )?          (right associative)
    or        := and ( "|" and )*
    and       := unary ( "&" unary )*
    unary     := "~" unary | quantified | atom
    quantified:= ("forall" | "exists") var ("," var)* "." unary-or-paren
    atom      := name "(" term ("," term)* ")" | name
               | term "=" term | term "!=" term
               | "true" | "false" | "(" formula ")"
    term      := lowercase identifier (variable) | integer (constant)

Convention: identifiers that start with an uppercase letter are predicate
symbols; identifiers that start with a lowercase letter are variables.
Examples::

    parse("forall x. exists y. R(x, y)")
    parse("forall x, y. (R(x) | S(x, y) | T(y))")
    parse("exists x, y. R(x, y) & x != y")
"""

from __future__ import annotations

import re

from ..errors import ParseError
from .syntax import (
    Const,
    Eq,
    Iff,
    Implies,
    Var,
    Atom,
    TRUE,
    FALSE,
    conj,
    disj,
    exists,
    forall,
    neg,
)

__all__ = ["parse"]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)|(?P<dot>\.)"
    r"|(?P<iff><->)|(?P<implies>->)|(?P<neq>!=)|(?P<eq>=)"
    r"|(?P<and>&)|(?P<or>\|)|(?P<not>~)"
    r"|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*))"
)

_KEYWORDS = {"forall", "exists", "true", "false"}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError("unexpected character {!r}".format(text[pos]), pos)
            break
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError("expected {}, got {!r}".format(kind, tok[1]), tok[2])
        return tok

    # formula := iff
    def parse_formula(self):
        return self.parse_iff()

    def parse_iff(self):
        left = self.parse_implies()
        while self.peek()[0] == "iff":
            self.advance()
            right = self.parse_implies()
            left = Iff(left, right)
        return left

    def parse_implies(self):
        left = self.parse_or()
        if self.peek()[0] == "implies":
            self.advance()
            right = self.parse_implies()
            return Implies(left, right)
        return left

    def parse_or(self):
        parts = [self.parse_and()]
        while self.peek()[0] == "or":
            self.advance()
            parts.append(self.parse_and())
        return disj(*parts) if len(parts) > 1 else parts[0]

    def parse_and(self):
        parts = [self.parse_unary()]
        while self.peek()[0] == "and":
            self.advance()
            parts.append(self.parse_unary())
        return conj(*parts) if len(parts) > 1 else parts[0]

    def parse_unary(self):
        kind, value, pos = self.peek()
        if kind == "not":
            self.advance()
            return neg(self.parse_unary())
        if kind == "name" and value in ("forall", "exists"):
            return self.parse_quantified()
        return self.parse_atom()

    def parse_quantified(self):
        kind, value, pos = self.advance()
        quantifier = forall if value == "forall" else exists
        vars_ = [self.parse_variable()]
        while self.peek()[0] == "comma":
            self.advance()
            vars_.append(self.parse_variable())
        self.expect("dot")
        body = self.parse_unary_or_quantified_body()
        return quantifier(vars_, body)

    def parse_unary_or_quantified_body(self):
        # The body of a quantifier extends through connectives:
        # "forall x. R(x) & S(x)" scopes over the whole conjunction.
        return self.parse_iff()

    def parse_variable(self):
        kind, value, pos = self.advance()
        if kind != "name" or not value[0].islower() or value in _KEYWORDS:
            raise ParseError("expected a variable name, got {!r}".format(value), pos)
        return Var(value)

    def parse_term(self):
        kind, value, pos = self.advance()
        if kind == "int":
            return Const(int(value))
        if kind == "name" and value[0].islower() and value not in _KEYWORDS:
            return Var(value)
        raise ParseError("expected a term, got {!r}".format(value), pos)

    def parse_atom(self):
        kind, value, pos = self.peek()
        if kind == "lparen":
            self.advance()
            inner = self.parse_formula()
            self.expect("rparen")
            return self.maybe_equality_suffix_formula(inner)
        if kind == "name" and value == "true":
            self.advance()
            return TRUE
        if kind == "name" and value == "false":
            self.advance()
            return FALSE
        if kind == "name" and value[0].isupper():
            self.advance()
            args = ()
            if self.peek()[0] == "lparen":
                self.advance()
                arg_list = [self.parse_term()]
                while self.peek()[0] == "comma":
                    self.advance()
                    arg_list.append(self.parse_term())
                self.expect("rparen")
                args = tuple(arg_list)
            return Atom(value, args)
        # Otherwise it must be an equality between terms.
        left = self.parse_term()
        kind, value, pos = self.advance()
        if kind == "eq":
            return Eq(left, self.parse_term())
        if kind == "neq":
            return neg(Eq(left, self.parse_term()))
        raise ParseError("expected '=' or '!=' after term, got {!r}".format(value), pos)

    def maybe_equality_suffix_formula(self, inner):
        return inner


def parse(text):
    """Parse ``text`` into a formula; raises :class:`ParseError` on failure.

    Nesting deeper than the interpreter's recursion limit is bad input
    like any other: it raises :class:`ParseError`, not
    :class:`RecursionError`.
    """
    parser = _Parser(text)
    try:
        result = parser.parse_formula()
    except RecursionError:
        raise ParseError("formula nested too deeply") from None
    kind, value, pos = parser.peek()
    if kind != "eof":
        raise ParseError("unexpected trailing input {!r}".format(value), pos)
    return result
