"""Abstract syntax for first-order logic over a relational vocabulary.

The language matches Section 2 of the paper: relational atoms, equality,
the Boolean connectives, and the two quantifiers.  Domain elements are the
integers ``1..n``; constants may appear in formulas (they are used by the
grounding machinery when quantifiers are expanded).

All nodes are immutable and hashable, so formulas can be used as dictionary
keys and deduplicated structurally.  Each node from :class:`Atom` to
:class:`Exists` computes its structural hash once and caches it on the
instance (not as a field, so equality and ``repr`` are unaffected); a
pickled or copied node drops the cached hash, because string hashes are
salted per process.  Connective constructors perform light
normalization (flattening of nested conjunctions/disjunctions and constant
folding) via the helpers :func:`conj`, :func:`disj` and :func:`neg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from ..utils import hash_once, state_without_hash

__all__ = [
    "Term", "Var", "Const",
    "Formula", "Atom", "Eq", "Not", "And", "Or", "Implies", "Iff",
    "Forall", "Exists", "Top", "Bottom", "TRUE", "FALSE",
    "conj", "disj", "neg", "forall", "exists", "variables",
    "free_variables", "all_variables", "num_variables",
    "predicates_of", "atoms_of", "substitute",
    "is_quantifier_free", "is_sentence",
]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    """A logical variable, identified by its name."""

    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    """A domain constant; domain elements are integers ``1..n``."""

    value: int

    def __repr__(self):
        return "c{}".format(self.value)


Term = Union[Var, Const]


def variables(names):
    """Convenience: ``x, y = variables("x y")``."""
    parts = names.split()
    result = tuple(Var(p) for p in parts)
    return result if len(result) > 1 else result[0]


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

class Formula:
    """Base class for all formula nodes (marker; all nodes are dataclasses)."""

    __slots__ = ()

    # Operator sugar so formulas compose readably in examples and tests:
    # ``R(x) | S(x, y)``, ``~P(x)``, ``A >> B`` for implication.
    def __and__(self, other):
        return conj(self, other)

    def __or__(self, other):
        return disj(self, other)

    def __invert__(self):
        return neg(self)

    def __rshift__(self, other):
        return Implies(self, other)

    __getstate__ = state_without_hash


@dataclass(frozen=True, repr=False)
class Top(Formula):
    """The constant ``true``."""

    def __repr__(self):
        return "true"


@dataclass(frozen=True, repr=False)
class Bottom(Formula):
    """The constant ``false``."""

    def __repr__(self):
        return "false"


TRUE = Top()
FALSE = Bottom()


@hash_once
@dataclass(frozen=True, repr=False)
class Atom(Formula):
    """A relational atom ``R(t1, ..., tk)``; ``pred`` is the symbol name."""

    pred: str
    args: Tuple[Term, ...]

    def __repr__(self):
        if not self.args:
            return self.pred
        return "{}({})".format(self.pred, ", ".join(repr(a) for a in self.args))


@hash_once
@dataclass(frozen=True, repr=False)
class Eq(Formula):
    """The equality atom ``left = right`` (the built-in ``=`` predicate)."""

    left: Term
    right: Term

    def __repr__(self):
        return "{} = {}".format(self.left, self.right)


@hash_once
@dataclass(frozen=True, repr=False)
class Not(Formula):
    """Negation."""

    body: Formula

    def __repr__(self):
        return "~{}".format(_paren(self.body))


@hash_once
@dataclass(frozen=True, repr=False)
class And(Formula):
    """N-ary conjunction; use :func:`conj` to construct with flattening."""

    parts: Tuple[Formula, ...]

    def __repr__(self):
        return " & ".join(_paren(p) for p in self.parts)


@hash_once
@dataclass(frozen=True, repr=False)
class Or(Formula):
    """N-ary disjunction; use :func:`disj` to construct with flattening."""

    parts: Tuple[Formula, ...]

    def __repr__(self):
        return " | ".join(_paren(p) for p in self.parts)


@hash_once
@dataclass(frozen=True, repr=False)
class Implies(Formula):
    """Implication ``antecedent -> consequent``."""

    antecedent: Formula
    consequent: Formula

    def __repr__(self):
        return "{} -> {}".format(_paren(self.antecedent), _paren(self.consequent))


@hash_once
@dataclass(frozen=True, repr=False)
class Iff(Formula):
    """Biconditional ``left <-> right``."""

    left: Formula
    right: Formula

    def __repr__(self):
        return "{} <-> {}".format(_paren(self.left), _paren(self.right))


@hash_once
@dataclass(frozen=True, repr=False)
class Forall(Formula):
    """Universal quantification over a single variable."""

    var: Var
    body: Formula

    def __repr__(self):
        return "forall {}. {}".format(self.var.name, _paren(self.body))


@hash_once
@dataclass(frozen=True, repr=False)
class Exists(Formula):
    """Existential quantification over a single variable."""

    var: Var
    body: Formula

    def __repr__(self):
        return "exists {}. {}".format(self.var.name, _paren(self.body))


def _paren(f):
    """Parenthesize composite subformulas for unambiguous printing."""
    if isinstance(f, (Atom, Eq, Top, Bottom, Not)):
        return repr(f)
    return "({})".format(repr(f))


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

def conj(*parts):
    """Conjunction with flattening and constant folding."""
    flat = []
    for p in parts:
        if isinstance(p, Top):
            continue
        if isinstance(p, Bottom):
            return FALSE
        if isinstance(p, And):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*parts):
    """Disjunction with flattening and constant folding."""
    flat = []
    for p in parts:
        if isinstance(p, Bottom):
            continue
        if isinstance(p, Top):
            return TRUE
        if isinstance(p, Or):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(f):
    """Negation with double-negation and constant folding."""
    if isinstance(f, Top):
        return FALSE
    if isinstance(f, Bottom):
        return TRUE
    if isinstance(f, Not):
        return f.body
    return Not(f)


def forall(vars_, body):
    """``forall([x, y], f)`` builds nested universal quantifiers."""
    if isinstance(vars_, Var):
        vars_ = [vars_]
    result = body
    for v in reversed(list(vars_)):
        result = Forall(v, result)
    return result


def exists(vars_, body):
    """``exists([x, y], f)`` builds nested existential quantifiers."""
    if isinstance(vars_, Var):
        vars_ = [vars_]
    result = body
    for v in reversed(list(vars_)):
        result = Exists(v, result)
    return result


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def free_variables(f):
    """The set of variables occurring free in ``f``."""
    if isinstance(f, (Top, Bottom)):
        return frozenset()
    if isinstance(f, Atom):
        return frozenset(a for a in f.args if isinstance(a, Var))
    if isinstance(f, Eq):
        return frozenset(t for t in (f.left, f.right) if isinstance(t, Var))
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, (And, Or)):
        result = frozenset()
        for p in f.parts:
            result |= free_variables(p)
        return result
    if isinstance(f, Implies):
        return free_variables(f.antecedent) | free_variables(f.consequent)
    if isinstance(f, Iff):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, (Forall, Exists)):
        return free_variables(f.body) - {f.var}
    raise TypeError("not a formula: {!r}".format(f))


def all_variables(f):
    """All variable names used in ``f``, bound or free.

    This is the quantity that defines the FOk fragments: a sentence is in
    FOk when it uses at most ``k`` *distinct* variable names (reuse of the
    same name in nested quantifiers is allowed and counts once).
    """
    if isinstance(f, (Top, Bottom)):
        return frozenset()
    if isinstance(f, Atom):
        return frozenset(a.name for a in f.args if isinstance(a, Var))
    if isinstance(f, Eq):
        return frozenset(t.name for t in (f.left, f.right) if isinstance(t, Var))
    if isinstance(f, Not):
        return all_variables(f.body)
    if isinstance(f, (And, Or)):
        result = frozenset()
        for p in f.parts:
            result |= all_variables(p)
        return result
    if isinstance(f, Implies):
        return all_variables(f.antecedent) | all_variables(f.consequent)
    if isinstance(f, Iff):
        return all_variables(f.left) | all_variables(f.right)
    if isinstance(f, (Forall, Exists)):
        return all_variables(f.body) | {f.var.name}
    raise TypeError("not a formula: {!r}".format(f))


def num_variables(f):
    """Number of distinct variable names in ``f`` (the k of FOk)."""
    return len(all_variables(f))


def predicates_of(f):
    """Mapping ``{name: arity}`` of all relation symbols occurring in ``f``.

    Raises ``ValueError`` if the same name occurs with two different arities.
    """
    result = {}

    def walk(g):
        if isinstance(g, Atom):
            arity = len(g.args)
            if result.setdefault(g.pred, arity) != arity:
                raise ValueError(
                    "predicate {} used with arities {} and {}".format(
                        g.pred, result[g.pred], arity
                    )
                )
        elif isinstance(g, Eq) or isinstance(g, (Top, Bottom)):
            pass
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p)
        elif isinstance(g, Implies):
            walk(g.antecedent)
            walk(g.consequent)
        elif isinstance(g, Iff):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body)
        else:
            raise TypeError("not a formula: {!r}".format(g))

    walk(f)
    return result


def atoms_of(f):
    """The set of :class:`Atom` and :class:`Eq` nodes occurring in ``f``."""
    result = set()

    def walk(g):
        if isinstance(g, (Atom, Eq)):
            result.add(g)
        elif isinstance(g, (Top, Bottom)):
            pass
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p)
        elif isinstance(g, Implies):
            walk(g.antecedent)
            walk(g.consequent)
        elif isinstance(g, Iff):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body)
        else:
            raise TypeError("not a formula: {!r}".format(g))

    walk(f)
    return result


def substitute(f, mapping):
    """Replace free variables of ``f`` according to ``mapping``.

    ``mapping`` maps :class:`Var` to terms (:class:`Var` or :class:`Const`).
    Quantifiers shadow: a bound variable is removed from the mapping inside
    its scope.  The caller is responsible for avoiding capture (grounding
    always substitutes constants, which can never be captured).
    """
    if not mapping:
        return f

    def sub_term(t):
        if isinstance(t, Var):
            return mapping.get(t, t)
        return t

    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(sub_term(a) for a in f.args))
    if isinstance(f, Eq):
        return Eq(sub_term(f.left), sub_term(f.right))
    if isinstance(f, Not):
        return neg(substitute(f.body, mapping))
    if isinstance(f, And):
        return conj(*(substitute(p, mapping) for p in f.parts))
    if isinstance(f, Or):
        return disj(*(substitute(p, mapping) for p in f.parts))
    if isinstance(f, Implies):
        return Implies(substitute(f.antecedent, mapping), substitute(f.consequent, mapping))
    if isinstance(f, Iff):
        return Iff(substitute(f.left, mapping), substitute(f.right, mapping))
    if isinstance(f, (Forall, Exists)):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        cls = type(f)
        return cls(f.var, substitute(f.body, inner))
    raise TypeError("not a formula: {!r}".format(f))


def is_quantifier_free(f):
    """True when ``f`` contains no quantifier."""
    if isinstance(f, (Atom, Eq, Top, Bottom)):
        return True
    if isinstance(f, Not):
        return is_quantifier_free(f.body)
    if isinstance(f, (And, Or)):
        return all(is_quantifier_free(p) for p in f.parts)
    if isinstance(f, Implies):
        return is_quantifier_free(f.antecedent) and is_quantifier_free(f.consequent)
    if isinstance(f, Iff):
        return is_quantifier_free(f.left) and is_quantifier_free(f.right)
    if isinstance(f, (Forall, Exists)):
        return False
    raise TypeError("not a formula: {!r}".format(f))


def is_sentence(f):
    """True when ``f`` has no free variables."""
    return not free_variables(f)
