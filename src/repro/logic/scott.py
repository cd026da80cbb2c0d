"""Scott's reduction: flattening nested quantifiers (paper Section 4, App. C).

Given a sentence ``phi``, Scott's reduction replaces a quantified
subformula ``psi`` by a fresh relation symbol ``S_psi`` and asserts the
defining axiom ``forall xbar (S_psi(xbar) <-> Q y psi')``.  The result is a
conjunction of prenex sentences whose quantifier prefix has length at most
``k`` for ``phi`` in FOk, and:

1. the finite models of ``phi`` and of the conjunction are in one-to-one
   correspondence (each new symbol is functionally determined), and
2. giving every new symbol the weight pair ``(1, 1)`` preserves WFOMC.

A top-level conjunct that already starts with a Scott-shaped prefix keeps
it: only the quantified subformulas *below* that prefix get a symbol, so
``forall x. exists y. R(x, y)`` is its own normal form, and Skolemization
then adds the one unary symbol the standard reduction needs.

We split each biconditional axiom into its two prenex halves, so the output
is a list of :class:`PrenexSentence` whose prefixes match one of the shapes
``forall*`` or ``forall* exists`` — exactly what Skolemization (Lemma 3.3)
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..weights import WeightPair, SKOLEM
from .syntax import (
    And,
    Atom,
    Bottom,
    Eq,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    Var,
    conj,
    disj,
    free_variables,
    neg,
)

__all__ = ["PrenexSentence", "UniversalSentence", "scott_normalize", "skolemize_scott"]


@dataclass(frozen=True)
class PrenexSentence:
    """A prenex sentence: quantifier prefix plus quantifier-free matrix.

    ``prefix`` is a tuple of ``("forall" | "exists", Var)`` pairs.
    """

    prefix: Tuple[Tuple[str, Var], ...]
    matrix: object

    def __repr__(self):
        head = " ".join("{} {}.".format(q, v.name) for q, v in self.prefix)
        return "{} {}".format(head, self.matrix) if head else repr(self.matrix)


@dataclass(frozen=True)
class UniversalSentence:
    """A purely universal sentence ``forall vars. matrix``."""

    vars: Tuple[Var, ...]
    matrix: object

    def __repr__(self):
        head = " ".join("forall {}.".format(v.name) for v in self.vars)
        return "{} {}".format(head, self.matrix) if head else repr(self.matrix)


class _NameSupply:
    def __init__(self, taken):
        self.taken = set(taken)

    def fresh(self, base):
        if base not in self.taken:
            self.taken.add(base)
            return base
        i = 1
        while "{}{}".format(base, i) in self.taken:
            i += 1
        name = "{}{}".format(base, i)
        self.taken.add(name)
        return name


def _conjuncts(formula):
    """The top-level conjuncts of ``formula``, nested ``And``s flattened."""
    if isinstance(formula, And):
        return [c for part in formula.parts for c in _conjuncts(part)]
    return [formula]


def _scott_prefix(formula):
    """Split ``formula`` into its leading Scott-shaped prefix and the rest.

    The prefix is the leading ``forall*`` plus at most one ``exists``.  A
    quantifier that re-binds a prefix variable ends it: in
    ``forall x. exists x. P(x)`` the inner ``x`` is a new variable, so
    ``exists x. P(x)`` stays below the prefix and gets its own symbol.
    """
    prefix = []
    bound = set()
    while isinstance(formula, Forall) and formula.var not in bound:
        prefix.append(("forall", formula.var))
        bound.add(formula.var)
        formula = formula.body
    if isinstance(formula, Exists) and formula.var not in bound:
        prefix.append(("exists", formula.var))
        formula = formula.body
    return tuple(prefix), formula


def scott_normalize(formula, weighted_vocabulary):
    """Apply Scott's reduction to a sentence.

    Returns ``(sentences, extended_weighted_vocabulary)`` where
    ``sentences`` is a list of :class:`PrenexSentence` (prefix shapes
    ``forall*`` or ``forall* exists``) whose conjunction has the same
    WFOMC as ``formula`` under the extended vocabulary.

    Each top-level conjunct keeps its leading Scott-shaped prefix (see
    :func:`_scott_prefix`); a fresh symbol of weight ``(1, 1)`` is
    defined for every quantified subformula below it.  A conjunct with
    no prefix, such as a disjunction of sentences, becomes a
    quantifier-free sentence over the zero-ary symbols of its
    quantified parts.
    """
    free = free_variables(formula)
    if free:
        raise ValueError("Scott reduction needs a sentence, free vars: {}".format(free))

    names = _NameSupply(weighted_vocabulary.vocabulary.names())
    axioms: List[PrenexSentence] = []
    new_weights = {}
    new_arities = {}

    def define(quantifier, var, body):
        """Introduce S <-> (Q var. body); return the replacing atom."""
        fv = sorted(free_variables(body) - {var}, key=lambda v: v.name)
        name = names.fresh("Sc")
        new_weights[name] = WeightPair(1, 1)
        new_arities[name] = len(fv)
        head = Atom(name, tuple(fv))
        prefix_fv = tuple(("forall", v) for v in fv)
        if quantifier == "exists":
            # (exists v body) -> head  ===  forall fv forall v (~body | head)
            axioms.append(
                PrenexSentence(prefix_fv + (("forall", var),), disj(neg(body), head))
            )
            # head -> (exists v body)  ===  forall fv exists v (~head | body)
            axioms.append(
                PrenexSentence(prefix_fv + (("exists", var),), disj(neg(head), body))
            )
        else:
            # head -> (forall v body)  ===  forall fv forall v (~head | body)
            axioms.append(
                PrenexSentence(prefix_fv + (("forall", var),), disj(neg(head), body))
            )
            # (forall v body) -> head  ===  forall fv exists v (~body | head)
            axioms.append(
                PrenexSentence(prefix_fv + (("exists", var),), disj(neg(body), head))
            )
        return head

    def replace(g):
        if isinstance(g, (Atom, Eq, Top, Bottom)):
            return g
        if isinstance(g, Not):
            return neg(replace(g.body))
        if isinstance(g, And):
            return conj(*(replace(p) for p in g.parts))
        if isinstance(g, Or):
            return disj(*(replace(p) for p in g.parts))
        if isinstance(g, Implies):
            return Implies(replace(g.antecedent), replace(g.consequent))
        if isinstance(g, Iff):
            return Iff(replace(g.left), replace(g.right))
        if isinstance(g, Forall):
            return define("forall", g.var, replace(g.body))
        if isinstance(g, Exists):
            return define("exists", g.var, replace(g.body))
        raise TypeError("not a formula: {!r}".format(g))

    sentences = []
    for part in _conjuncts(formula):
        prefix, body = _scott_prefix(part)
        sentences.append(PrenexSentence(prefix, replace(body)))
    extended = weighted_vocabulary.extend(new_weights, new_arities)
    return sentences + axioms, extended


def skolemize_scott(sentences, weighted_vocabulary):
    """Skolemize Scott-shaped prenex sentences (Lemma 3.3, simple case).

    Every input sentence has prefix ``forall*`` or ``forall* exists``.
    The latter, ``forall xbar exists y m``, becomes
    ``forall xbar forall y (~m | A(xbar))`` with a fresh symbol ``A`` of
    arity ``|xbar|`` and the cancellation weights ``(1, -1)``: in worlds
    where the existential witness exists, ``A`` is forced true and weighs
    ``1``; where it does not, the two choices of ``A`` cancel.

    Returns ``(universal_sentences, extended_weighted_vocabulary)``.
    """
    names = _NameSupply(weighted_vocabulary.vocabulary.names())
    new_weights = {}
    new_arities = {}
    result = []

    for sent in sentences:
        kinds = [q for q, _v in sent.prefix]
        if all(q == "forall" for q in kinds):
            result.append(UniversalSentence(tuple(v for _q, v in sent.prefix), sent.matrix))
            continue
        if kinds.count("exists") != 1 or kinds[-1] != "exists":
            raise ValueError(
                "expected Scott-shaped prefix forall*[exists], got {}".format(kinds)
            )
        universal_vars = tuple(v for _q, v in sent.prefix[:-1])
        last_var = sent.prefix[-1][1]
        name = names.fresh("Sk")
        new_weights[name] = SKOLEM
        new_arities[name] = len(universal_vars)
        witness = Atom(name, universal_vars)
        matrix = disj(neg(sent.matrix), witness)
        result.append(UniversalSentence(universal_vars + (last_var,), matrix))

    extended = weighted_vocabulary.extend(new_weights, new_arities)
    return result, extended
