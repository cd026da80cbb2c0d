"""CNF conversion with exact model-count preservation.

One path serves every formula: each top-level conjunct becomes one
clause, whose literal parts stand for themselves and whose nested
subformulas are replaced by their *Tseitin* literals.  Lineages of
universally quantified sentences are usually clausal already and convert
without any auxiliary variable.  Tseitin auxiliary variables are
functionally determined by the original variables (each auxiliary is
forced by unit propagation once its definition's inputs are set), so
giving them the weight pair ``(1, 1)`` preserves the weighted model count
exactly: each model of the original formula extends to exactly one model
of the CNF with the same weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from .formula import PAnd, PFalse, PNot, POr, PTrue, PVar, prop_vars

__all__ = ["CNF", "to_cnf"]


@dataclass
class CNF:
    """A CNF over integer variables ``1..num_vars``.

    ``clauses`` holds tuples of nonzero ints (DIMACS-style literals).
    ``labels`` maps variable index to the original label for the non-
    auxiliary variables; auxiliary (Tseitin) variables have no label and
    always carry weight ``(1, 1)``.
    """

    num_vars: int = 0
    clauses: List[Tuple[int, ...]] = field(default_factory=list)
    labels: Dict[int, Any] = field(default_factory=dict)
    index_of: Dict[Any, int] = field(default_factory=dict)
    contradictory: bool = False

    def var_for(self, label):
        """The variable index for ``label``, creating it if needed."""
        idx = self.index_of.get(label)
        if idx is None:
            self.num_vars += 1
            idx = self.num_vars
            self.index_of[label] = idx
            self.labels[idx] = label
        return idx

    def aux_var(self):
        """A fresh auxiliary (unlabeled) variable."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits):
        clause = tuple(lits)
        if not clause:
            self.contradictory = True
        self.clauses.append(clause)

    def original_vars(self):
        """Indices of the labeled (non-auxiliary) variables."""
        return set(self.labels)


def to_cnf(formula, extra_labels=()):
    """Convert a propositional formula to :class:`CNF`.

    Each top-level conjunct of ``formula`` (a part of its outermost
    conjunction, or ``formula`` itself) becomes one clause.  A literal
    part of that clause is its variable; any other part is its Tseitin
    literal, an auxiliary variable defined equivalent to the subformula
    (hash-consed, so a shared subformula is defined once).  A clausal
    formula therefore converts without auxiliaries, and neither the root
    nor a top-level disjunction gets one.  Repeated clauses and
    tautologies are dropped, including the tautologies hidden behind a
    negated conjunction (:func:`_hidden_tautology`).

    ``extra_labels`` forces the given labels to be registered as variables
    even if they do not occur in the formula (callers use this so that
    "don't care" ground atoms still contribute their ``w + wbar`` factor
    to the weighted count).
    """
    cnf = CNF()
    for label in extra_labels:
        cnf.var_for(label)

    if isinstance(formula, PTrue):
        return cnf
    if isinstance(formula, PFalse):
        cnf.add_clause(())
        return cnf

    # Tseitin encoding of a nested subformula: returns its literal.
    cache = {}

    def encode(g):
        if g in cache:
            return cache[g]
        if isinstance(g, PVar):
            lit = cnf.var_for(g.label)
        elif isinstance(g, PNot):
            lit = -encode(g.body)
        elif isinstance(g, PAnd):
            lits = [encode(p) for p in g.parts]
            d = cnf.aux_var()
            for l in lits:
                cnf.add_clause((-d, l))
            cnf.add_clause([d] + [-l for l in lits])
            lit = d
        elif isinstance(g, POr):
            lits = [encode(p) for p in g.parts]
            d = cnf.aux_var()
            for l in lits:
                cnf.add_clause((d, -l))
            cnf.add_clause([-d] + lits)
            lit = d
        elif isinstance(g, PTrue):
            d = cnf.aux_var()
            cnf.add_clause((d,))
            lit = d
        elif isinstance(g, PFalse):
            d = cnf.aux_var()
            cnf.add_clause((-d,))
            lit = d
        else:
            raise TypeError("not a propositional formula: {!r}".format(g))
        cache[g] = lit
        return lit

    # Lineages of symmetric sentences routinely ground the same clause
    # many times and produce tautologies (x | !x).  Both are dropped:
    # duplicates are idempotent under conjunction, and a tautological
    # clause constrains nothing (its variables stay registered via
    # ``var_for`` so they still contribute their ``w + wbar`` mass, and
    # an auxiliary it defined stays determined by its definition).
    seen = set()
    conjuncts = formula.parts if isinstance(formula, PAnd) else (formula,)
    for conjunct in conjuncts:
        parts = conjunct.parts if isinstance(conjunct, POr) else (conjunct,)
        if _hidden_tautology(parts):
            for label in sorted(prop_vars(conjunct), key=repr):
                cnf.var_for(label)
            continue
        lits = []
        lit_set = set()
        tautology = False
        for p in parts:
            if isinstance(p, PVar):
                lit = cnf.var_for(p.label)
            elif isinstance(p, PNot) and isinstance(p.body, PVar):
                lit = -cnf.var_for(p.body.label)
            else:
                lit = encode(p)
            if -lit in lit_set:
                tautology = True
            if lit not in lit_set:
                lit_set.add(lit)
                lits.append(lit)
        if tautology:
            continue
        key = frozenset(lit_set)
        if key in seen:
            continue
        seen.add(key)
        cnf.add_clause(lits)
    return cnf


def _is_literal(formula):
    return isinstance(formula, PVar) or (
        isinstance(formula, PNot) and isinstance(formula.body, PVar))


def _hidden_tautology(parts):
    """True when a disjunction of ``parts`` holds under every assignment
    because one part is ``!(a1 & ... & ak)`` and some literal ``ai`` is
    also a part: whenever ``ai`` is false, the conjunction is.

    Grounding an implication such as transitivity,
    ``R(x, y) & R(y, z) -> R(x, z)``, yields these whenever ``x = y`` or
    ``y = z``.  Only literals match: a compound part has no literal, so
    two compound parts never do.  The negated conjunction is not
    flattened into the clause, which would lengthen the search.
    """
    negated = [part.body.parts for part in parts
               if isinstance(part, PNot) and isinstance(part.body, PAnd)]
    if not negated:
        return False
    present = set(parts)
    return any(a in present and _is_literal(a)
               for conj in negated for a in conj)
