"""Propositional formulas over arbitrary hashable variable labels.

The grounding of an FO sentence (its *lineage*, Section 2) is a
propositional formula whose variables are ground atoms, represented here
as labels like ``("R", (1, 2))``.  The smart constructors fold constants
and flatten nesting, which keeps lineages compact.

:class:`PVar`, :class:`PNot`, :class:`PAnd` and :class:`POr` compute
their structural hash once and cache it on the instance (not as a field,
so equality and ``repr`` are unaffected): lineages are hashed on every
memo lookup.  A pickled or copied node drops the cached hash, because
string hashes are salted per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from ..utils import hash_once, state_without_hash

__all__ = [
    "PFormula", "PTrue", "PFalse", "PVar", "PNot", "PAnd", "POr",
    "pvar", "pnot", "pand", "por", "prop_vars", "peval", "ptruth_table",
]


class PFormula:
    """Base class for propositional formula nodes."""

    __slots__ = ()

    def __and__(self, other):
        return pand(self, other)

    def __or__(self, other):
        return por(self, other)

    def __invert__(self):
        return pnot(self)

    __getstate__ = state_without_hash


@dataclass(frozen=True, repr=False)
class PTrue(PFormula):
    def __repr__(self):
        return "T"


@dataclass(frozen=True, repr=False)
class PFalse(PFormula):
    def __repr__(self):
        return "F"


@hash_once
@dataclass(frozen=True, repr=False)
class PVar(PFormula):
    """A propositional variable; ``label`` is any hashable value."""

    label: Any

    def __repr__(self):
        return str(self.label)


@hash_once
@dataclass(frozen=True, repr=False)
class PNot(PFormula):
    body: PFormula

    def __repr__(self):
        return "!{}".format(_paren(self.body))


@hash_once
@dataclass(frozen=True, repr=False)
class PAnd(PFormula):
    parts: Tuple[PFormula, ...]

    def __repr__(self):
        return " & ".join(_paren(p) for p in self.parts)


@hash_once
@dataclass(frozen=True, repr=False)
class POr(PFormula):
    parts: Tuple[PFormula, ...]

    def __repr__(self):
        return " | ".join(_paren(p) for p in self.parts)


def _paren(f):
    if isinstance(f, (PVar, PTrue, PFalse, PNot)):
        return repr(f)
    return "({})".format(repr(f))


_TRUE = PTrue()
_FALSE = PFalse()


def pvar(label):
    """A propositional variable with the given label."""
    return PVar(label)


def pnot(f):
    if isinstance(f, PTrue):
        return _FALSE
    if isinstance(f, PFalse):
        return _TRUE
    if isinstance(f, PNot):
        return f.body
    return PNot(f)


def pand(*parts):
    flat = []
    seen = set()
    for p in parts:
        if isinstance(p, PTrue):
            continue
        if isinstance(p, PFalse):
            return _FALSE
        children = p.parts if isinstance(p, PAnd) else (p,)
        for child in children:
            # Conjunction is idempotent; dropping repeats keeps the
            # lineages of symmetric sentences compact.
            if child not in seen:
                seen.add(child)
                flat.append(child)
    if not flat:
        return _TRUE
    if len(flat) == 1:
        return flat[0]
    return PAnd(tuple(flat))


def por(*parts):
    flat = []
    seen = set()
    for p in parts:
        if isinstance(p, PFalse):
            continue
        if isinstance(p, PTrue):
            return _TRUE
        children = p.parts if isinstance(p, POr) else (p,)
        for child in children:
            if child not in seen:
                seen.add(child)
                flat.append(child)
    if not flat:
        return _FALSE
    if len(flat) == 1:
        return flat[0]
    return POr(tuple(flat))


def prop_vars(f):
    """The set of variable labels occurring in ``f``."""
    result = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, PVar):
            result.add(g.label)
        elif isinstance(g, PNot):
            stack.append(g.body)
        elif isinstance(g, (PAnd, POr)):
            stack.extend(g.parts)
    return result


def peval(f, assignment):
    """Evaluate ``f`` under ``assignment`` (a dict of label -> bool)."""
    if isinstance(f, PTrue):
        return True
    if isinstance(f, PFalse):
        return False
    if isinstance(f, PVar):
        return bool(assignment[f.label])
    if isinstance(f, PNot):
        return not peval(f.body, assignment)
    if isinstance(f, PAnd):
        return all(peval(p, assignment) for p in f.parts)
    if isinstance(f, POr):
        return any(peval(p, assignment) for p in f.parts)
    raise TypeError("not a propositional formula: {!r}".format(f))


def ptruth_table(f, columns, full):
    """Evaluate ``f`` under many assignments at once, bit-parallel.

    Assignments are bit positions: ``columns`` maps each variable label
    to the int whose bit ``p`` is the variable's value under assignment
    ``p``, and ``full`` has a bit set for every assignment.  Returns the
    int whose bit ``p`` is ``peval(f, assignment p)``.
    """
    if isinstance(f, PVar):
        return columns[f.label]
    if isinstance(f, PAnd):
        mask = full
        for p in f.parts:
            mask &= ptruth_table(p, columns, full)
            if not mask:
                break
        return mask
    if isinstance(f, POr):
        mask = 0
        for p in f.parts:
            mask |= ptruth_table(p, columns, full)
            if mask == full:
                break
        return mask
    if isinstance(f, PNot):
        return full ^ ptruth_table(f.body, columns, full)
    if isinstance(f, PTrue):
        return full
    if isinstance(f, PFalse):
        return 0
    raise TypeError("not a propositional formula: {!r}".format(f))
