"""Compiling CNFs, propositional formulas, and lineages into circuits.

These are thin drivers over the counting engine's trace mode
(:func:`repro.propositional.counter.trace_cnf_clauses`): the engine's
own conflict-driven search, learned clauses and backjumps included,
runs once over circuit nodes instead of numbers, and the result is a
:class:`~repro.compile.circuit.Circuit` whose evaluation at any weight
assignment is bit-identical to direct counting at those weights —
including negative and zero weights, which the trace never prunes on
(it drops only the branches that end in a conflict, which have no
models).  A compile makes the same decisions as a count of the same
CNF at all-ones weights.

Leaf handling mirrors the counting wrappers exactly:

* labeled CNF variables become leaves keyed by their *label* (for
  lineages, the ground-atom pair ``(pred, args)``);
* auxiliary Tseitin variables carry the fixed weight ``(1, 1)``, so
  their leaves are baked into constants at compile time (they vanish
  from products and contribute a constant ``2`` where they are
  unconstrained, exactly the mass direct counting assigns them);
* labeled variables that occur in no clause contribute their full
  ``w + wbar`` mass as total leaves.

``persist=True`` stores serialized circuits in the ``circuits``
namespace of the on-disk cache (:mod:`repro.cache`), content-addressed
on the weight-independent canonical key of the input (clauses plus
labels, or ``(formula, n)`` for lineages) and the store's engine tag, so
a second process re-serving a sweep skips compilation entirely.
"""

from __future__ import annotations

from ..grounding.lineage import lineage
from ..grounding.structures import ground_tuples
from ..logic.syntax import predicates_of
from ..logic.vocabulary import Predicate, Vocabulary
from ..cache.adapters import CIRCUITS_NS
from ..propositional.counter import cnf_for_formula, trace_cnf_clauses
from ..utils import vocabulary_signature
from .circuit import Circuit, CircuitBuilder

__all__ = ["CIRCUITS_NS", "compile_cnf", "compile_formula", "compile_lineage"]


def _store_for(persist, cache_dir):
    if not persist:
        return None
    from ..cache import open_store

    store = open_store(cache_dir)
    return None if store.disabled else store


def _load_circuit(store, store_key):
    if store is None or store_key is None:
        return None
    payload = store.get(CIRCUITS_NS, store_key)
    if payload is None:
        return None
    return Circuit.from_payload(payload)


def _save_circuit(store, store_key, circuit):
    if store is not None and store_key is not None:
        store.put(CIRCUITS_NS, store_key, circuit.to_payload())


def compile_cnf(cnf, persist=None, cache_dir=None, store_key=None,
                budget=None):
    """Compile a :class:`~repro.propositional.cnf.CNF` into a circuit.

    The circuit's leaves are the CNF's variable *labels*;
    ``Circuit.evaluate({label: (w, wbar), ...})`` is bit-identical to
    :func:`~repro.propositional.counter.wmc_cnf` with the same weights.
    ``store_key`` overrides the persistence key (callers with a cheaper
    canonical identity, like :func:`compile_lineage`, pass their own).
    """
    store = _store_for(persist, cache_dir)
    if store is not None and store_key is None:
        store_key = ("cnf", tuple(cnf.clauses),
                     tuple(sorted(cnf.labels.items(),
                                  key=lambda item: item[0])),
                     cnf.num_vars)
    cached = _load_circuit(store, store_key)
    if cached is not None:
        return cached

    builder = CircuitBuilder()
    if cnf.contradictory:
        root = builder.const(0)
    else:
        clauses = tuple(cnf.clauses)
        root = trace_cnf_clauses(clauses, builder, budget=budget)
        used = set()
        for c in clauses:
            for lit in c:
                used.add(lit if lit > 0 else -lit)
        unused = [builder.tot(v) for v in sorted(cnf.original_vars())
                  if v not in used]
        if unused:
            root = builder.times([root] + unused)
    traced = builder.build(root)

    labels = cnf.labels

    def relabel(var):
        label = labels.get(var)
        if label is None:
            return ("bake", (1, 1))  # auxiliary Tseitin variable
        return ("key", label)

    circuit = traced.map_leaves(relabel)
    _save_circuit(store, store_key, circuit)
    return circuit


def compile_formula(formula, universe=(), persist=None, cache_dir=None,
                    store_key=None, budget=None):
    """Compile an arbitrary propositional formula into a circuit.

    The twin of :func:`~repro.propositional.counter.wmc_formula`: the
    conversion to CNF is shared with the counting path (one memoized
    ``to_cnf`` per ``(formula, universe)``), labels absent from the
    formula but listed in ``universe`` contribute total leaves.
    """
    cnf = cnf_for_formula(formula, universe)
    return compile_cnf(cnf, persist=persist, cache_dir=cache_dir,
                       store_key=store_key, budget=budget)


def compile_lineage(formula, n, vocabulary=None, persist=None,
                    cache_dir=None, budget=None):
    """Compile the lineage of an FO sentence over domain ``[n]``.

    Returns a circuit over ground-atom leaves ``(pred, args)`` whose
    evaluation at the induced atom weights equals
    :func:`~repro.wfomc.bruteforce.wfomc_lineage` at the corresponding
    weighted vocabulary — for *every* weighted vocabulary over the same
    predicates, which is the whole point: one compile serves any number
    of weight vectors.  ``vocabulary`` defaults to the predicates of the
    formula; pass the full vocabulary when atoms outside the formula
    should contribute their unconstrained mass.
    """
    if vocabulary is None:
        arities = predicates_of(formula)
        vocabulary = Vocabulary(Predicate(name, arity)
                                for name, arity in sorted(arities.items()))
    prop = lineage(formula, n)
    universe = tuple(ground_tuples(vocabulary, n))
    store_key = ("lineage", formula, n,
                 vocabulary_signature(vocabulary, ordered=True))
    return compile_formula(prop, universe, persist=persist,
                           cache_dir=cache_dir, store_key=store_key,
                           budget=budget)
