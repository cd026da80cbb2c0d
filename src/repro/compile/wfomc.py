"""Compiling whole WFOMC instances: one circuit, many weight vectors.

:func:`compile_wfomc` dispatches like the solver — the FO2 cell
decomposition when the sentence admits it, lineage grounding plus the
engine's trace mode otherwise — and returns a :class:`CompiledWFOMC`
that evaluates (and differentiates) the symmetric WFOMC of the instance
at any :class:`~repro.logic.vocabulary.WeightedVocabulary` over the same
predicates.  This is the amortization the paper's symmetric setting
invites: the count *structure* is weight-independent, so the expensive
object is built once and every weight vector costs one linear circuit
pass.

The FO2 path compiles the cell decomposition symbolically: cell weights
``u_k`` become products of per-predicate leaves, 2-table weights
``r_kl`` sums over the structure's satisfying patterns, and the
distribution recursion unrolls (memoized on node ids, over every cell
rather than the numeric route's weight-dependent classes) into a
polynomial-size circuit in ``n``.  The expensive cell/2-table
enumeration lives in the shared weight-independent
:class:`~repro.wfomc.fo2.FO2CellStructure`, so per-cell subcircuits are
compiled once per structure and reused across domain sizes, weight
functions, and (with ``persist``) processes.

Gradients are per *predicate*: the circuit's reverse pass yields
per-leaf adjoints, which the lineage path aggregates over all ground
atoms of a predicate — exactly ``d WFOMC / d (w_R, wbar_R)``, the
quantity MLN weight learning needs (:mod:`repro.mln.learning`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ..errors import NotFO2Error
from ..logic.scott import scott_normalize, skolemize_scott
from ..logic.syntax import num_variables, predicates_of
from ..logic.vocabulary import Predicate, Vocabulary, WeightedVocabulary
from ..obs import span
from ..utils import LRUCache, binomial, check_domain_size, vocabulary_signature
from ..wfomc.fo2 import _STRUCTURE_CACHE, FO2CellStructure, _combine_universal
from .circuit import CIRCUIT_FORMAT, Circuit, CircuitBuilder
from .trace import CIRCUITS_NS, _store_for, compile_lineage

__all__ = ["CompiledWFOMC", "compile_wfomc", "compile_stats",
           "clear_compile_cache"]

_METHODS = ("auto", "fo2", "lineage")

#: Compiled instances keyed on (formula, n, ordered vocabulary
#: signature, method); a CompiledWFOMC is a pure function of that key.
_COMPILED_CACHE = LRUCache(maxsize=64)

_COMPILE_COUNTERS = {"compiled": 0, "compile_store_hits": 0,
                     "evaluations": 0, "gradients": 0}


def compile_stats():
    """Counters and cache statistics of the compilation layer."""
    stats = dict(_COMPILE_COUNTERS)
    stats["circuits"] = _COMPILED_CACHE.stats()
    return stats


def clear_compile_cache():
    """Drop compiled instances and zero the compilation counters."""
    _COMPILED_CACHE.clear()
    for name in _COMPILE_COUNTERS:
        _COMPILE_COUNTERS[name] = 0


class CompiledWFOMC:
    """A WFOMC instance compiled to an arithmetic circuit.

    ``kind`` is ``"fo2"`` (leaves are predicate names; ``fixed_pairs``
    carries the Scott/Skolem symbols' constant weight pairs) or
    ``"lineage"`` (leaves are ground-atom labels ``(pred, args)``).
    :meth:`evaluate` and :meth:`gradient` accept any weighted vocabulary
    over the instance's predicates and are bit-identical to direct
    counting at the same weights.
    """

    __slots__ = ("formula", "n", "kind", "circuit", "fixed_pairs")

    def __init__(self, formula, n, kind, circuit, fixed_pairs=None):
        self.formula = formula
        self.n = n
        self.kind = kind
        self.circuit = circuit
        self.fixed_pairs = fixed_pairs or {}

    def _pair_fn(self, weighted_vocabulary):
        if self.kind == "fo2":
            fixed = self.fixed_pairs

            def pair_of(name):
                pair = fixed.get(name)
                if pair is not None:
                    return pair
                pair = weighted_vocabulary.weight(name)
                return (pair.w, pair.wbar)

            return pair_of

        # Lineage leaves are ground atoms (pred, args) but symmetric
        # weights depend on the predicate alone — memoize per name so a
        # batch over many atoms pays one lookup per predicate.
        by_name = {}

        def pair_of(label):
            name = label[0]
            pair = by_name.get(name)
            if pair is None:
                wp = weighted_vocabulary.weight(name)
                pair = by_name[name] = (wp.w, wp.wbar)
            return pair

        return pair_of

    def evaluate(self, weighted_vocabulary, backend=None, store=None):
        """``WFOMC(formula, n)`` at the given weights.

        Exact (:class:`Fraction`) under the default backend; ``backend``
        selects an evaluation backend by name or instance (see
        :mod:`repro.compile.backends` — the exact backends are
        bit-identical, ``"float"`` returns a float with automatic exact
        fallback).  ``store`` lets the codegen backend persist its
        generated source next to the circuit.
        """
        _COMPILE_COUNTERS["evaluations"] += 1
        return self.circuit.evaluate(self._pair_fn(weighted_vocabulary),
                                     backend=backend, store=store)

    def evaluate_many(self, weight_vocabularies, backend=None, store=None):
        """Counts for many weighted vocabularies, in input order.

        The batched/codegen backends serve the whole batch in one
        staged pass over the circuit — the sweep-serving fast path.
        """
        pair_fns = [self._pair_fn(wv) for wv in weight_vocabularies]
        _COMPILE_COUNTERS["evaluations"] += len(pair_fns)
        with span("evaluate_many", cat="compile", n=self.n,
                  k=len(pair_fns), backend=backend or "exact"):
            if backend is None:
                return [self.circuit.evaluate(pf) for pf in pair_fns]
            from .backends import get_backend
            return get_backend(backend).evaluate_many(self.circuit, pair_fns,
                                                      store=store)

    def evaluate_batch(self, weight_vocabularies):
        """Deprecated alias of :meth:`evaluate_many` (exact backend)."""
        return self.evaluate_many(weight_vocabularies)

    def gradient(self, weighted_vocabulary):
        """``(value, {pred: (d/dw, d/dwbar)})`` at the given weights.

        Lineage leaves aggregate over all ground atoms of a predicate,
        so the gradient is with respect to the *symmetric* pair the
        predicate carries; Scott/Skolem symbols of the FO2 path (whose
        pairs are fixed by the reduction) are excluded.
        """
        _COMPILE_COUNTERS["gradients"] += 1
        value, leaf_grads = self.circuit.gradient(
            self._pair_fn(weighted_vocabulary))
        grads = {p.name: (Fraction(0), Fraction(0))
                 for p in weighted_vocabulary.vocabulary}
        for key, (gw, gwbar) in leaf_grads.items():
            name = key if self.kind == "fo2" else key[0]
            entry = grads.get(name)
            if entry is not None:
                grads[name] = (entry[0] + gw, entry[1] + gwbar)
        return value, grads

    def stats(self):
        """The underlying circuit's size/shape statistics."""
        stats = self.circuit.stats()
        stats["kind"] = self.kind
        return stats

    def __repr__(self):
        return "CompiledWFOMC(n={}, kind={}, nodes={})".format(
            self.n, self.kind, len(self.circuit))


# -- the FO2 cell-decomposition compiler -------------------------------------


def _compile_fo2(formula, n, vocabulary, store=None, budget=None):
    """Circuit + fixed fresh-symbol pairs for an FO2 sentence, n >= 1."""
    if num_variables(formula) > 2:
        raise NotFO2Error(
            "sentence uses {} distinct variables; FO2 allows at most 2".format(
                num_variables(formula)))
    for pred in vocabulary:
        if pred.arity > 2:
            raise NotFO2Error(
                "predicate {} has arity {}; the FO2 compiler requires "
                "arity at most 2".format(pred.name, pred.arity))

    wv = WeightedVocabulary.uniform(vocabulary)
    sentences, wv1 = scott_normalize(formula, wv)
    universal, wv2 = skolemize_scott(sentences, wv1)
    matrix = _combine_universal(universal)
    structure = _STRUCTURE_CACHE.get(matrix)
    if structure is None:
        structure = FO2CellStructure(matrix, wv2.vocabulary)
        _STRUCTURE_CACHE.put(matrix, structure)
    structure.store = store

    builder = CircuitBuilder()
    zero_preds = structure.zero_preds
    terms = []
    for bits in itertools.product((False, True), repeat=len(zero_preds)):
        zero_assignment = dict(zip(zero_preds, bits))
        zero_key = tuple(sorted(zero_assignment.items()))
        cells, satisfying = structure.tables(zero_key, zero_assignment,
                                             budget=budget)
        factors = [builder.lit(name, bit)
                   for name, bit in zip(zero_preds, bits)]
        factors.append(_compile_cells(builder, structure, cells,
                                      satisfying, n, budget=budget))
        terms.append(builder.times(factors))
    total = builder.plus(terms)

    # Predicates the matrix never mentions are unconstrained: full mass.
    unconstrained = []
    for pred, _pair in wv2.items():
        if pred.name not in structure.matrix_preds:
            unconstrained.append(
                builder.pow(builder.tot(pred.name), n ** pred.arity))
    if unconstrained:
        total = builder.times([total] + unconstrained)
    circuit = builder.build(total)

    user_names = {p.name for p in vocabulary}
    fixed_pairs = {}
    for pred, pair in wv2.items():
        if pred.name not in user_names:
            fixed_pairs[pred.name] = (pair.w, pair.wbar)
    return circuit, fixed_pairs


def _compile_cells(builder, structure, cells, satisfying, n, budget=None):
    """The distribution recursion of one zero-ary assignment, as nodes.

    Keeps the ungrouped recursion over every cell:
    :meth:`repro.wfomc.fo2.FO2CellDecomposition.run` merges cells whose
    ``r`` rows are numerically equal, but a circuit must not depend on
    the weights it is later evaluated at.  The memo keys on node ids,
    which hash-consing makes canonical, so the circuit has one node per
    distinct numeric subproblem.  Structurally-zero branches (a cell
    pair with no satisfying 2-table) are pruned — that pruning is
    weight-independent, so the circuit stays correct for every weight
    assignment.
    """
    k_cells = len(cells)
    if k_cells == 0:
        return builder.const(0 if n > 0 else 1)
    type_slots = structure.type_slots
    cell_w = [
        builder.times([builder.lit(name, bit)
                       for (name, _kind), bit in zip(type_slots, cell_bits)])
        for cell_bits in cells
    ]
    off_diag = structure.off_diag_labels
    r = [[None] * k_cells for _ in range(k_cells)]
    for k in range(k_cells):
        for l in range(k_cells):
            patterns = [
                builder.times([builder.lit(name, bit)
                               for (name, _args), bit in zip(off_diag, bits)])
                for bits in satisfying[k][l]
            ]
            r[k][l] = builder.plus(patterns)

    memo = {}
    last = k_cells - 1

    def suffix(k, remaining, pending):
        if budget is not None:
            budget.tick()
        key = (k, remaining, pending)
        value = memo.get(key)
        if value is not None:
            return value
        rk = r[k]
        if k == last:
            value = builder.times([
                builder.pow(cell_w[k], remaining),
                builder.pow(rk[k], binomial(remaining, 2)),
                builder.pow(pending[0], remaining),
            ])
        else:
            terms = []
            for nk in range(remaining + 1):
                term = builder.times([
                    builder.const(binomial(remaining, nk)),
                    builder.pow(cell_w[k], nk),
                    builder.pow(rk[k], binomial(nk, 2)),
                    builder.pow(pending[0], nk),
                ])
                if builder.is_zero(term):
                    continue
                if nk:
                    new_pending = tuple(
                        builder.times([pending[l - k],
                                       builder.pow(rk[l], nk)])
                        for l in range(k + 1, k_cells)
                    )
                else:
                    new_pending = pending[1:]
                terms.append(builder.times(
                    [term, suffix(k + 1, remaining - nk, new_pending)]))
            value = builder.plus(terms)
        memo[key] = value
        return value

    one = builder.const(1)
    return suffix(0, n, (one,) * k_cells)


# -- dispatch, caching, persistence ------------------------------------------


def _fo2_applicable(formula, vocabulary, n):
    return (n > 0 and num_variables(formula) <= 2
            and all(p.arity <= 2 for p in vocabulary))


def compile_wfomc(formula, n, vocabulary=None, method="auto", persist=None,
                  cache_dir=None, budget=None):
    """Compile one ``(formula, n)`` WFOMC instance into a circuit.

    ``vocabulary`` is a plain (unweighted)
    :class:`~repro.logic.vocabulary.Vocabulary` — compilation is
    weight-independent by construction; it defaults to the predicates of
    the formula.  ``method`` is ``"auto"`` (FO2 when applicable, else
    lineage), ``"fo2"``, or ``"lineage"``.  Results are cached in
    memory and, with ``persist``, serialized to the ``circuits``
    namespace of the on-disk store, keyed on the weight-independent
    instance identity — a fresh process re-serving a sweep deserializes
    instead of re-tracing the search.
    """
    if method not in _METHODS:
        raise ValueError("unknown method {!r}; expected one of {}".format(
            method, _METHODS))
    check_domain_size(n)
    if vocabulary is None:
        arities = predicates_of(formula)
        vocabulary = Vocabulary(Predicate(name, arity)
                                for name, arity in sorted(arities.items()))

    signature = vocabulary_signature(vocabulary, ordered=True)
    cache_key = (formula, n, signature, method)
    store_key = ("wfomc", formula, n, signature, method)
    compiled = _COMPILED_CACHE.get(cache_key)
    if compiled is not None:
        # A memory hit must still honor an explicit persist request: the
        # cached circuit may predate it (compiled without a store).
        store = _store_for(persist, cache_dir)
        if store is not None and store.get(CIRCUITS_NS, store_key) is None:
            store.put(CIRCUITS_NS, store_key, _encode_compiled(compiled))
        return compiled

    store = _store_for(persist, cache_dir)
    if store is not None:
        payload = store.get(CIRCUITS_NS, store_key)
        compiled = _decode_compiled(payload, formula, n)
        if compiled is not None:
            _COMPILE_COUNTERS["compile_store_hits"] += 1
            _COMPILED_CACHE.put(cache_key, compiled)
            return compiled

    with span("compile_wfomc", cat="compile", n=n, method=method):
        if method == "fo2":
            if n == 0:
                # Scott/Skolem prenexing assumes a nonempty domain; the
                # trivial instance compiles through the (empty) lineage.
                circuit = compile_lineage(formula, n, vocabulary,
                                          persist=persist,
                                          cache_dir=cache_dir,
                                          budget=budget)
                compiled = CompiledWFOMC(formula, n, "lineage", circuit)
            else:
                circuit, fixed = _compile_fo2(formula, n, vocabulary,
                                              store=store, budget=budget)
                compiled = CompiledWFOMC(formula, n, "fo2", circuit, fixed)
        elif method == "auto" and _fo2_applicable(formula, vocabulary, n):
            try:
                circuit, fixed = _compile_fo2(formula, n, vocabulary,
                                              store=store, budget=budget)
                compiled = CompiledWFOMC(formula, n, "fo2", circuit, fixed)
            except NotFO2Error:
                compiled = None
        else:
            compiled = None
        if compiled is None:
            circuit = compile_lineage(formula, n, vocabulary, persist=persist,
                                      cache_dir=cache_dir, budget=budget)
            compiled = CompiledWFOMC(formula, n, "lineage", circuit)

    _COMPILE_COUNTERS["compiled"] += 1
    _COMPILED_CACHE.put(cache_key, compiled)
    if store is not None:
        store.put(CIRCUITS_NS, store_key, _encode_compiled(compiled))
    return compiled


def _encode_compiled(compiled):
    fixed = tuple(sorted(
        (name, pair[0], pair[1])
        for name, pair in compiled.fixed_pairs.items()))
    return ("cwfomc", CIRCUIT_FORMAT, compiled.kind, fixed,
            compiled.circuit.to_payload())


def _decode_compiled(payload, formula, n):
    try:
        tag, version, kind, fixed, circuit_payload = payload
        if tag != "cwfomc" or version != CIRCUIT_FORMAT:
            return None
        if kind not in ("fo2", "lineage"):
            return None
        circuit = Circuit.from_payload(circuit_payload)
        if circuit is None:
            return None
        fixed_pairs = {name: (w, wbar) for name, w, wbar in fixed}
        return CompiledWFOMC(formula, n, kind, circuit, fixed_pairs)
    except (TypeError, ValueError):
        return None
