"""The top-level WFOMC solver: routing, result caching, and batch APIs.

``wfomc(formula, n)`` dispatches to the best applicable algorithm:

1. the FO2 lifted algorithm (polynomial in ``n``) when the sentence uses
   at most two distinct variables and predicates of arity at most two;
2. otherwise lineage grounding plus exact DPLL weighted model counting
   (exponential worst case, the best known general-purpose approach — the
   paper proves a general polynomial algorithm is impossible unless
   #P1 is in PTIME).

``method`` can pin a specific algorithm: ``"fo2"``, ``"lineage"``,
``"enumerate"``.

On top of dispatch sit three layers of reuse:

* a bounded LRU **result cache** keyed on ``(formula, n, weights, method)``
  — repeated ``wfomc``/``fomc``/``probability`` calls are free, and the
  grounding layer memoizes lineages so even cache misses at new weights
  reuse the ground formula;
* :func:`wfomc_batch` evaluates one sentence at many domain sizes through
  the shared caches (dispatch is resolved once per domain size, lineage
  and component caches carry over between sizes);
* :func:`wfomc_weight_sweep` evaluates one ``(formula, n)`` instance at
  many weight assignments; when the cardinality grid is small it
  reconstructs the cardinality generating polynomial **once** (cached) via
  :func:`~repro.wfomc.polynomial.wfomc_cardinality_polynomial` and then
  evaluates every weight set by polynomial evaluation, exactly the
  paper's positive-oracle argument.

All of it is per-process; ``persist=True`` (with an optional
``cache_dir=``) additionally reads the component, cardinality-polynomial,
and FO2 cell-table layers through the on-disk store of
:mod:`repro.cache`, so a second process over the same workload
warm-starts from disk with bit-identical results.
"""

from __future__ import annotations

from ..errors import NotFO2Error, UnsupportedFormulaError
from ..grounding.lineage import clear_grounding_caches, grounding_cache_stats
from ..logic.syntax import num_variables
from ..logic.vocabulary import WeightedVocabulary
from ..obs import span
from ..options import SolverOptions
from ..utils import LRUCache, vocabulary_signature, weights_signature
from .bruteforce import wfomc_enumerate, wfomc_lineage
from .fo2 import clear_fo2_caches, fo2_cache_stats, wfomc_fo2
from .polynomial import (
    evaluate_cardinality_polynomial,
    wfomc_cardinality_polynomial,
)

__all__ = [
    "wfomc",
    "fomc",
    "probability",
    "wfomc_batch",
    "wfomc_weight_sweep",
    "solver_cache_stats",
    "clear_solver_caches",
]

_METHODS = ("auto", "fo2", "lineage", "enumerate")

#: Cached final results are single Fractions, so the cache can be large.
_RESULT_CACHE = LRUCache(maxsize=4096)
#: Cardinality-coefficient tables are dicts of size at most the grid.
_POLYNOMIAL_CACHE = LRUCache(maxsize=64)

#: A weight sweep uses the cardinality polynomial when the interpolation
#: grid (the number of positive-weight oracle calls needed) is at most
#: this multiple of the number of requested weight sets.
_SWEEP_GRID_FACTOR = 4


def solver_cache_stats():
    """Hit/miss statistics for every cache a solver call can touch.

    One consistent view: the solver-level result and cardinality-polynomial
    caches, both FO2 layers (weight-independent cell structures and
    weighted decompositions), and the grounding-layer lineage/universe
    caches, each as ``{entries, hits, misses, hit_rate}``.
    """
    grounding = grounding_cache_stats()
    fo2 = fo2_cache_stats()
    return {
        "results": _RESULT_CACHE.stats(),
        "polynomials": _POLYNOMIAL_CACHE.stats(),
        "fo2_structures": fo2["structures"],
        "fo2_decompositions": fo2["decompositions"],
        "lineages": grounding["lineage"],
        "universes": grounding["universe"],
    }


def clear_solver_caches():
    """Drop every cache :func:`solver_cache_stats` reports: dispatch
    results, cardinality polynomials, FO2 decompositions, and the
    grounding-layer lineage/universe caches."""
    _RESULT_CACHE.clear()
    _POLYNOMIAL_CACHE.clear()
    clear_fo2_caches()
    clear_grounding_caches()


def wfomc(formula, n, weighted_vocabulary=None, options=None, **legacy):
    """Symmetric weighted first-order model count of a sentence.

    Parameters
    ----------
    formula:
        An FO sentence (no free variables); build it with the
        :mod:`repro.logic` constructors or :func:`repro.logic.parse`.
    n:
        Domain size; the domain is ``{1, ..., n}``.
    weighted_vocabulary:
        A :class:`~repro.logic.vocabulary.WeightedVocabulary`; defaults to
        the unweighted vocabulary of the formula (plain model counting).
    options:
        A :class:`~repro.options.SolverOptions` carrying every knob
        (method, workers, engine search knobs, persistence, compilation)
        — or a bare method string as shorthand.
        Legacy keyword arguments (``method=``, ``workers=``,
        ``branching=``, ``learn=``, ``max_learned=``, ``persist=``,
        ``cache_dir=``, ``phase_saving=``) keep working through
        :meth:`~repro.options.SolverOptions.from_kwargs` and override
        the corresponding ``options`` fields; the keyword style is
        deprecated in favor of ``options=SolverOptions(...)``.

    Returns an exact :class:`~fractions.Fraction` (an ``int``-valued one
    for integer weights).  Results are cached on
    ``(formula, n, weights, method)``.
    """
    opts = SolverOptions.from_kwargs(options, **legacy)
    wv = weighted_vocabulary or WeightedVocabulary.counting(formula)

    key = (formula, n, weights_signature(wv), opts.method)
    cached = _RESULT_CACHE.get(key)
    if cached is not None:
        return cached

    with span("wfomc", cat="solver", n=n, method=opts.method):
        result = _dispatch(formula, n, wv, opts)
    _RESULT_CACHE.put(key, result)
    return result


def _dispatch(formula, n, wv, opts):
    """Route one instance to the best applicable algorithm.

    Takes the whole :class:`~repro.options.SolverOptions` — the single
    object threaded from every entry point down to the counting layers.
    """
    method = opts.method
    if method == "fo2":
        return wfomc_fo2(formula, n, wv, budget=opts.budget,
                         **opts.store_kwargs())
    if method == "lineage":
        return wfomc_lineage(formula, n, wv, options=opts)
    if method == "enumerate":
        return wfomc_enumerate(formula, n, wv)

    fo2_applicable = num_variables(formula) <= 2 and all(
        p.arity <= 2 for p in wv.vocabulary
    )
    if fo2_applicable:
        try:
            return wfomc_fo2(formula, n, wv, budget=opts.budget,
                             **opts.store_kwargs())
        except NotFO2Error:
            pass
    return wfomc_lineage(formula, n, wv, options=opts)


def fomc(formula, n, options=None, **legacy):
    """Unweighted first-order model count (all weights ``(1, 1)``)."""
    result = wfomc(formula, n, options=options, **legacy)
    assert result.denominator == 1
    return int(result)


def probability(formula, n, weighted_vocabulary=None, options=None, **legacy):
    """Probability of the sentence in the induced distribution.

    ``Pr(Phi) = WFOMC(Phi, n, w, wbar) / WFOMC(true, n, w, wbar)`` — each
    tuple of relation ``R`` is present independently with probability
    ``w_R / (w_R + wbar_R)``.

    ``options.compile`` serves the numerator from the
    knowledge-compilation fast path
    (:func:`repro.compile.compile_wfomc`): the count structure is
    compiled into an arithmetic circuit once per ``(formula, n)`` and
    repeated queries at different weights are circuit evaluations,
    bit-identical to the direct path.

    Raises :class:`~repro.errors.UnsupportedFormulaError` when the
    normalization constant is zero (e.g. Skolem weights ``(1, -1)``).
    """
    opts = SolverOptions.from_kwargs(options, **legacy)
    wv = weighted_vocabulary or WeightedVocabulary.counting(formula)
    if opts.compile and opts.method != "enumerate":
        from ..compile import compile_wfomc

        compiled = compile_wfomc(formula, n, wv.vocabulary,
                                 method=opts.method, budget=opts.budget,
                                 **opts.store_kwargs())
        numerator = compiled.evaluate(wv)
    else:
        numerator = wfomc(formula, n, wv, options=opts)
    denominator = wv.total_world_weight(n)
    if denominator == 0:
        raise UnsupportedFormulaError(
            "total world weight is zero; the weights have no probabilistic reading"
        )
    return numerator / denominator


def wfomc_batch(formula, ns, weighted_vocabulary=None, options=None, **legacy):
    """WFOMC of one sentence at many domain sizes.

    Returns ``{n: WFOMC(formula, n)}``.  All sizes flow through the shared
    caches: the dispatch decision and weights signature are computed once,
    repeated sizes are deduplicated, and the lineage, ground-atom-universe,
    component, and FO2 cell-decomposition caches are shared across sizes,
    so a batch is substantially cheaper than independent :func:`wfomc`
    calls on a cold cache.

    ``options.compile`` routes every size through the
    knowledge-compilation fast path: each distinct ``(formula, n)``
    instance is compiled **once per call** — a local registry pins the
    compiled circuits for the duration of the batch, so neither repeated
    sizes nor LRU eviction mid-batch re-triggers compilation — and
    evaluated at the requested weights.  Re-running the batch at new
    weights then costs one circuit evaluation per size.
    """
    opts = SolverOptions.from_kwargs(options, **legacy)
    wv = weighted_vocabulary or WeightedVocabulary.counting(formula)
    signature = weights_signature(wv)

    if opts.compile and opts.method != "enumerate":
        from ..compile import compile_wfomc

        registry = {}
        results = {}
        for n in ns:
            if n in results:
                continue
            compiled = registry.get(n)
            if compiled is None:
                compiled = compile_wfomc(formula, n, wv.vocabulary,
                                         method=opts.method,
                                         budget=opts.budget,
                                         **opts.store_kwargs())
                registry[n] = compiled
            results[n] = compiled.evaluate(wv)
        return results

    results = {}
    for n in ns:
        if n in results:
            continue
        key = (formula, n, signature, opts.method)
        cached = _RESULT_CACHE.get(key)
        if cached is None:
            cached = _dispatch(formula, n, wv, opts)
            _RESULT_CACHE.put(key, cached)
        results[n] = cached
    return results


def _cardinality_grid_size(vocabulary, n):
    size = 1
    for p in vocabulary:
        size *= n ** p.arity + 1
    return size


def wfomc_weight_sweep(formula, n, weight_vocabularies, options=None,
                       via_polynomial=None, **legacy):
    """WFOMC of one ``(formula, n)`` instance at many weight assignments.

    ``weight_vocabularies`` is an iterable of
    :class:`~repro.logic.vocabulary.WeightedVocabulary` over the same
    vocabulary; the result is the list of counts in input order.

    When ``via_polynomial`` is true (or ``None`` and the interpolation
    grid is small relative to the number of weight sets), the cardinality
    generating polynomial of the instance is reconstructed once — from
    positive-weight oracle calls only, per the paper's Section 2 argument
    — cached, and evaluated at every weight set, negative weights
    included.  Otherwise each weight set is dispatched individually.

    ``options.compile`` takes a third route: the instance is compiled
    once into an arithmetic circuit (:mod:`repro.compile`) and the whole
    sweep — zeros and negatives included — is served by
    :meth:`~repro.compile.CompiledWFOMC.evaluate_many`, one staged pass
    over the circuit for all K weight sets, bit-identical to the
    dispatch path.  Unlike the cardinality polynomial, the circuit route
    needs no positive-weight oracle grid, so it amortizes even when the
    grid is large.

    Either way every evaluation flows through the shared caches — the
    memoized lineage and ground-atom universe of ``(formula, n)`` are
    built once and reused by all weight sets (and all oracle calls), and
    :func:`solver_cache_stats` reports the reuse.  With ``persist``, the
    reconstructed coefficient table, every component count, and the
    compiled circuit read through to the on-disk store, which is what
    turns a repeated sweep in a fresh process from recompute-everything
    into warm-start serving.
    """
    opts = SolverOptions.from_kwargs(options, **legacy)
    weight_vocabularies = list(weight_vocabularies)
    if not weight_vocabularies:
        return []
    vocabulary = weight_vocabularies[0].vocabulary

    if opts.compile and opts.method != "enumerate":
        # The knowledge-compilation fast path: trace the count structure
        # into an arithmetic circuit once (cached across calls and, with
        # ``persist``, across processes) and serve every weight set from
        # one staged pass over it.
        from ..compile import compile_wfomc

        compiled = compile_wfomc(formula, n, vocabulary, method=opts.method,
                                 budget=opts.budget, **opts.store_kwargs())
        with span("weight_sweep", cat="solver", route="compiled", n=n,
                  k=len(weight_vocabularies)):
            return compiled.evaluate_many(weight_vocabularies)

    if via_polynomial is None:
        grid = _cardinality_grid_size(vocabulary, n)
        via_polynomial = grid <= _SWEEP_GRID_FACTOR * len(weight_vocabularies)

    if not via_polynomial:
        with span("weight_sweep", cat="solver", route="dispatch", n=n,
                  k=len(weight_vocabularies)):
            return [wfomc(formula, n, wv, options=opts)
                    for wv in weight_vocabularies]

    # Coefficient vectors are ordered by this vocabulary's iteration
    # order, so the key must be order-*sensitive*: the same predicates in
    # a different order must not share an entry.
    key = (formula, n, vocabulary_signature(vocabulary, ordered=True),
           opts.method)
    coefficients = _POLYNOMIAL_CACHE.get(key)
    store = None
    if coefficients is None and opts.persist:
        from ..cache import open_store

        store = open_store(opts.cache_dir)
        coefficients = store.get("polynomials", key)
        if coefficients is not None:
            _POLYNOMIAL_CACHE.put(key, coefficients)
    if coefficients is None:
        with span("cardinality_polynomial", cat="solver", n=n):
            coefficients = wfomc_cardinality_polynomial(
                formula,
                n,
                vocabulary,
                lambda f, size, wv: wfomc(f, size, wv, options=opts),
            )
        _POLYNOMIAL_CACHE.put(key, coefficients)
        if store is not None and not store.disabled:
            store.put("polynomials", key, coefficients)
    # Coefficient vectors are ordered by the first vocabulary's predicate
    # order; rebase every weight set onto that vocabulary object so the
    # evaluation order always matches.
    return [
        evaluate_cardinality_polynomial(
            coefficients,
            n,
            WeightedVocabulary(
                vocabulary, {p.name: wv.weight(p.name) for p in vocabulary}
            ),
        )
        for wv in weight_vocabularies
    ]
