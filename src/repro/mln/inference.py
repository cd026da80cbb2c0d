"""Exact MLN inference: the serving path and the enumeration baseline.

:func:`mln_probability` is the production entry point: it routes a query
through the Example 1.2 WFOMC reduction (lifted FO2 algorithm or
grounded CDCL counting, both exact) and accepts the full solver knob set
— ``workers`` for parallel component counting and ``persist``/
``cache_dir`` for the disk-backed cache of :mod:`repro.cache`, so
repeated queries and MLN weight sweeps re-run in fresh processes
warm-start from disk.  :func:`mln_query_sweep` evaluates one query under
many MLN weightings through the shared caches.

The ``*_bruteforce`` functions enumerate all worlds —
``Pr_MLN(Phi) = W(Phi) / W(true)`` where ``W(Phi)`` sums the MLN weight
of every world satisfying ``Phi`` and all hard constraints.  Exponential;
they validate the reduction on small domains.
"""

from __future__ import annotations

from fractions import Fraction

from ..grounding.structures import all_structures
from ..logic.evaluate import evaluate
from ..options import SolverOptions
from ..utils import check_domain_size

__all__ = [
    "mln_probability",
    "mln_query_sweep",
    "mln_partition_bruteforce",
    "mln_probability_bruteforce",
]


def mln_probability(mln, query, n, options=None, **legacy):
    """Exact ``Pr_MLN(query)`` over domain ``[n]`` via the WFOMC reduction.

    The scalable inference path: polynomial in ``n`` whenever the reduced
    sentence is FO2, exact CDCL counting otherwise.  ``options`` is a
    :class:`~repro.options.SolverOptions` (legacy ``method=``/
    ``workers=``/``persist=``/``cache_dir=`` keywords keep working,
    deprecated).  ``workers`` counts independent lineage components on a
    process pool; ``persist``/``cache_dir`` serve repeated queries from
    the persistent on-disk cache (results are bit-identical either way).
    """
    from .reduction import mln_probability_wfomc

    return mln_probability_wfomc(
        mln, query, n, options=SolverOptions.from_kwargs(options, **legacy))


def mln_query_sweep(mlns, query, n, options=None, **legacy):
    """``Pr_MLN(query)`` for each MLN in ``mlns`` (a weight sweep).

    The MLNs typically share their structure and differ only in soft
    weights — the shape of tuning a model.  Every evaluation flows
    through the shared lineage/component caches, and with ``persist``
    the component values survive the process, so re-running a sweep
    (or extending it with new weights) warm-starts from disk.

    ``options.compile`` serves the whole sweep from two compiled
    circuits: when every MLN shares one reduction structure (the
    Example 1.2 template with all soft constraints reduced),
    ``WFOMC(query & Gamma)`` and ``WFOMC(Gamma)`` are compiled once and
    all weightings are evaluated by
    :meth:`~repro.compile.CompiledWFOMC.evaluate_many`, one staged pass
    per circuit.  Sweeps whose MLNs differ structurally —
    or contain a weight-1 soft constraint, the pole of the frozen
    reduction — fall back to the per-MLN loop automatically.
    """
    opts = SolverOptions.from_kwargs(options, **legacy)
    mlns = list(mlns)
    if not mlns:
        return []
    if opts.compile and opts.method != "enumerate":
        shared = _compiled_query_sweep(mlns, query, n, opts)
        if shared is not None:
            return shared
    return [mln_probability(mln, query, n, options=opts) for mln in mlns]


def _compiled_query_sweep(mlns, query, n, opts):
    """Serve a structure-sharing sweep from two compiled circuits.

    Returns ``None`` when the sweep cannot take the shared route (MLN
    structures differ, or some soft weight sits on the ``w = 1`` pole of
    the frozen reduction template) — the caller falls back to the
    per-MLN path, which handles both.
    """
    from ..logic.syntax import conj, predicates_of
    from ..weights import WeightPair
    from .reduction import reduction_template

    templates = [reduction_template(mln, keep_all_soft=True) for mln in mlns]
    gamma, entries, base_wv = templates[0]
    shape = (gamma, [(name, arity) for _c, name, arity in entries])
    for g, e, _base in templates[1:]:
        if (g, [(name, arity) for _c, name, arity in e]) != shape:
            return None
    for _g, e, _base in templates:
        if any(c.weight == 1 for c, _name, _arity in e):
            return None

    conditioned = conj(query, gamma)
    arities = predicates_of(conditioned)
    vocabularies = []
    for _g, e, base in templates:
        new_weights = {name: WeightPair(1 / (c.weight - 1), 1)
                       for c, name, _arity in e}
        new_arities = {name: arity for _c, name, arity in e}
        wv = base.extend(new_weights, new_arities)
        missing = {name: WeightPair(1, 1)
                   for name in arities if name not in wv.vocabulary}
        if missing:
            wv = wv.extend(missing, {k: arities[k] for k in missing})
        vocabularies.append(wv)

    from ..compile import compile_wfomc

    vocabulary = vocabularies[0].vocabulary
    num_c = compile_wfomc(conditioned, n, vocabulary, method=opts.method,
                          budget=opts.budget, **opts.store_kwargs())
    den_c = compile_wfomc(gamma, n, vocabulary, method=opts.method,
                          budget=opts.budget, **opts.store_kwargs())
    numerators = num_c.evaluate_many(vocabularies)
    denominators = den_c.evaluate_many(vocabularies)
    results = []
    for numerator, denominator in zip(numerators, denominators):
        if denominator == 0:
            raise ZeroDivisionError(
                "the MLN assigns zero weight to every world")
        results.append(numerator / denominator)
    return results


def mln_partition_bruteforce(mln, n):
    """``W(true)``: the MLN partition function over domain ``[n]``."""
    check_domain_size(n)
    total = Fraction(0)
    for structure in all_structures(mln.vocabulary, n):
        total += mln.world_weight(structure)
    return total


def mln_probability_bruteforce(mln, query, n):
    """``Pr_MLN(query)`` over domain ``[n]`` by enumerating all worlds."""
    check_domain_size(n)
    numerator = Fraction(0)
    denominator = Fraction(0)
    for structure in all_structures(mln.vocabulary, n):
        weight = mln.world_weight(structure)
        if weight == 0:
            continue
        denominator += weight
        if evaluate(query, structure):
            numerator += weight
    if denominator == 0:
        raise ZeroDivisionError("the MLN assigns zero weight to every world")
    return numerator / denominator
