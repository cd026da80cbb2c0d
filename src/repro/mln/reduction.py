"""The MLN -> symmetric WFOMC reduction (Example 1.2).

Every soft constraint ``(w, phi(x))`` is replaced by

* a hard constraint ``forall x (R(x) | phi(x))`` with a fresh relation
  ``R`` of arity ``|x|``, and
* the symmetric weight pair ``(1/(w-1), 1)`` for ``R``.

Why this works (footnote 3 of the paper): where ``phi(a)`` is false,
``R(a)`` is forced true contributing ``1/(w-1)``; where ``phi(a)`` is
true, ``R(a)`` is free, contributing ``1/(w-1) + 1 = w/(w-1)``.  The
ratio between the two cases is ``1 : w`` — exactly the soft constraint's
effect.  For ``w < 1`` the weight ``1/(w-1)`` is negative: the paper's
example of negative weights arising in practice.  ``w = 1`` constraints
are vacuous and dropped; ``w = 0`` yields weight ``-1``.

The reduction is independent of the domain size, and

``Pr_MLN(Phi) = Pr(Phi | Gamma) = WFOMC(Phi & Gamma) / WFOMC(Gamma)``

over the resulting symmetric weighted vocabulary, where ``Gamma``
conjoins all hard constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..logic.syntax import Atom, conj, disj, forall
from ..logic.vocabulary import WeightedVocabulary
from ..options import SolverOptions
from ..weights import WeightPair
from ..wfomc.solver import wfomc

__all__ = ["MLNReduction", "reduction_template", "reduce_to_wfomc",
           "mln_probability_wfomc"]


@dataclass
class MLNReduction:
    """Result of the Example 1.2 reduction.

    Attributes
    ----------
    gamma:
        The conjunction of all hard constraints (original and generated).
    weighted_vocabulary:
        Symmetric weights: ``(1, 1)`` for original relations and
        ``(1/(w-1), 1)`` for the generated ones.
    """

    gamma: object
    weighted_vocabulary: WeightedVocabulary

    def probability(self, query, n, options=None, **legacy):
        """``Pr_MLN(query) = WFOMC(query & gamma) / WFOMC(gamma)``.

        Numerator and denominator are computed over the *same* weighted
        vocabulary (covering any query-only predicates with neutral
        weights), so unconstrained atoms normalize away correctly.
        ``options`` is a :class:`~repro.options.SolverOptions` (legacy
        ``method=``/``workers=``/``persist=``/``cache_dir=`` keywords
        keep working, deprecated) forwarded to
        :func:`~repro.wfomc.solver.wfomc` — with ``persist``, repeated
        queries over one MLN (or a weight sweep re-run in a fresh
        process) are served from the on-disk component cache.
        ``options.compile`` routes both counts through the
        knowledge-compilation fast path.
        """
        opts = SolverOptions.from_kwargs(options, **legacy)
        conditioned = conj(query, self.gamma)
        wv = self._wv_for(conditioned)
        if opts.compile and opts.method != "enumerate":
            from ..compile import compile_wfomc

            num_c = compile_wfomc(conditioned, n, wv.vocabulary,
                                  method=opts.method, budget=opts.budget,
                                  **opts.store_kwargs())
            den_c = compile_wfomc(self.gamma, n, wv.vocabulary,
                                  method=opts.method, budget=opts.budget,
                                  **opts.store_kwargs())
            numerator = num_c.evaluate(wv)
            denominator = den_c.evaluate(wv)
        else:
            numerator = wfomc(conditioned, n, wv, options=opts)
            denominator = wfomc(self.gamma, n, wv, options=opts)
        if denominator == 0:
            raise ZeroDivisionError("the MLN assigns zero weight to every world")
        return numerator / denominator

    def _wv_for(self, formula):
        """The weighted vocabulary extended to cover ``formula``'s symbols.

        Query predicates absent from the MLN get the neutral pair (1, 1).
        """
        from ..logic.syntax import predicates_of

        wv = self.weighted_vocabulary
        arities = predicates_of(formula)
        missing = {
            name: WeightPair(1, 1) for name in arities if name not in wv.vocabulary
        }
        if missing:
            wv = wv.extend(missing, {k: arities[k] for k in missing})
        return wv


def reduction_template(mln, keep_all_soft=False):
    """The weight-independent *shape* of the Example 1.2 reduction.

    Returns ``(gamma, entries, base_wv)``: the hard sentence, one
    ``(constraint, fresh_name, arity)`` entry per reduced soft
    constraint, and the uniform weighted vocabulary over the MLN's own
    predicates.  ``keep_all_soft`` keeps weight-1 constraints in the
    template (they are vacuous and normally dropped) — the weight
    learner needs the template's structure to stay *fixed* while the
    weights move, so it reduces every soft constraint unconditionally.
    """
    wv = WeightedVocabulary.uniform(mln.vocabulary)
    hard_parts = [c.universal_closure() for c in mln.hard_constraints()]

    entries = []
    used_names = set()
    for c in mln.soft_constraints():
        if not keep_all_soft and c.weight == 1:
            continue  # a weight-1 constraint changes nothing
        name = wv.fresh_name("MR")
        while name in used_names:
            name = name + "_"
        used_names.add(name)
        variables = c.free_variables()
        entries.append((c, name, len(variables)))
        witness = Atom(name, variables)
        hard_parts.append(forall(list(variables), disj(witness, c.formula)))

    gamma = conj(*hard_parts)
    return gamma, entries, wv


def reduce_to_wfomc(mln):
    """Apply the Example 1.2 reduction; returns an :class:`MLNReduction`."""
    gamma, entries, wv = reduction_template(mln)
    new_weights = {}
    new_arities = {}
    for constraint, name, arity in entries:
        new_weights[name] = WeightPair(1 / (constraint.weight - 1), 1)
        new_arities[name] = arity
    extended = wv.extend(new_weights, new_arities)
    return MLNReduction(gamma=gamma, weighted_vocabulary=extended)


def mln_probability_wfomc(mln, query, n, options=None, **legacy):
    """``Pr_MLN(query)`` computed through the WFOMC reduction."""
    reduction = reduce_to_wfomc(mln)
    return reduction.probability(
        query, n, options=SolverOptions.from_kwargs(options, **legacy))
