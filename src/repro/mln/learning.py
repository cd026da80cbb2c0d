"""Gradient-based MLN weight learning on compiled circuits.

The new workload the knowledge-compilation subsystem unlocks: given an
MLN whose soft weights are *initial guesses* and a set of (possibly
weighted) observed worlds, :func:`mln_weight_learn` runs exact-rational
gradient ascent on the average log-likelihood

``L(w) = sum_i (c_i / W) * log(w_i)  -  log Z(w)``

where ``c_i`` is the (weighted) number of satisfied groundings of soft
constraint ``i`` in the data, ``W`` the total observation weight, and
``Z`` the partition function.  The gradient of ``log Z`` is the
expected-counts term of standard MLN learning; here it is computed
*exactly* from one arithmetic circuit:

* the Example 1.2 reduction is applied once with its structure frozen
  (:func:`~repro.mln.reduction.reduction_template` with
  ``keep_all_soft=True``), giving a hard sentence ``Gamma`` and one
  fresh relation ``R_i`` per soft constraint with symbolic weight
  ``u_i = 1 / (w_i - 1)``;
* ``G(u) = WFOMC(Gamma, n, u)`` is compiled into a circuit
  (:func:`repro.compile.compile_wfomc`) — the expensive object, built
  once for the whole ascent;
* ``Z(w) = G(u(w)) * prod_i (w_i - 1)^{n^{a_i}}`` (footnote 3 of the
  paper), so by the chain rule

  ``d log Z / d w_i = (dG/du_i / G) * (-1 / (w_i - 1)^2)
  + n^{a_i} / (w_i - 1)``

  with ``dG/du_i`` read off the circuit's reverse-mode gradient.

Every step is a Fraction computation; a ``limit_denominator``
rationalization keeps the iterates tame without ever leaving exact
arithmetic on the counting side.  The reduction has a pole at
``w_i = 1`` (the likelihood itself is smooth there, but ``u_i``
diverges), so iterates are clamped to stay on their initial side of 1;
start above 1 to learn attractive constraints, below for repulsive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from ..logic.syntax import predicates_of
from ..logic.vocabulary import Predicate, Vocabulary, WeightedVocabulary
from ..options import SolverOptions
from ..utils import as_fraction
from ..weights import WeightPair
from .model import MLN
from .reduction import reduction_template

__all__ = [
    "MLNLearnResult",
    "mln_weight_learn",
    "mln_likelihood_gradient",
    "mln_average_log_likelihood",
]

#: Iterates keep at least this margin away from the reduction pole at
#: ``w = 1`` and from 0.
_POLE_MARGIN = Fraction(1, 1000)

#: Denominator bound applied to iterates between steps (the counting
#: arithmetic itself stays exact; this only keeps step sizes rational
#: numbers of bounded size).
_MAX_DENOMINATOR = 10 ** 12


@dataclass
class MLNLearnResult:
    """Outcome of a :func:`mln_weight_learn` run.

    ``mln`` is the input MLN with learned soft weights; ``weights`` the
    learned values in soft-constraint order; ``gradient`` the final
    average-log-likelihood gradient (one entry per soft constraint);
    ``converged`` whether its max-norm fell under the tolerance before
    the step budget ran out.  ``history`` records ``(step, weights)``
    snapshots for inspection/demos.
    """

    mln: MLN
    weights: list
    gradient: list
    steps_taken: int
    converged: bool
    history: list = field(default_factory=list)


def _normalize_observations(observations):
    """``[(weight, structure)]`` plus the total weight.

    Accepts bare structures (weight 1) or ``(weight, structure)`` pairs
    — fractional weights let a caller hand the learner an entire
    distribution (e.g. the exact model distribution, for which the MLE
    recovers the generating weights).
    """
    weighted = []
    for obs in observations:
        if isinstance(obs, tuple):
            weight, structure = obs
            weighted.append((as_fraction(weight), structure))
        else:
            weighted.append((Fraction(1), obs))
    total = sum(w for w, _ in weighted)
    if total <= 0:
        raise ValueError("observations must carry positive total weight")
    return weighted, total


def _data_counts(entries, weighted):
    """Weighted satisfied-grounding counts per soft constraint."""
    counts = []
    for constraint, _name, _arity in entries:
        total = Fraction(0)
        for weight, structure in weighted:
            total += weight * MLN._count_satisfied_groundings(
                constraint, structure)
        counts.append(total)
    return counts


def _learning_setup(mln, n, opts):
    """Frozen reduction template + compiled partition circuit."""
    from ..compile import compile_wfomc

    gamma, entries, _base_wv = reduction_template(mln, keep_all_soft=True)
    arities = predicates_of(gamma)
    vocabulary = Vocabulary(Predicate(name, arity)
                            for name, arity in sorted(arities.items()))
    compiled = compile_wfomc(gamma, n, vocabulary, method=opts.method,
                             budget=opts.budget, **opts.store_kwargs())
    return entries, vocabulary, compiled


def _weighted_vocabulary(vocabulary, entries, weights):
    """The reduction's weighted vocabulary at the current soft weights."""
    pairs = {}
    arities = {}
    reduced = {name: (i, arity) for i, (_c, name, arity) in enumerate(entries)}
    for pred in vocabulary:
        arities[pred.name] = pred.arity
        slot = reduced.get(pred.name)
        if slot is None:
            pairs[pred.name] = WeightPair(1, 1)
        else:
            w = weights[slot[0]]
            pairs[pred.name] = WeightPair(1 / (w - 1), 1)
    return WeightedVocabulary.from_weights(pairs, arities)


def _check_weights(weights):
    for i, w in enumerate(weights):
        if w <= 0:
            raise ValueError(
                "soft weight {} is {} <= 0; MLN weights must be positive"
                .format(i, w))
        if w == 1:
            raise ValueError(
                "soft weight {} is exactly 1, the pole of the WFOMC "
                "reduction; start the ascent at any other value (a "
                "weight-1 constraint is vacuous)".format(i))


def _gradient_at(compiled, vocabulary, entries, weights, counts, total, n):
    """Average-log-likelihood gradient (one Fraction per soft weight)."""
    wv = _weighted_vocabulary(vocabulary, entries, weights)
    value, pred_grads = compiled.gradient(wv)
    if value == 0:
        raise ZeroDivisionError(
            "the MLN assigns zero weight to every world at the current "
            "soft weights")
    gradient = []
    for i, (_constraint, name, arity) in enumerate(entries):
        w = weights[i]
        tuples = n ** arity
        du_dw = -1 / (w - 1) ** 2
        dlogz = (pred_grads[name][0] / value) * du_dw + Fraction(tuples, 1) / (w - 1)
        gradient.append(counts[i] / (total * w) - dlogz)
    return gradient, value


def mln_likelihood_gradient(mln, observations, n, options=None, **legacy):
    """The exact average-log-likelihood gradient at the MLN's weights.

    Returns one Fraction per *soft* constraint (in constraint order).
    Exposed separately so the gradient can be validated against finite
    differences of the likelihood on rational perturbations.  The
    gradient pass is exact (the circuit's reverse mode carries
    Fractions).
    """
    opts = SolverOptions.from_kwargs(options, **legacy)
    weighted, total = _normalize_observations(observations)
    entries, vocabulary, compiled = _learning_setup(mln, n, opts)
    weights = [c.weight for c, _name, _arity in entries]
    _check_weights(weights)
    counts = _data_counts(entries, weighted)
    gradient, _value = _gradient_at(compiled, vocabulary, entries, weights,
                                    counts, total, n)
    return gradient


def _log_fraction(value):
    """``log`` of a positive Fraction without overflowing floats."""
    if value <= 0:
        raise ValueError("log of a non-positive partition value")
    value = Fraction(value)
    return math.log(value.numerator) - math.log(value.denominator)


def mln_average_log_likelihood(mln, observations, n, options=None, **legacy):
    """The (float) average log-likelihood of the observations.

    ``Z`` is computed exactly through the compiled circuit and the
    reduction identity ``Z = G * prod (w_i - 1)^{n^{a_i}}``; only the
    final logarithms are floating point, so this is a readout for
    monitoring and finite-difference checks, not a counting result.
    """
    opts = SolverOptions.from_kwargs(options, **legacy)
    weighted, total = _normalize_observations(observations)
    entries, vocabulary, compiled = _learning_setup(mln, n, opts)
    weights = [c.weight for c, _name, _arity in entries]
    _check_weights(weights)
    counts = _data_counts(entries, weighted)
    wv = _weighted_vocabulary(vocabulary, entries, weights)
    partition = compiled.evaluate(wv)
    for i, (_c, _name, arity) in enumerate(entries):
        partition *= (weights[i] - 1) ** (n ** arity)
    result = -_log_fraction(partition)
    for i in range(len(entries)):
        if counts[i]:
            result += (counts[i] / total) * math.log(weights[i])
    return result


def mln_weight_learn(mln, observations, n, *, steps=80,
                     learning_rate=Fraction(1, 8), tolerance=Fraction(1, 5000),
                     options=None, max_denominator=_MAX_DENOMINATOR, **legacy):
    """Learn the MLN's soft weights by exact gradient ascent.

    ``mln`` supplies the structure and the *initial* soft weights;
    ``observations`` is an iterable of fully-observed
    :class:`~repro.grounding.structures.Structure` worlds (optionally
    ``(weight, structure)`` pairs — pass the exact model distribution of
    a known MLN and the ascent recovers its weights, the moment-matching
    property of maximum likelihood).  The partition function is compiled
    to a circuit **once**; each of the up-to-``steps`` iterations costs
    one circuit gradient pass, never a new count search.

    ``options`` is a :class:`~repro.options.SolverOptions` (legacy
    ``method=``/``persist=``/``cache_dir=`` keywords keep working and
    are deprecated); it configures compilation and persistence.  The
    gradient passes are exact (reverse mode carries Fractions).

    Steps that would cross the reduction pole at ``w = 1`` (or 0) are
    halved until they stay on the initial side, and iterates are
    rationalized to ``max_denominator``.  Returns an
    :class:`MLNLearnResult`; the counting side stays exact throughout,
    so a run is deterministic and reproducible.
    """
    opts = SolverOptions.from_kwargs(options, **legacy)
    weighted, total = _normalize_observations(observations)
    entries, vocabulary, compiled = _learning_setup(mln, n, opts)
    if not entries:
        return MLNLearnResult(mln=mln, weights=[], gradient=[],
                              steps_taken=0, converged=True)
    weights = [as_fraction(c.weight) for c, _name, _arity in entries]
    _check_weights(weights)
    counts = _data_counts(entries, weighted)
    learning_rate = as_fraction(learning_rate)
    tolerance = as_fraction(tolerance)

    history = []
    gradient = []
    converged = False
    step = 0
    for step in range(1, steps + 1):
        gradient, _value = _gradient_at(compiled, vocabulary, entries,
                                        weights, counts, total, n)
        if max(abs(g) for g in gradient) <= tolerance:
            converged = True
            step -= 1
            break
        new_weights = []
        for i, g in enumerate(gradient):
            w = weights[i]
            delta = learning_rate * g
            candidate = w + delta
            # Stay strictly on this weight's side of the pole at 1 (and
            # above 0): halve the step until the iterate is safe.
            while not _safe(w, candidate):
                delta /= 2
                candidate = w + delta
                if abs(delta) < Fraction(1, 10 ** 9):
                    candidate = w
                    break
            tamed = candidate.limit_denominator(max_denominator)
            new_weights.append(tamed if _safe(w, tamed) else candidate)
        weights = new_weights
        history.append((step, list(weights)))
    else:
        gradient, _value = _gradient_at(compiled, vocabulary, entries,
                                        weights, counts, total, n)
        converged = max(abs(g) for g in gradient) <= tolerance

    learned = _rebuild_mln(mln, entries, weights)
    return MLNLearnResult(mln=learned, weights=weights, gradient=gradient,
                          steps_taken=step, converged=converged,
                          history=history)


def _safe(current, candidate):
    if candidate <= _POLE_MARGIN:
        return False
    if current > 1:
        return candidate > 1 + _POLE_MARGIN
    return candidate < 1 - _POLE_MARGIN


def _rebuild_mln(mln, entries, weights):
    """The input MLN with its soft weights replaced by the learned ones."""
    learned_of = {id(constraint): weights[i]
                  for i, (constraint, _name, _arity) in enumerate(entries)}
    constraints = []
    for c in mln.constraints:
        new_weight = learned_of.get(id(c))
        if new_weight is None:
            constraints.append(c)
        else:
            constraints.append((new_weight, c.formula))
    return MLN(constraints)
