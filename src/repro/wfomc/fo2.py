"""The FO2 lifted algorithm: polynomial data complexity (Appendix C, [37]).

Pipeline, following Van den Broeck et al. as reviewed in Appendix C:

1. **Scott-normalize** the sentence: nested quantifiers are flattened into
   a conjunction of prenex sentences with prefixes ``forall*`` or
   ``forall* exists`` over fresh defined symbols (weight ``(1, 1)``).
2. **Skolemize** away the existentials (Lemma 3.3), introducing symbols
   with the cancellation weights ``(1, -1)``.
3. The residue is a single universal sentence ``forall x forall y psi``
   over predicates of arity at most 2 (plus zero-ary symbols).
4. **Shannon-expand** the zero-ary symbols (as prescribed in Appendix C).
5. Run the **cell decomposition**: a 1-type (cell) is a truth assignment
   to all unary atoms ``U(x)`` and reflexive binary atoms ``B(x, x)``;
   the weighted count is a sum over how the ``n`` domain elements are
   partitioned among the valid cells:

   ``sum_{n_1+...+n_K = n} multinomial * prod_k u_k**n_k
   * prod_k r_kk**C(n_k, 2) * prod_{k<l} r_kl**(n_k n_l)``

   where ``u_k`` is the weight of cell ``k`` and ``r_kl`` the summed
   weight of the binary "2-tables" between a cell-``k`` and a cell-``l``
   element that satisfy ``psi`` in both directions.

Equality atoms are supported natively: ``x = y`` is false for the two
distinct elements of a 2-table and true on the diagonal.

Cells with equal ``r`` rows are interchangeable and are summed into one
class, so the number of terms is ``C(n + K - 1, K - 1)`` for ``K``
classes of valid cells — polynomial in ``n`` for a fixed sentence, which
is the PTIME data-complexity result this module reproduces.  The sum
runs on Python ints: the class and pair weights are scaled to integers
once per call and the common denominator is divided out at the end.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from ..errors import NotFO2Error
from ..logic.scott import scott_normalize, skolemize_scott
from ..logic.syntax import (
    Var,
    free_variables,
    num_variables,
    substitute,
    conj,
)
from ..logic.vocabulary import WeightedVocabulary
from ..grounding.lineage import _ground  # grounding of a quantifier-free matrix
from ..propositional.formula import peval, prop_vars
from ..utils import LRUCache, binomial, check_domain_size, weights_signature

__all__ = [
    "wfomc_fo2",
    "FO2CellStructure",
    "FO2CellDecomposition",
    "fo2_cache_stats",
    "clear_fo2_caches",
]

#: Weight-*independent* cell structures keyed on the *skolemized matrix*:
#: the matrix grounding, the valid-cell enumeration, and the satisfying
#: 2-table patterns — the exponential part of the construction — are a
#: pure function of the matrix, so weight sweeps over one sentence share
#: a single structure.  (The matrix, not the formula, is the key because
#: the fresh Scott/Skolem symbol names depend on the caller's vocabulary:
#: a vocabulary that already uses a Skolem-like name shifts the fresh
#: names, and a structure cached under the formula alone would mix them
#: up across vocabularies.)
_STRUCTURE_CACHE = LRUCache(maxsize=128)

#: Weighted cell decompositions keyed on ``(formula, weights)``.  A
#: decomposition layers cell weights and 2-table weights on top of a
#: shared structure; every domain size (``wfomc_batch``) and repeated
#: call reuses those tables.  The distribution recursion keeps no state
#: between calls, so concurrent callers share only completed tables.
_DECOMPOSITION_CACHE = LRUCache(maxsize=128)


def fo2_cache_stats():
    """Hit/miss statistics for both FO2 cache layers."""
    return {
        "structures": _STRUCTURE_CACHE.stats(),
        "decompositions": _DECOMPOSITION_CACHE.stats(),
    }


def clear_fo2_caches():
    """Drop all cached FO2 cell structures and decompositions."""
    _STRUCTURE_CACHE.clear()
    _DECOMPOSITION_CACHE.clear()

_X = Var("fo2_x")
_Y = Var("fo2_y")


def _combine_universal(sentences):
    """Merge universal sentences into one matrix over canonical vars x, y."""
    parts = []
    for sent in sentences:
        if len(sent.vars) > 2:
            raise NotFO2Error(
                "sentence has a {}-variable prefix; not FO2".format(len(sent.vars))
            )
        mapping = {}
        if len(sent.vars) >= 1:
            mapping[sent.vars[0]] = _X
        if len(sent.vars) == 2:
            mapping[sent.vars[1]] = _Y
        parts.append(substitute(sent.matrix, mapping))
    return conj(*parts)


class FO2CellStructure:
    """The weight-independent half of a cell decomposition.

    Holds everything that depends only on the sentence: the grounded
    matrix, the predicate classification, the valid cells per zero-ary
    assignment, and — the exponential part of the construction — the
    satisfying 2-table bit patterns of every cell pair.  One structure is
    shared by every :class:`FO2CellDecomposition` built over it, so a
    weight sweep enumerates cells and 2-tables exactly once.
    """

    def __init__(self, matrix, vocabulary):
        free = free_variables(matrix)
        if not free <= {_X, _Y}:
            raise NotFO2Error("matrix has unexpected free variables: {}".format(free))

        #: Stable cross-process identity of this structure (formula reprs
        #: are deterministic), used as the persistent-store key prefix.
        self.matrix_key = repr(matrix)
        #: Optional :class:`repro.cache.PersistentStore` consulted by
        #: :meth:`tables` (attached by :func:`wfomc_fo2` under
        #: ``persist=True``).
        self.store = None

        # Ground the matrix at the three element patterns we need.
        # Elements 1 and 2 stand for "an element of cell k / cell l".
        self.diag_prop = _ground(matrix, 2, {_X: 1, _Y: 1})
        self.pair_prop_xy = _ground(matrix, 2, {_X: 1, _Y: 2})
        self.pair_prop_yx = _ground(matrix, 2, {_X: 2, _Y: 1})

        # Only predicates that actually occur in the matrix participate in
        # the decomposition; unconstrained predicates are handled by the
        # caller with a (w + wbar)**|tuples| factor.
        self.matrix_preds = {
            name
            for name, _args in (
                prop_vars(self.diag_prop)
                | prop_vars(self.pair_prop_xy)
                | prop_vars(self.pair_prop_yx)
            )
        }
        self.zero_preds = []
        self.unary_preds = []
        self.binary_preds = []
        for pred in vocabulary:
            if pred.name not in self.matrix_preds:
                continue
            if pred.arity == 0:
                self.zero_preds.append(pred.name)
            elif pred.arity == 1:
                self.unary_preds.append(pred.name)
            elif pred.arity == 2:
                self.binary_preds.append(pred.name)
            else:
                raise NotFO2Error(
                    "predicate {} has arity {} > 2; the FO2 lifted solver "
                    "requires arity at most 2".format(pred.name, pred.arity)
                )

        # Type slots: unary atoms and reflexive binary atoms of one element.
        self.type_slots = [(u, "unary") for u in self.unary_preds] + [
            (b, "refl") for b in self.binary_preds
        ]

        # Off-diagonal binary atoms between elements 1 and 2: the 2-table
        # variables of a cell pair.
        self.off_diag_labels = []
        for b in self.binary_preds:
            self.off_diag_labels.append((b, (1, 2)))
            self.off_diag_labels.append((b, (2, 1)))

        #: zero_key -> (cells, satisfying 2-table patterns per cell pair);
        #: filled lazily and shared by every weighted decomposition.
        self._zero_tables = {}

    def _type_assignment(self, cell_bits, element):
        """Ground-atom assignment for one element's 1-type."""
        assignment = {}
        for (name, kind), bit in zip(self.type_slots, cell_bits):
            if kind == "unary":
                assignment[(name, (element,))] = bit
            else:
                assignment[(name, (element, element))] = bit
        return assignment

    def tables(self, zero_key, zero_assignment, budget=None):
        """``(cells, satisfying)`` for one zero-ary assignment.

        ``cells`` lists the valid 1-types (bit tuples over
        ``type_slots``); ``satisfying[k][l]`` lists the 2-table bit
        tuples (over ``off_diag_labels``) that satisfy the matrix in both
        directions between a cell-``k`` and a cell-``l`` element.  This
        is the exponential enumeration, done once per sentence and reused
        by every weight function and domain size — and, when a persistent
        store is attached, once per sentence *ever*: the enumeration is
        read through the ``fo2_tables`` namespace keyed on the skolemized
        matrix and the zero-ary assignment, so a second process skips it.
        """
        cached = self._zero_tables.get(zero_key)
        if cached is not None:
            return cached
        store = self.store
        if store is not None:
            persisted = store.get("fo2_tables", (self.matrix_key, zero_key))
            if persisted is not None:
                tables = (persisted[0], persisted[1])
                self._zero_tables[zero_key] = tables
                return tables
        base = {(name, ()): bit for name, bit in zero_assignment.items()}

        # Valid cells: 1-types whose element satisfies psi(x, x).
        cells = []
        for bits in itertools.product((False, True), repeat=len(self.type_slots)):
            if budget is not None:
                budget.tick()
            assignment = dict(base)
            assignment.update(self._type_assignment(bits, 1))
            if peval(self.diag_prop, assignment):
                cells.append(bits)

        k_cells = len(cells)
        off_diag_labels = self.off_diag_labels
        satisfying = [[None] * k_cells for _ in range(k_cells)]
        for k in range(k_cells):
            for l in range(k_cells):
                assignment = dict(base)
                assignment.update(self._type_assignment(cells[k], 1))
                assignment.update(self._type_assignment(cells[l], 2))
                good = []
                for bits in itertools.product((False, True), repeat=len(off_diag_labels)):
                    if budget is not None:
                        budget.tick()
                    for label, bit in zip(off_diag_labels, bits):
                        assignment[label] = bit
                    if peval(self.pair_prop_xy, assignment) and peval(
                        self.pair_prop_yx, assignment
                    ):
                        good.append(bits)
                satisfying[k][l] = good

        tables = (cells, satisfying)
        self._zero_tables[zero_key] = tables
        if store is not None:
            store.put("fo2_tables", (self.matrix_key, zero_key), tables)
        return tables


class FO2CellDecomposition:
    """The cell decomposition of a universal FO2 matrix.

    Layers one weight function over a (possibly shared)
    :class:`FO2CellStructure`: cell weights ``u_k``, 2-table pair weights
    ``r_kl``, and the distribution recursion.  Exposes the
    pieces so tests and benchmarks can inspect them; :func:`wfomc_fo2` is
    the user-facing wrapper.  ``structure`` may be a prebuilt
    :class:`FO2CellStructure` or a matrix formula (one is built).
    """

    def __init__(self, structure, weighted_vocabulary):
        if not isinstance(structure, FO2CellStructure):
            structure = FO2CellStructure(
                structure, weighted_vocabulary.vocabulary
            )
        self.structure = structure
        self.wv = weighted_vocabulary

        # Per-zero-assignment cell/pair-weight tables; they survive across
        # calls (and across domain sizes) for the lifetime of the
        # decomposition instance.
        self._tables = {}

    # The structural pieces read like attributes of the decomposition.

    @property
    def matrix_preds(self):
        return self.structure.matrix_preds

    @property
    def zero_preds(self):
        return self.structure.zero_preds

    @property
    def unary_preds(self):
        return self.structure.unary_preds

    @property
    def binary_preds(self):
        return self.structure.binary_preds

    @property
    def type_slots(self):
        return self.structure.type_slots

    def _type_weight(self, cell_bits):
        weight = Fraction(1)
        for (name, _kind), bit in zip(self.structure.type_slots, cell_bits):
            pair = self.wv.weight(name)
            weight *= pair.w if bit else pair.wbar
        return weight

    def _cell_tables(self, zero_key, zero_assignment, budget=None):
        """Cells, cell weights, and 2-table pair weights for one assignment
        of the zero-ary atoms.  The expensive enumeration lives in the
        shared structure; this layer only sums weights over the stored
        satisfying patterns, so it is polynomial in their number."""
        cached = self._tables.get(zero_key)
        if cached is not None:
            return cached
        cells, satisfying = self.structure.tables(zero_key, zero_assignment,
                                                  budget=budget)

        cell_weights = [self._type_weight(bits) for bits in cells]

        k_cells = len(cells)
        off_diag_labels = self.structure.off_diag_labels
        pair_weights = [self.wv.weight(name) for name, _args in off_diag_labels]
        r = [[Fraction(0)] * k_cells for _ in range(k_cells)]
        for k in range(k_cells):
            for l in range(k_cells):
                total = Fraction(0)
                for bits in satisfying[k][l]:
                    weight = Fraction(1)
                    for pair, bit in zip(pair_weights, bits):
                        weight *= pair.w if bit else pair.wbar
                    total += weight
                r[k][l] = total

        tables = (cells, cell_weights, r)
        self._tables[zero_key] = tables
        return tables

    def run(self, n, zero_assignment, budget=None):
        """The weighted count for one assignment of the zero-ary atoms."""
        check_domain_size(n)
        zero_key = tuple(sorted(zero_assignment.items()))
        cells, cell_weights, r = self._cell_tables(zero_key, zero_assignment,
                                                   budget=budget)

        if not cells:
            return Fraction(0) if n > 0 else Fraction(1)

        # Cells with equal ``r`` rows are interchangeable: ``r`` is
        # symmetric, so two such cells also have ``r_kk = r_ll = r_kl``,
        # and by the binomial theorem the group acts as one cell whose
        # weight is the sum of its members' weights.
        classes = {}
        for k, row in enumerate(r):
            classes.setdefault(tuple(row), []).append(k)
        reps = [members[0] for members in classes.values()]
        weights = [sum(cell_weights[k] for k in members)
                   for members in classes.values()]
        rows = [[r[k][l] for l in reps] for k in reps]

        # Count in integers: every term has total cell exponent ``n`` and
        # total pair exponent ``C(n, 2)``, so scaling the class weights by
        # ``d_u`` and the pair weights by ``d_r`` scales every term by
        # ``d_u**n * d_r**C(n, 2)``, divided out once at the end.
        d_u = lcm(*(w.denominator for w in weights))
        d_r = lcm(*(x.denominator for row in rows for x in row))
        weights = [w.numerator * (d_u // w.denominator) for w in weights]
        rows = [[x.numerator * (d_r // x.denominator) for x in row]
                for row in rows]

        # Sum over all ways to distribute n elements among the classes.
        # ``suffix(k, remaining, pending)`` is the summed weight of
        # distributing ``remaining`` elements among classes ``k..K-1``,
        # where ``pending[l - k]`` carries the cross-class factor
        # ``prod_{j<k} r[j][l]**n_j`` accumulated from earlier classes.
        # Distinct prefixes converge on the same ``pending`` whenever
        # ``r`` entries repeat or collapse to 0/1, so the call memoizes it.
        memo = {}
        last = len(weights) - 1

        def suffix(k, remaining, pending):
            if budget is not None:
                budget.tick()
            key = (k, remaining, pending)
            value = memo.get(key)
            if value is not None:
                return value
            row = rows[k]
            r_kk = row[k]
            u = weights[k] * pending[0]
            if k == last:
                value = u ** remaining * r_kk ** binomial(remaining, 2)
            else:
                # Running products over nk: C(remaining, nk), the class
                # factor (u_k * pending_0)**nk * r_kk**C(nk, 2), advanced
                # by u * r_kk**nk, and the new pending_l * r_kl**nk.
                value = 0
                coeff = factor = 1
                step = u
                cross = row[k + 1:]
                new_pending = pending[1:]
                for nk in range(remaining + 1):
                    term = coeff * factor
                    if term == 0:
                        # u**nk and r_kk**C(nk, 2) stay 0 once they are.
                        break
                    value += term * suffix(k + 1, remaining - nk, new_pending)
                    coeff = coeff * (remaining - nk) // (nk + 1)
                    factor *= step
                    step *= r_kk
                    new_pending = tuple(p * x for p, x in zip(new_pending, cross))
            memo[key] = value
            return value

        total = suffix(0, n, (1,) * len(weights))
        return Fraction(total, d_u ** n * d_r ** binomial(n, 2))


def wfomc_fo2(formula, n, weighted_vocabulary=None, persist=None,
              cache_dir=None, budget=None):
    """Symmetric WFOMC of an FO2 sentence in time polynomial in ``n``.

    ``formula`` may use nested quantifiers, equality, and any Boolean
    connectives, but at most two distinct variables and predicates of
    arity at most two.  Raises :class:`~repro.errors.NotFO2Error`
    otherwise.  ``persist``/``cache_dir`` read the exponential cell and
    2-table enumeration through the on-disk store of :mod:`repro.cache`.
    ``budget`` (a :class:`~repro.resilience.limits.Budget`) bounds the
    cell/2-table enumeration and the distribution recursion; aborting
    leaves the cached cell and 2-table layers consistent (only completed
    tables are ever stored), so a retried call warm-starts from them.
    The recursion memo lives for one call, so the retry recomputes the
    recursion.
    """
    check_domain_size(n)
    wv = weighted_vocabulary or WeightedVocabulary.counting(formula)

    if n == 0:
        # Scott/Skolem prenexing assumes a nonempty domain (pulling a
        # quantifier over a disjunct is unsound over the empty domain), so
        # evaluate the trivial n = 0 instance directly: the lineage over an
        # empty domain mentions no ground atoms at all.
        from .bruteforce import wfomc_lineage

        return wfomc_lineage(formula, 0, wv, persist=persist,
                             cache_dir=cache_dir)

    if num_variables(formula) > 2:
        raise NotFO2Error(
            "sentence uses {} distinct variables; FO2 allows at most 2".format(
                num_variables(formula)
            )
        )
    for pred in wv.vocabulary:
        if pred.arity > 2:
            raise NotFO2Error(
                "predicate {} has arity {}; the FO2 solver requires arity "
                "at most 2".format(pred.name, pred.arity)
            )

    cache_key = (formula, weights_signature(wv))
    cached = _DECOMPOSITION_CACHE.get(cache_key)
    if cached is None:
        # Scott/Skolem are cheap syntactic transforms (re-run per weight
        # function because the fresh symbols carry weights); the expensive
        # cell/2-table enumeration lives in the weight-independent
        # structure, keyed on the resulting matrix.
        sentences, wv1 = scott_normalize(formula, wv)
        universal, wv2 = skolemize_scott(sentences, wv1)
        matrix = _combine_universal(universal)
        structure = _STRUCTURE_CACHE.get(matrix)
        if structure is None:
            structure = FO2CellStructure(matrix, wv2.vocabulary)
            _STRUCTURE_CACHE.put(matrix, structure)
        decomposition = FO2CellDecomposition(structure, wv2)
        _DECOMPOSITION_CACHE.put(cache_key, (decomposition, wv2))
    else:
        decomposition, wv2 = cached
    if persist:
        from ..cache import open_store

        store = open_store(cache_dir)
        decomposition.structure.store = store if not store.disabled else None
    else:
        # Persistence is per-call opt-in, but structures live in the
        # module cache: a store attached by an earlier persisted call
        # must not leak into this one.
        decomposition.structure.store = None

    # Shannon expansion over zero-ary predicates (Appendix C).
    zero_preds = decomposition.zero_preds
    total = Fraction(0)
    for bits in itertools.product((False, True), repeat=len(zero_preds)):
        zero_assignment = dict(zip(zero_preds, bits))
        weight = Fraction(1)
        for name, bit in zip(zero_preds, bits):
            pair = wv2.weight(name)
            weight *= pair.w if bit else pair.wbar
        if weight == 0:
            continue
        total += weight * decomposition.run(n, zero_assignment, budget=budget)

    # Predicates never mentioned by the matrix are unconstrained: every
    # ground atom contributes its full mass w + wbar.
    for pred, pair in wv2.items():
        if pred.name not in decomposition.matrix_preds:
            total *= pair.total ** (n ** pred.arity)
    return total
