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

The valid cells and their satisfying 2-tables are enumerated
bit-parallel: every ground atom is a Python-int truth-table column over
all assignments, and the matrix is evaluated with ``& | ^`` once for the
cells and once per valid cell for its 2-tables.

Cells with equal ``r`` rows are interchangeable and are summed into one
class.  Cells whose satisfying 2-table lists agree against every cell
have equal rows for *every* weight function; these weight-independent
classes are derived once per structure and shared with the compiled
route (:mod:`repro.compile.wfomc`).  The numeric route then also merges
classes whose rows are equal at its particular weights.  The number of
terms is ``C(n + K - 1, K - 1)`` for ``K`` classes — polynomial in ``n``
for a fixed sentence, which is the PTIME data-complexity result this
module reproduces.  The sum runs on Python ints: the class and pair
weights are scaled to integers once per call and the common denominator
is divided out at the end.
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
from ..propositional.formula import prop_vars, ptruth_table
from ..utils import LRUCache, binomial, check_domain_size, weights_signature

__all__ = [
    "wfomc_fo2",
    "FO2CellStructure",
    "FO2CellDecomposition",
    "fo2_cache_stats",
    "clear_fo2_caches",
]

#: Weight-*independent* cell structures keyed on the *skolemized matrix*:
#: the matrix grounding, the valid-cell enumeration, the satisfying
#: 2-table patterns — the exponential part of the construction — and the
#: cell classes they induce are a pure function of the matrix, so weight
#: sweeps and compiled circuits over one sentence share a single
#: structure.  (The matrix, not the formula, is the key because
#: the fresh Scott/Skolem symbol names depend on the caller's vocabulary:
#: a vocabulary that already uses a Skolem-like name shifts the fresh
#: names, and a structure cached under the formula alone would mix them
#: up across vocabularies.)
_STRUCTURE_CACHE = LRUCache(maxsize=128)

#: Weighted cell decompositions keyed on ``(formula, weights)``.  A
#: decomposition layers class weights and 2-table weights on top of a
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


def _column(bit, width):
    """The truth-table column of assignment bit ``bit`` over ``2**width``
    assignments: bit ``p`` is set iff bit ``bit`` of ``p`` is."""
    half = 1 << bit
    block = ((1 << half) - 1) << half
    return block * (((1 << (1 << width)) - 1) // ((1 << (2 * half)) - 1))


def _set_bits(mask):
    """The positions of the set bits of ``mask``, ascending."""
    return [p for p, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _cell_classes(satisfying):
    """Weight-independent cell classes, as lists of cell indexes.

    Cells whose satisfying 2-table lists agree against every cell have
    equal ``r`` rows as polynomials in the weights, so they are
    interchangeable for every weight function.
    """
    classes = {}
    for k, row in enumerate(satisfying):
        classes.setdefault(tuple(map(tuple, row)), []).append(k)
    return list(classes.values())


class FO2CellStructure:
    """The weight-independent half of a cell decomposition.

    Holds everything that depends only on the sentence: the grounded
    matrix, the predicate classification, the valid cells per zero-ary
    assignment, the satisfying 2-table bit patterns of every cell pair,
    and the cell classes those patterns induce.  One structure is shared
    by every :class:`FO2CellDecomposition` built over it and by the
    compiled route, so a weight sweep enumerates cells and 2-tables
    exactly once.
    """

    def __init__(self, matrix, vocabulary):
        free = free_variables(matrix)
        if not free <= {_X, _Y}:
            raise NotFO2Error("matrix has unexpected free variables: {}".format(free))

        #: Stable cross-process identity of this structure (formula reprs
        #: are deterministic), used as the persistent-store key prefix.
        self.matrix_key = repr(matrix)

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

        #: zero_key -> (cells, satisfying, classes); filled lazily and
        #: shared by every weighted decomposition and compiled circuit.
        self._zero_tables = {}

    def _type_atoms(self, element):
        """The ground atoms of one element's 1-type, in slot order."""
        return [(name, (element,) if kind == "unary" else (element, element))
                for name, kind in self.type_slots]

    def tables(self, zero_key, zero_assignment, store=None, budget=None):
        """``(cells, satisfying, classes)`` for one zero-ary assignment.

        ``cells`` lists the valid 1-types (bit tuples over
        ``type_slots``) in ``itertools.product`` order;
        ``satisfying[k][l]`` lists, in the same order, the 2-table bit
        tuples (over ``off_diag_labels``) that satisfy the matrix in both
        directions between a cell-``k`` and a cell-``l`` element; and
        ``classes`` groups the cell indexes whose ``satisfying`` rows are
        equal (see :func:`_cell_classes`).

        The matrix is evaluated bit-parallel on truth tables
        (:func:`~repro.propositional.formula.ptruth_table`): once over
        all ``2**T`` 1-types for the valid cells, then once per valid
        element-1 cell over every (element-2 1-type, 2-table) pair, a
        ``2**(T+D)``-bit int for ``T`` type slots and ``D`` 2-table
        labels.  This is the exponential part of the construction, done
        once per sentence and reused by every weight function and domain
        size; with a persistent ``store`` it is read through the
        ``fo2_tables`` namespace keyed on the skolemized matrix and the
        zero-ary assignment, so a second process skips it.  The store
        holds ``(cells, satisfying)``; the classes are derived on load.
        ``budget`` is ticked on entry and once per element-1 cell, and
        an aborted call keeps and stores nothing.
        """
        store_key = (self.matrix_key, zero_key)
        cached = self._zero_tables.get(zero_key)
        if cached is not None:
            # A memory hit must still honor an explicit persist request:
            # the cached tables may predate it (built without a store).
            if (store is not None
                    and store.get("fo2_tables", store_key) is None):
                store.put("fo2_tables", store_key, cached[:2])
            return cached
        if store is not None:
            persisted = store.get("fo2_tables", store_key)
            if persisted is not None:
                cells, satisfying = persisted[0], persisted[1]
                tables = (cells, satisfying, _cell_classes(satisfying))
                self._zero_tables[zero_key] = tables
                return tables
        if budget is not None:
            budget.tick()
        zero = [((name, ()), bit) for name, bit in zero_assignment.items()]
        element1 = self._type_atoms(1)
        t = len(self.type_slots)
        d = len(self.off_diag_labels)

        # Valid cells: the truth table of psi(x, x) over all 1-types.  The
        # first slot is the most significant bit, so set bits come out in
        # ``itertools.product`` order.
        full = (1 << (1 << t)) - 1
        columns = {atom: full if bit else 0 for atom, bit in zero}
        for j, atom in enumerate(element1):
            columns[atom] = _column(t - 1 - j, t)
        types = list(itertools.product((False, True), repeat=t))
        indices = _set_bits(ptruth_table(self.diag_prop, columns, full))
        cells = [types[i] for i in indices]

        # Satisfying 2-tables: per element-1 cell, one truth table over
        # (element-2 1-type, 2-table) with the 1-type in the high bits,
        # so cell ``l``'s patterns are the ``2**d``-bit chunk at its type
        # index.
        width = t + d
        full = (1 << (1 << width)) - 1
        columns = {atom: full if bit else 0 for atom, bit in zero}
        for j, atom in enumerate(self._type_atoms(2)):
            columns[atom] = _column(width - 1 - j, width)
        for j, label in enumerate(self.off_diag_labels):
            columns[label] = _column(d - 1 - j, width)
        two_tables = list(itertools.product((False, True), repeat=d))
        chunk = (1 << (1 << d)) - 1
        satisfying = []
        for bits in cells:
            if budget is not None:
                budget.tick()
            for atom, bit in zip(element1, bits):
                columns[atom] = full if bit else 0
            mask = (ptruth_table(self.pair_prop_xy, columns, full)
                    & ptruth_table(self.pair_prop_yx, columns, full))
            satisfying.append([
                [two_tables[p] for p in _set_bits((mask >> (i << d)) & chunk)]
                for i in indices
            ])

        tables = (cells, satisfying, _cell_classes(satisfying))
        self._zero_tables[zero_key] = tables
        if store is not None:
            store.put("fo2_tables", store_key, (cells, satisfying))
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

    def _cell_tables(self, zero_key, zero_assignment, store=None,
                     budget=None):
        """``(cells, weights, r)`` for one assignment of the zero-ary atoms.

        ``cells`` are the structure's valid cells; ``weights[c]`` sums the
        cell weights of the structure's class ``c``, and ``r[c][d]`` is
        the 2-table pair weight between the representatives (first
        members) of classes ``c`` and ``d``.  The expensive enumeration
        lives in the shared structure; this layer only sums weights over
        the stored satisfying patterns, so it is polynomial in their
        number.  The structure is asked first even when this layer is
        warm, so a persisted call writes its tables through."""
        cells, satisfying, classes = self.structure.tables(
            zero_key, zero_assignment, store=store, budget=budget)
        cached = self._tables.get(zero_key)
        if cached is not None:
            return cached

        weights = [sum(self._type_weight(cells[k]) for k in members)
                   for members in classes]

        pair_weights = [self.wv.weight(name)
                        for name, _args in self.structure.off_diag_labels]
        # ``r`` is symmetric: swapping the two elements maps the patterns
        # of (k, l) onto those of (l, k) with the same weights.
        reps = [members[0] for members in classes]
        r = [[None] * len(reps) for _ in reps]
        for c, k in enumerate(reps):
            for d in range(c, len(reps)):
                total = Fraction(0)
                for bits in satisfying[k][reps[d]]:
                    weight = Fraction(1)
                    for pair, bit in zip(pair_weights, bits):
                        weight *= pair.w if bit else pair.wbar
                    total += weight
                r[c][d] = r[d][c] = total

        tables = (cells, weights, r)
        self._tables[zero_key] = tables
        return tables

    def run(self, n, zero_assignment, store=None, budget=None):
        """The weighted count for one assignment of the zero-ary atoms.

        ``store`` is the persistent store the cell tables are read
        through, if any (see :meth:`FO2CellStructure.tables`).
        """
        check_domain_size(n)
        zero_key = tuple(sorted(zero_assignment.items()))
        cells, class_weights, r = self._cell_tables(
            zero_key, zero_assignment, store=store, budget=budget)

        if not cells:
            return Fraction(0) if n > 0 else Fraction(1)

        # Classes with equal ``r`` rows at these weights are
        # interchangeable too: ``r`` is symmetric, so two such classes
        # also have ``r_cc = r_dd = r_cd``, and by the binomial theorem
        # the group acts as one class whose weight is the sum of its
        # members' weights.
        groups = {}
        for c, row in enumerate(r):
            groups.setdefault(tuple(row), []).append(c)
        reps = [members[0] for members in groups.values()]
        weights = [sum(class_weights[c] for c in members)
                   for members in groups.values()]
        rows = [[r[c][d] for d in reps] for c in reps]

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
    # Persistence is per-call opt-in: the store goes down the call, never
    # onto the structure, which the module cache shares between threads.
    store = None
    if persist:
        from ..cache import open_store

        store = open_store(cache_dir)
        if store.disabled:
            store = None

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
        total += weight * decomposition.run(n, zero_assignment, store=store,
                                            budget=budget)

    # Predicates never mentioned by the matrix are unconstrained: every
    # ground atom contributes its full mass w + wbar.
    for pred, pair in wv2.items():
        if pred.name not in decomposition.matrix_preds:
            total *= pair.total ** (n ** pred.arity)
    return total
