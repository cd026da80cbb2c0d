"""Exact weighted model counting: a conflict-driven, component-caching #DPLL.

This is the propositional engine behind every grounded computation in the
library (Section 2 reduces WFOMC to WMC of the lineage).  The counter is a
sharpSAT/Cachet-style conflict-driven counting search:

* **watched-literal unit propagation**: every clause watches two of its
  literals through per-literal watch lists, so asserting a literal only
  visits the clauses watching its negation — never the whole clause list.
  Clause state is lazy: satisfied clauses are discovered at residual
  extraction time, not eagerly during propagation;
* **conflict-driven clause learning** (the default, ``learn=True``): each
  component is counted by an iterative search over one persistent trail
  (decision levels, antecedent clause per implied literal).  On conflict
  the engine derives a 1-UIP learned clause from the implication graph,
  adds it to a *side* database consulted during propagation only — learned
  clauses never enter residual extraction, component splitting, or cache
  keys, the standard sound scheme for #SAT — and backjumps to the
  asserting level, re-propagating the asserting literal there and
  recomputing the abandoned levels through the component cache.  The
  database is bounded: when it exceeds ``max_learned`` clauses, the
  highest-LBD half is dropped (glue and reason-locked clauses are kept);
* **EVSIDS branching** (``branching="evsids"``, the default): decision
  variables maximize an exponentially-decayed activity score bumped on
  every variable resolved during conflict analysis, warm-started with
  occurrence counts.  ``branching="moms"`` keeps the classic
  most-occurrences-in-minimum-size-clauses heuristic for ablation, and
  ``learn=False`` restores the learning-free engine;
* one **fused residual pass** per search node: extracting the residual
  formula, splitting it into variable-connected components (union-find),
  and collecting the surviving variables all happen in a single scan.
  When a search keeps producing residuals that neither split nor hit the
  cache, it adaptively switches to a cheaper split-free extraction
  (probing the full pass periodically), so branching-bound instances do
  not pay for canonicalization that never pays off;
* *canonical* component caching: each residual component is renamed to a
  first-occurrence canonical variable numbering before the cache lookup,
  so components that are structurally identical up to that renaming —
  which symmetric lineages of different domain elements produce in
  abundance — share one cache entry.  (This is renaming, not graph
  canonization: isomorphic components whose clauses or literals arrive
  in incompatible orders hash to different entries.)  The cache key
  includes the weight pair of every component variable, which makes the
  cache safe to share across calls with different weight functions;
* **incremental cache keys**: the canonical renaming of a component is
  memoized on the frozen component itself (a weight-independent
  structure), so repeated lookups of the same residual skip the
  re-normalization entirely and only assemble the weight row;
* an opt-in **parallel mode** (``workers=N``): top-level components are
  independent by construction, so they are farmed to a persistent process
  pool.  The parent cache acts as a read-through front (components already
  cached are never dispatched; worker results are merged back under their
  canonical keys), each worker learns clauses locally, and exact
  arithmetic makes the merged result bit-identical to a serial run;
* an opt-in **persistent cache** (``persist=True`` on the wrappers): the
  component cache reads through to the content-addressed on-disk store
  of :mod:`repro.cache`, shared across processes (and by the parallel
  workers), so repeated sweeps warm-start from disk.  Stored values are
  exact, keeping persisted runs bit-identical to cold ones;
* **phase saving** (``phase_saving=True``, the default): variables
  unassigned by a backjump remember their last polarity and later
  decisions branch into it first (w-first order is the fallback) — in an
  exhaustive counting search this only reorders the branches, steering
  where conflicts and learned clauses arise, never the counted value;
* opt-in **Luby restarts** (``restarts=N``): after ``N * luby(i)``
  conflicts the search abandons every decision level and re-enters the
  component from the root, keeping learned clauses and level-0 units.
  A restart is the same move as a backjump to the root — abandoned
  partial sums are recomputed through the component cache, so no branch
  is skipped and the counted value is bit-identical with restarts on or
  off;
* a **trace mode** (:func:`trace_cnf_clauses`): this same search, learned
  clauses and all, run over arithmetic-circuit nodes instead of numbers
  for the knowledge-compilation subsystem (:mod:`repro.compile`).
  Branches become x-nodes, decisions smoothed +-nodes, weights leaves; a
  value is zero only when its subcircuit folded to the constant 0, and
  canonical components compile once into templates shared across
  isomorphic occurrences.

Soundness of learning under component caching deserves a note.  A learned
clause is entailed by the component a search was started on, so using it
for propagation *within that search* is sound as long as every multiplied
context factor is nonzero: the engine never descends under a zero weight
or a zero child count (in trace mode, a subcircuit other than the
constant 0, which has a model), which guarantees that every sibling
component in the context is satisfiable, and therefore that an
implication derived from a learned clause restricts the current
component alone.  Learned
implications of variables outside the current component are blocked
(cross-component implications are the classic unsoundness of naive
learning in #SAT), and learned clauses never leak into child searches.

Weights may be negative (Skolemization needs ``(1, -1)``), so no
optimization may assume counts are monotone or positive; in particular the
pure-literal rule is *not* used for counting (it is used for plain SAT).
Integer weights are kept as machine integers internally and only converted
to :class:`~fractions.Fraction` at the API boundary.

The count is defined over the variables that occur in the clauses; callers
account for never-occurring variables.  Variables that vanish from the
residual formula without being assigned contribute their full mass
``w + wbar``.
"""

from __future__ import annotations

import logging
import os
import sys
import threading
import time
from fractions import Fraction

from ..errors import BudgetExceededError
from ..obs import get_logger, slog, span
from ..options import SolverOptions
from ..resilience.faults import maybe_fire
from ..utils import LRUCache
from ..weights import WeightPair
from .cnf import to_cnf
from .formula import prop_vars

__all__ = [
    "CountingEngine",
    "EngineStats",
    "engine_stats",
    "reset_engine",
    "shutdown_worker_pool",
    "trace_cnf_clauses",
    "cnf_for_formula",
    "wmc_cnf",
    "wmc_formula",
    "model_count",
    "satisfiable",
]

#: Ceiling for the temporary recursion-limit raise in
#: :meth:`CountingEngine.run`; ~50k Python frames fit comfortably in the
#: default 8 MB C stack, far past any instance the engine can finish.
MAX_RECURSION_LIMIT = 50_000

#: Upper bound on shared component-cache entries; the cache is cleared
#: wholesale when it fills (component values are cheap to recompute
#: relative to unbounded memory growth on adversarial workloads).
MAX_CACHE_ENTRIES = 1 << 18

#: Upper bound on memoized canonical-key entries.  Keys are
#: weight-independent renamings, small relative to the values cache.
MAX_KEY_CACHE_ENTRIES = 1 << 16

#: Default bound on the learned-clause database of one component search;
#: exceeding it triggers an LBD-based reduction that drops the worst half.
DEFAULT_MAX_LEARNED = 4096

#: Phase saving (remember the polarity a backjump undid, branch with it
#: first) is on by default; ``phase_saving=False`` restores the fixed
#: w-first branch order everywhere.
DEFAULT_PHASE_SAVING = True

#: Learned clauses with an LBD this small ("glue" clauses) survive every
#: database reduction.
GLUE_LBD = 2


def _luby(i):
    """The ``i``-th term (1-based) of the Luby sequence 1,1,2,1,1,2,4,...

    The standard universally-optimal restart schedule: the restart
    after ``i`` fires once ``unit * luby(i)`` conflicts accumulate.
    """
    k = i.bit_length()
    if i + 1 == 1 << k:
        return 1 << (k - 1)
    return _luby(i - (1 << (k - 1)) + 1)

#: EVSIDS: activity increments grow by 1/0.95 per conflict; activities are
#: rescaled when the increment overflows this bound.
_VSIDS_INV_DECAY = 1.0 / 0.95
_VSIDS_RESCALE = 1e100

#: Adaptive residual extraction: after this many consecutive search nodes
#: whose full extraction neither split the residual nor hit the component
#: cache, the search switches to the cheaper split-free extraction ...
_SPLIT_PATIENCE = 8
#: ... probing the full pass again every this many node evaluations.
_SPLIT_PROBE = 32

#: The EVSIDS activity term joins the branching score only once the
#: *current* component search has seen at least ``_ACTIVITY_MIN_CONFLICTS``
#: conflicts *and* more than one conflict per ``_ACTIVITY_RATE_GATE``
#: decisions (a latch: once crossed, activity branching stays on for the
#: rest of that search).  Below the threshold the order is exactly MOMS:
#: on conflict-light (model-dense) searches, activity — whether carried
#: over from earlier searches of the same engine or accrued from a few
#: stray conflicts — is pure noise that used to cost the random-3-CNF
#: suite its v2 parity, while conflict-rich searches (the refutation-heavy
#: Theta_1 groundings) cross the threshold within a handful of decisions.
_ACTIVITY_RATE_GATE = 16
_ACTIVITY_MIN_CONFLICTS = 8

_BRANCHING_CHOICES = ("evsids", "moms")


class EngineStats:
    """Counters describing the work done by the engine.

    ``propagations`` counts assigned literals, ``watch_moves`` counts
    watch-list relocations during propagation, ``key_hits``/``key_misses``
    describe the canonical-key memo, ``cache_hits``/``cache_misses`` the
    component value cache, and ``parallel_tasks`` the number of top-level
    components dispatched to worker processes.  The conflict-driven search
    adds ``conflicts`` (falsified clauses found during propagation),
    ``learned_clauses`` (1-UIP clauses derived from them),
    ``backjumps``/``backjump_levels`` (non-chronological returns and the
    total number of decision levels they unwound), ``db_reductions``
    (LBD-based learned-database halvings), ``phase_hits`` (decisions
    whose first branch polarity came from a saved phase), and
    ``restarts`` (Luby restarts taken when the ``restarts=`` knob is
    on).  The
    fault-tolerant parallel path adds ``worker_retries`` (crashed pools
    retried once on a fresh pool) and ``degraded_to_serial`` (component
    tasks served in-process after the retry also failed); both paths
    return bit-identical counts.
    """

    __slots__ = ("calls", "decisions", "propagations", "watch_moves",
                 "component_splits", "cache_hits", "cache_misses",
                 "key_hits", "key_misses", "parallel_tasks",
                 "conflicts", "learned_clauses", "backjumps",
                 "backjump_levels", "db_reductions", "phase_hits",
                 "restarts", "worker_retries", "degraded_to_serial")

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.decisions = 0
        self.propagations = 0
        self.watch_moves = 0
        self.component_splits = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.key_hits = 0
        self.key_misses = 0
        self.parallel_tasks = 0
        self.conflicts = 0
        self.learned_clauses = 0
        self.backjumps = 0
        self.backjump_levels = 0
        self.db_reductions = 0
        self.phase_hits = 0
        self.restarts = 0
        self.worker_retries = 0
        self.degraded_to_serial = 0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def hit_rates(self):
        """Per-cache hit rates (``None`` when a cache saw no lookups)."""
        return {
            "cache_hit_rate": _hit_rate(self.cache_hits, self.cache_misses),
            "key_hit_rate": _hit_rate(self.key_hits, self.key_misses),
        }

    def merge_worker(self, counters):
        """Fold a worker task's counter dict into these statistics, so
        parallel runs report the work actually done (``calls`` excluded:
        a worker task is not a separate engine call)."""
        for name, value in counters.items():
            if name != "calls":
                setattr(self, name, getattr(self, name) + value)

    def __repr__(self):
        body = ", ".join("{}={}".format(k, v) for k, v in self.as_dict().items())
        return "EngineStats({})".format(body)


def _hit_rate(hits, misses):
    lookups = hits + misses
    return round(hits / lookups, 4) if lookups else None


#: Caches and stats shared by all engines by default.  The value cache is
#: safe to share because its keys embed the weight pair of every variable
#: in the component; the key cache stores weight-*independent* canonical
#: renamings, so it is safe to share unconditionally.
_SHARED_CACHE = {}
_SHARED_KEY_CACHE = {}
_SHARED_STATS = EngineStats()

#: Memoized CNF conversions for :func:`wmc_formula`.  Lineages are
#: interned by the grounding cache, so repeated counts of the same ground
#: formula (weight sweeps, probability numerators, benchmarks) skip
#: ``to_cnf`` entirely.
_CNF_CACHE = LRUCache(maxsize=64)


#: Serializes :func:`engine_stats` against :func:`reset_engine`: a
#: snapshot assembled while a concurrent reset zeroes the counters one
#: by one would report a torn view (some counters pre-reset, some
#: post), and ``dict(_TRACE_COUNTERS)`` mid-``clear`` can raise.  The
#: lock makes both operations atomic with respect to each other; the
#: engine's hot path never touches it.
_STATS_LOCK = threading.Lock()

#: Structured-log channel for engine degradation events (worker crashes,
#: serial fallbacks).  Silent unless the host configures logging.
_LOG = get_logger("engine")


def engine_stats():
    """Shared engine statistics plus cache sizes and per-cache hit rates.

    Returns a fresh dict (callers may mutate it freely); the reads are
    taken under one lock shared with :func:`reset_engine`, so a
    snapshot is never torn by a concurrent reset.
    """
    with _STATS_LOCK:
        stats = _SHARED_STATS.as_dict()
        stats["cache_entries"] = len(_SHARED_CACHE)
        stats["key_entries"] = len(_SHARED_KEY_CACHE)
        stats["cnf_cache"] = _CNF_CACHE.stats()
        stats["trace_templates"] = len(_TRACE_TEMPLATES)
        stats.update(_TRACE_COUNTERS)
        stats.update(_SHARED_STATS.hit_rates())
    return stats


def reset_engine():
    """Clear the shared caches and zero the shared statistics."""
    with _STATS_LOCK:
        _SHARED_CACHE.clear()
        _SHARED_KEY_CACHE.clear()
        _CNF_CACHE.clear()
        _TRACE_TEMPLATES.clear()
        for name in _TRACE_COUNTERS:
            _TRACE_COUNTERS[name] = 0
        _SHARED_STATS.reset()


def _exact(value):
    """Keep integer-valued weights as machine ints for fast arithmetic."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    frac = Fraction(value)
    return frac.numerator if frac.denominator == 1 else frac


# -- watched-literal propagation core ---------------------------------------
#
# The propagation state of one search node is four plain containers kept in
# locals for speed:
#
#   clause_lits  list of clause tuples (>= 2 distinct literals each)
#   watches      dict literal -> list of clause indices watching it
#   watch_pair   list of 2-element lists: the literals clause ci watches
#   assign       dict var -> bool (the trail records insertion order)
#
# Watch lists tolerate stale entries (a clause that moved a watch away is
# lazily dropped the next time the old list is scanned), which lets the two
# branch polarities share one watch structure without undo bookkeeping: the
# watched-literal invariant only requires watched literals to be non-false,
# and between polarities the assignment is reset to empty.


def _propagate(clause_lits, watches, watch_pair, assign, trail, queue, stats):
    """Propagate ``queue`` to fixpoint.  Returns ``False`` on conflict.

    Every assignment visits only the watchers of the falsified literal;
    no clause list is ever rescanned.
    """
    propagations = 0
    moves = 0
    qi = 0
    while qi < len(queue):
        lit = queue[qi]
        qi += 1
        if lit > 0:
            var, want = lit, True
        else:
            var, want = -lit, False
        current = assign.get(var)
        if current is not None:
            if current is not want:
                stats.propagations += propagations
                stats.watch_moves += moves
                return False
            continue
        assign[var] = want
        trail.append(var)
        propagations += 1
        false_lit = -lit
        watchlist = watches.get(false_lit)
        if not watchlist:
            continue
        keep = []
        conflict = False
        for idx, ci in enumerate(watchlist):
            pair = watch_pair[ci]
            first, second = pair
            if first == false_lit:
                other = second
            elif second == false_lit:
                other = first
            else:
                continue  # stale entry: the clause moved this watch away
            if other > 0:
                other_var, other_want = other, True
            else:
                other_var, other_want = -other, False
            other_value = assign.get(other_var)
            if other_value is other_want:
                keep.append(ci)  # clause satisfied; leave the watch put
                continue
            moved = False
            for l in clause_lits[ci]:
                if l == other or l == false_lit:
                    continue
                v = l if l > 0 else -l
                value = assign.get(v)
                if value is None or value is (l > 0):
                    pair[0] = other
                    pair[1] = l
                    target = watches.get(l)
                    if target is None:
                        watches[l] = [ci]
                    else:
                        target.append(ci)
                    moved = True
                    moves += 1
                    break
            if moved:
                continue
            keep.append(ci)
            if other_value is None:
                queue.append(other)  # unit: the other watch is forced
            else:
                conflict = True  # other watch false, no replacement
                break
        if conflict:
            # Preserve the unprocessed tail so the watch lists stay
            # consistent for the sibling polarity (ci itself is in keep).
            watches[false_lit] = keep + watchlist[idx + 1:]
            stats.propagations += propagations
            stats.watch_moves += moves
            return False
        watches[false_lit] = keep
    stats.propagations += propagations
    stats.watch_moves += moves
    return True


def _find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _residual_components(clause_lits, assign):
    """One fused pass: extract the residual, split it into components.

    Returns ``(components, residual_vars)`` where ``components`` is a list
    of tuples of residual clause tuples and ``residual_vars`` is a set-like
    view of the unassigned variables still mentioned (the union-find parent
    map, whose keys are exactly those variables).

    After a conflict-free propagation every unsatisfied clause has at
    least two unassigned literals, so no residual clause is empty or unit.
    """
    parent = {}
    residual = []
    assign_get = assign.get
    for c in clause_lits:
        keep = None
        satisfied = False
        for i, l in enumerate(c):
            value = assign_get(l if l > 0 else -l)
            if value is None:
                if keep is not None:
                    keep.append(l)
            elif value is (l > 0):
                satisfied = True
                break
            elif keep is None:
                keep = list(c[:i])
        if satisfied:
            continue
        clause = c if keep is None else tuple(keep)
        l0 = clause[0]
        first = l0 if l0 > 0 else -l0
        if first not in parent:
            parent[first] = first
        for l in clause[1:]:
            v = l if l > 0 else -l
            if v not in parent:
                parent[v] = v
                parent[_find(parent, first)] = v
                continue
            ra, rb = _find(parent, first), _find(parent, v)
            if ra != rb:
                parent[ra] = rb
        residual.append(clause)

    if not residual:
        return [], parent
    groups = {}
    for clause in residual:
        l0 = clause[0]
        root = _find(parent, l0 if l0 > 0 else -l0)
        group = groups.get(root)
        if group is None:
            groups[root] = [clause]
        else:
            group.append(clause)
    return [tuple(g) for g in groups.values()], parent


def _residual_light(clause_lits, assign):
    """Split-free residual extraction for the adaptive fast path.

    Like :func:`_residual_components` but skips the union-find and the
    per-component grouping: returns ``(residual clause tuple, mentioned
    variable set)``.  Used when a search has stopped producing splits or
    cache hits, where the component machinery is pure overhead.
    """
    residual = []
    mentioned = set()
    mentioned_add = mentioned.add
    assign_get = assign.get
    for c in clause_lits:
        keep = None
        satisfied = False
        for i, l in enumerate(c):
            value = assign_get(l if l > 0 else -l)
            if value is None:
                if keep is not None:
                    keep.append(l)
            elif value is (l > 0):
                satisfied = True
                break
            elif keep is None:
                keep = list(c[:i])
        if satisfied:
            continue
        clause = c if keep is None else tuple(keep)
        residual.append(clause)
        for l in clause:
            mentioned_add(l if l > 0 else -l)
    return tuple(residual), mentioned


def _clause_scores(component):
    """Per-variable occurrence counts: overall and in minimum-size clauses
    (the two MOMS signals, also the dynamic term of the VSADS scorer)."""
    occurrences = {}
    occurrences_get = occurrences.get
    short_scores = {}
    short_scores_get = short_scores.get
    min_len = min(len(c) for c in component)
    for c in component:
        short = len(c) == min_len
        for lit in c:
            v = lit if lit > 0 else -lit
            occurrences[v] = occurrences_get(v, 0) + 1
            if short:
                short_scores[v] = short_scores_get(v, 0) + 1
    return occurrences, short_scores


def _moms_var(component):
    """The MOMS decision variable of a component: most occurrences in
    minimum-size clauses, occurrences overall as the tie-break."""
    occurrences, short_scores = _clause_scores(component)
    return max(short_scores,
               key=lambda v: (short_scores[v], occurrences[v], -v))


# -- conflict-driven search core ---------------------------------------------
#
# The CDCL search keeps one persistent trail per component search:
#
#   assign   var -> bool            vlevel  var -> decision level
#   reason   var -> clause index (None for decisions and level-0 units)
#   trail    assignment order (vars)
#
# ``clauses`` holds the component's clauses followed by learned clauses
# (indices >= n_orig).  Learned clauses participate in propagation only;
# implications of variables outside ``allowed`` (the current component of
# the counting recursion) are blocked, which is what keeps learning sound
# under component caching.


def _propagate_trail(clauses, watches, watch_pair, assign, vlevel, reason,
                     trail, queue, level, allowed, n_orig, stats):
    """Propagate ``queue`` (literal, antecedent) pairs to fixpoint.

    Records the decision level and antecedent clause of every assignment,
    so a conflict can be analyzed.  Returns the index of a falsified
    clause, or ``-1`` when propagation completes without conflict.
    """
    propagations = 0
    moves = 0
    qi = 0
    while qi < len(queue):
        lit, why = queue[qi]
        qi += 1
        if lit > 0:
            var, want = lit, True
        else:
            var, want = -lit, False
        current = assign.get(var)
        if current is not None:
            if current is not want:
                # ``why`` forced ``lit`` while ``var`` holds the opposite
                # value, so ``why`` is falsified (decisions and asserting
                # literals always target unassigned variables).
                stats.propagations += propagations
                stats.watch_moves += moves
                return why
            continue
        assign[var] = want
        vlevel[var] = level
        reason[var] = why
        trail.append(var)
        propagations += 1
        false_lit = -lit
        watchlist = watches.get(false_lit)
        if not watchlist:
            continue
        keep = []
        conflict = -1
        for idx, ci in enumerate(watchlist):
            pair = watch_pair[ci]
            first, second = pair
            if first == false_lit:
                other = second
            elif second == false_lit:
                other = first
            else:
                continue  # stale entry: the clause moved this watch away
            if other > 0:
                other_var, other_want = other, True
            else:
                other_var, other_want = -other, False
            other_value = assign.get(other_var)
            if other_value is other_want:
                keep.append(ci)  # clause satisfied; leave the watch put
                continue
            moved = False
            for l in clauses[ci]:
                if l == other or l == false_lit:
                    continue
                v = l if l > 0 else -l
                value = assign.get(v)
                if value is None or value is (l > 0):
                    pair[0] = other
                    pair[1] = l
                    target = watches.get(l)
                    if target is None:
                        watches[l] = [ci]
                    else:
                        target.append(ci)
                    moved = True
                    moves += 1
                    break
            if moved:
                continue
            keep.append(ci)
            if other_value is None:
                if ci >= n_orig and other_var not in allowed:
                    # A learned clause implying a variable outside the
                    # current component: blocked (see module docstring).
                    continue
                queue.append((other, ci))
            else:
                conflict = ci  # other watch false, no replacement
                break
        if conflict >= 0:
            watches[false_lit] = keep + watchlist[idx + 1:]
            stats.propagations += propagations
            stats.watch_moves += moves
            return conflict
        watches[false_lit] = keep
    stats.propagations += propagations
    stats.watch_moves += moves
    return -1


def _analyze_conflict(clauses, conflict, assign, vlevel, reason, trail, level):
    """Derive the 1-UIP learned clause from a falsified clause.

    Resolves the conflict clause against the antecedents of its
    current-level literals, walking the trail backwards, until exactly one
    literal of decision level ``level`` remains — the first unique
    implication point.  Level-0 literals (units entailed by the component)
    are dropped.

    Returns ``(learned, assert_level, lbd, seen)``: the learned clause as
    a literal tuple whose *first* literal is the asserting (negated UIP)
    literal, the backjump level (the deepest level among the remaining
    literals, 0 for a unit), the literal block distance (number of
    distinct decision levels in the clause), and the set of variables
    resolved along the way (for activity bumping).
    """
    seen = set()
    seen_add = seen.add
    lower = []  # literals assigned below the conflict level
    counter = 0
    for l in clauses[conflict]:
        v = l if l > 0 else -l
        lv = vlevel[v]
        if lv == 0 or v in seen:
            continue
        seen_add(v)
        if lv == level:
            counter += 1
        else:
            lower.append(l)
    i = len(trail) - 1
    while True:
        v = trail[i]
        i -= 1
        if v not in seen:
            continue
        counter -= 1
        if counter == 0:
            uip = v
            break
        for l in clauses[reason[v]]:
            u = l if l > 0 else -l
            if u == v:
                continue
            lv = vlevel[u]
            if lv == 0 or u in seen:
                continue
            seen_add(u)
            if lv == level:
                counter += 1
            else:
                lower.append(l)
    uip_lit = -uip if assign[uip] else uip
    learned = (uip_lit,) + tuple(lower)
    if lower:
        levels = {vlevel[l if l > 0 else -l] for l in lower}
        assert_level = max(levels)
        lbd = len(levels) + 1
    else:
        assert_level = 0
        lbd = 1
    return learned, assert_level, lbd, seen


class _SearchNode:
    """One level of the conflict-driven counting search.

    A node counts one residual component: ``acc`` accumulates the value of
    completed decision branches, ``prefix`` carries the current branch's
    weight factor (level literals, vanished variables, cache-hit children),
    and ``start``/``prop_end`` delimit the node's trail segment.  ``key``
    is the component's cache key (``None`` in split-free fast mode, where
    the residual was never canonicalized).
    """

    __slots__ = ("component", "comp_vars", "key", "branches", "branch_idx",
                 "acc", "prefix", "start", "prop_end")

    def __init__(self, component, comp_vars, key, branches, start):
        self.component = component
        self.comp_vars = comp_vars
        self.key = key
        self.branches = branches
        self.branch_idx = -1
        self.acc = 0
        self.prefix = 1
        self.start = start
        self.prop_end = start


def _canonical_structure(component):
    """Weight-independent canonical form of a component.

    Variables are renamed to first-occurrence order; returns the sorted
    renamed clause rows plus the original variables in renaming order (so
    a weight row can be assembled per engine without re-normalizing).
    """
    rename = {}
    rename_get = rename.get
    var_order = []
    rows = []
    for c in component:
        row = []
        for lit in c:
            v = lit if lit > 0 else -lit
            idx = rename_get(v)
            if idx is None:
                idx = len(var_order) + 1
                rename[v] = idx
                var_order.append(v)
            row.append(idx if lit > 0 else -idx)
        row.sort()
        rows.append(tuple(row))
    rows.sort()
    return tuple(rows), tuple(var_order)


def _canonical_entry(component, key_cache, stats):
    """The memoized ``(canonical rows, var order)`` of a component."""
    entry = key_cache.get(component)
    if entry is None:
        stats.key_misses += 1
        entry = _canonical_structure(component)
        if len(key_cache) >= MAX_KEY_CACHE_ENTRIES:
            key_cache.clear()
        key_cache[component] = entry
    else:
        stats.key_hits += 1
    return entry


class CountingEngine:
    """Exact WMC over integer-variable clauses with component caching.

    ``weights`` maps each variable to its ``(w, wbar)`` pair and ``totals``
    to ``w + wbar``; values may be ints or Fractions.  ``cache``/``stats``/
    ``key_cache`` default to module-level shared instances.  ``workers``
    (``None`` or an int > 1) enables process-pool counting of top-level
    components.

    ``learn`` (default ``True``) selects the conflict-driven search with
    1-UIP clause learning; ``False`` restores the learning-free MOMS
    engine.  ``branching`` picks the decision heuristic of the learning
    search: ``"evsids"`` (default) or ``"moms"`` for ablation.
    ``max_learned`` bounds the learned-clause database of one component
    search before an LBD-based reduction drops the worst half.
    ``phase_saving`` (default on) branches each decision into the
    polarity a backjump last undid for that variable.  ``restarts``
    (off by default) enables Luby restarts of the learning search with
    the given unit in conflicts.  All knobs leave the counted value
    bit-identical — they only steer the search.
    """

    __slots__ = ("weights", "totals", "cache", "stats", "key_cache",
                 "workers", "branching", "learn", "max_learned",
                 "activity", "var_inc", "persist_dir", "phase_saving",
                 "restarts", "saved_phase", "search_conflicts",
                 "search_decisions", "search_activity_on", "budget")

    def __init__(self, weights, totals, cache=None, stats=None,
                 key_cache=None, workers=None, branching=None, learn=None,
                 max_learned=None, persist_dir=None, phase_saving=None,
                 restarts=None, budget=None):
        self.weights = weights
        self.totals = totals
        self.cache = _SHARED_CACHE if cache is None else cache
        self.stats = _SHARED_STATS if stats is None else stats
        self.key_cache = _SHARED_KEY_CACHE if key_cache is None else key_cache
        self.workers = workers
        branching = "evsids" if branching is None else branching
        if branching not in _BRANCHING_CHOICES:
            raise ValueError("unknown branching {!r}; expected one of {}"
                             .format(branching, _BRANCHING_CHOICES))
        self.branching = branching
        self.learn = True if learn is None else bool(learn)
        self.max_learned = DEFAULT_MAX_LEARNED if max_learned is None else max_learned
        #: Phase saving: variables unassigned by a backjump remember
        #: their last polarity, and later decisions on them branch into
        #: that polarity first (w-first order is the fallback).  Like
        #: every search knob it never changes the counted value — in an
        #: exhaustive counting search both polarities are explored, the
        #: saved phase only picks which one the search re-enters first,
        #: which steers where conflicts (and thus learned clauses and
        #: backjumps) happen.
        self.phase_saving = (DEFAULT_PHASE_SAVING if phase_saving is None
                             else bool(phase_saving))
        #: Luby restart unit in conflicts (0/None = no restarts).  A
        #: restart abandons every decision level of the current
        #: component search, keeping learned clauses and level-0 units;
        #: abandoned partial sums are recomputed through the component
        #: cache, so the counted value never changes.
        self.restarts = 0 if restarts is None else int(restarts)
        self.saved_phase = {}
        #: When set, top-level components dispatched to worker processes
        #: carry this cache directory so the workers read and write the
        #: same persistent store as the parent.
        self.persist_dir = persist_dir
        #: EVSIDS activities are engine-local and shared across the
        #: component searches of one run, so structure discovered in one
        #: search region steers decisions in the next.  Whether a given
        #: *search* consults them is gated on its own conflict rate (see
        #: ``_ACTIVITY_RATE_GATE``), tracked by the two counters below.
        self.activity = {}
        self.var_inc = 1.0
        self.search_conflicts = 0
        self.search_decisions = 0
        self.search_activity_on = False
        #: Optional :class:`~repro.resilience.limits.Budget`: charged per
        #: decision and per conflict; ``None`` costs one attribute load
        #: per decision.  Never shipped to worker payloads — deadlines
        #: are enforced in the parent while polling futures.
        self.budget = budget

    # -- public entry ------------------------------------------------------

    def run(self, clauses, trusted=False):
        """WMC over exactly the variables occurring in ``clauses``.

        ``trusted`` skips per-clause literal deduplication for callers
        (like :func:`wmc_cnf`) whose clauses are already duplicate-free
        tuples with at least one literal each.
        """
        return Fraction(self._run(clauses, trusted))

    def _run(self, clauses, trusted):
        """:meth:`run` without the final conversion: the search's own
        value (an int, a Fraction, or a trace value in trace mode)."""
        self.stats.calls += 1
        if trusted:
            normalized = clauses if isinstance(clauses, tuple) else tuple(clauses)
        else:
            normalized = []
            for c in clauses:
                c = tuple(dict.fromkeys(c))  # drop duplicate literals
                if not c:
                    return 0
                normalized.append(c)
            normalized = tuple(normalized)
        if not normalized:
            return 1
        # Deep instances recurse one frame set per decision level; raise
        # the interpreter limit proportionally but keep a hard cap so a
        # pathological instance raises RecursionError instead of
        # overflowing the C stack, and restore the limit afterwards.
        limit = sys.getrecursionlimit()
        needed = min(12 * len(self.weights) + 1000, MAX_RECURSION_LIMIT)
        if limit < needed:
            sys.setrecursionlimit(needed)
        try:
            return self._reduce(normalized)
        except BudgetExceededError as exc:
            # Attach the partial statistics once, at the top level: the
            # inner loops stay free of bookkeeping, and callers see how
            # far the aborted run got.
            if exc.engine_stats is None:
                exc.engine_stats = self.stats
            raise
        finally:
            if limit < needed:
                sys.setrecursionlimit(limit)

    # -- node evaluation ---------------------------------------------------

    def _reduce(self, clauses):
        """Evaluate the top-level node: propagate units, split, recurse."""
        factor = 1
        if any(len(c) == 1 for c in clauses):
            propagated = self._reduce_units(clauses)
            if propagated is None:
                return 0
            factor, components = propagated
            if factor == 0:
                return 0
        else:
            # Unit-free: nothing propagates and no variable vanishes, so
            # the node is exactly its component split — memoized on the
            # frozen clause tuple (tagged so it shares the key cache),
            # which makes a repeated run a handful of dict hits.
            key_cache = self.key_cache
            memo_key = ("split", clauses)
            components = key_cache.get(memo_key)
            if components is None:
                components, _residual_vars = _residual_components(clauses, {})
                if len(key_cache) >= MAX_KEY_CACHE_ENTRIES:
                    key_cache.clear()
                key_cache[memo_key] = components
        if len(components) > 1:
            self.stats.component_splits += 1
            if self.workers and self.workers > 1:
                return factor * self._count_components_parallel(components)
        for component in components:
            value = self._count_component(component)
            if value == 0:
                return 0
            factor *= value
        return factor

    def _reduce_units(self, clauses):
        """Top-level build + unit propagation; ``None`` on conflict,
        otherwise ``(weight factor, residual components)``."""
        watches = {}
        watch_pair = []
        watched = []
        queue = []
        all_vars = set()
        for c in clauses:
            for lit in c:
                all_vars.add(lit if lit > 0 else -lit)
            if len(c) == 1:
                queue.append(c[0])
            else:
                ci = len(watched)
                watched.append(c)
                watch_pair.append([c[0], c[1]])
                watches.setdefault(c[0], []).append(ci)
                watches.setdefault(c[1], []).append(ci)

        assign = {}
        trail = []
        if not _propagate(watched, watches, watch_pair, assign, trail,
                          queue, self.stats):
            return None
        weights = self.weights
        factor = 1
        for v in trail:
            pair = weights[v]
            factor *= pair[0] if assign[v] else pair[1]
        if factor == 0:
            # Sound: the remaining count is finite and multiplied by 0.
            return 0, []
        components, residual_vars = _residual_components(watched, assign)
        totals = self.totals
        for v in all_vars:
            if v not in assign and v not in residual_vars:
                factor *= totals[v]
        return factor, components

    # -- component cache ---------------------------------------------------

    def _component_key(self, component):
        """Cache key for a component: memoized canonical structure plus
        the weight row assembled for this engine's weight function.

        Returns ``(key, var_order)`` — the component's variables in
        first-occurrence order ride along so callers never re-derive the
        variable set.
        """
        rows, var_order = _canonical_entry(component, self.key_cache,
                                           self.stats)
        weights = self.weights
        return (rows, tuple(weights[v] for v in var_order)), var_order

    def _count_component(self, component):
        """Count one variable-connected component through the cache."""
        key, var_order = self._component_key(component)
        cached = self.cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1
        return self._count_component_miss(component, key, var_order)

    def _count_component_miss(self, component, key, var_order):
        """Search a component that missed the cache, then store its value."""
        if self.learn:
            # Each component search earns activity branching with its own
            # conflict rate; the counters are engine attributes (so
            # ``_make_node`` sees them) saved and restored here because
            # searches nest through split-off children.
            saved = (self.search_conflicts, self.search_decisions,
                     self.search_activity_on)
            self.search_conflicts = 0
            self.search_decisions = 0
            self.search_activity_on = False
            try:
                result = self._cdcl_count(component, var_order)
            finally:
                (self.search_conflicts, self.search_decisions,
                 self.search_activity_on) = saved
        else:
            result = self._branch(component, var_order)
        cache = self.cache
        if len(cache) >= MAX_CACHE_ENTRIES:
            cache.clear()
        cache[key] = result
        return result

    # -- conflict-driven counting search -----------------------------------

    def _make_node(self, component, comp_vars, key, start):
        """Create a search node: pick its decision variable and branches.

        The default heuristic is VSADS-style: EVSIDS conflict activity
        plus ``var_inc`` per occurrence in a minimum-size clause of the
        *current* component.  The two terms are self-scaling — on
        conflict-free (model-dense) searches the dynamic MOMS term
        dominates and the engine branches like the legacy counter, while
        accumulating conflicts grow ``var_inc`` exponentially and hand
        control to the learned activities.  The activity term is
        additionally gated on the current search's conflict rate
        (``_ACTIVITY_RATE_GATE``): until this search itself proves
        conflict-rich, stale activity from earlier searches is ignored
        and the order is exactly MOMS.  Zero-weight polarities are
        skipped exactly like the legacy engine (a node with no branches
        completes with value 0).
        """
        self.stats.decisions += 1
        self.search_decisions += 1
        if self.budget is not None:
            self.budget.spend_decision()
        if self.branching == "moms" or not self.search_activity_on:
            var = _moms_var(component)
        else:
            activity_get = self.activity.get
            inc = self.var_inc
            occurrences, short = _clause_scores(component)
            occurrences_get = occurrences.get
            short_get = short.get
            # With no conflict activity yet this is exactly the MOMS
            # order; activity breaks in smoothly as conflicts accumulate.
            var = max(
                comp_vars,
                key=lambda v: (activity_get(v, 0.0) + inc * short_get(v, 0),
                               occurrences_get(v, 0), -v),
            )
        w, wbar = self.weights[var]
        positive_first = True
        if self.phase_saving:
            saved = self.saved_phase.get(var)
            if saved is not None:
                positive_first = saved
                self.stats.phase_hits += 1
        branches = []
        order = (var, -var) if positive_first else (-var, var)
        for lit in order:
            if (w if lit > 0 else wbar) != 0:
                branches.append(lit)
        return _SearchNode(component, comp_vars, key, branches, start)

    def _cdcl_count(self, component, var_order):
        """Count one component with the conflict-driven iterative search.

        The search keeps a single persistent trail: each stack node counts
        one residual component by summing its decision branches, children
        that split off go through the component cache (a lone cache-missed
        child is descended into on the same trail; two or more are truly
        independent and recurse into fresh searches).  Conflicts learn a
        1-UIP clause and backjump to the asserting level; the abandoned
        levels are recomputed through the cache, which is the sound way to
        combine far backtracking with exact counting (no unexplored branch
        is ever skipped).
        """
        stats = self.stats
        weights = self.weights
        totals = self.totals
        cache = self.cache
        activity = self.activity
        evsids = self.branching == "evsids"
        max_learned = self.max_learned
        budget = self.budget

        n_orig = len(component)
        clauses = list(component)
        lbds = []
        watches = {}
        watch_pair = []
        watches_setdefault = watches.setdefault
        for ci, c in enumerate(clauses):
            watch_pair.append([c[0], c[1]])
            watches_setdefault(c[0], []).append(ci)
            watches_setdefault(c[1], []).append(ci)

        assign = {}
        vlevel = {}
        reason = {}
        trail = []

        def handle_conflicts(conflict):
            """Analyze/learn/backjump until propagation settles.

            Returns ``True`` when the search is refuted at level 0 (the
            component, under its level-0 lemmas, is unsatisfiable).
            """
            while conflict >= 0:
                level = len(stack) - 1
                if level == 0:
                    return True
                stats.conflicts += 1
                self.search_conflicts += 1
                if budget is not None:
                    budget.spend_conflict()
                if (not self.search_activity_on
                        and self.search_conflicts >= _ACTIVITY_MIN_CONFLICTS
                        and self.search_conflicts * _ACTIVITY_RATE_GATE
                        > self.search_decisions):
                    self.search_activity_on = True
                learned, a_level, lbd, seen = _analyze_conflict(
                    clauses, conflict, assign, vlevel, reason, trail, level)
                if evsids:
                    inc = self.var_inc
                    bump_get = activity.get
                    for v in seen:
                        activity[v] = bump_get(v, 0.0) + inc
                    inc *= _VSIDS_INV_DECAY
                    if inc > _VSIDS_RESCALE:
                        for v in activity:
                            activity[v] *= 1e-100
                        inc *= 1e-100
                    self.var_inc = inc
                stats.backjumps += 1
                stats.backjump_levels += level - a_level
                del stack[a_level + 1:]
                node = stack[-1]
                if self.phase_saving:
                    saved_phase = self.saved_phase
                    for v in trail[node.prop_end:]:
                        saved_phase[v] = assign[v]
                        del assign[v]
                        del vlevel[v]
                        del reason[v]
                else:
                    for v in trail[node.prop_end:]:
                        del assign[v]
                        del vlevel[v]
                        del reason[v]
                del trail[node.prop_end:]
                uip_lit = learned[0]
                stats.learned_clauses += 1
                if len(learned) > 1:
                    ci = len(clauses)
                    clauses.append(learned)
                    lbds.append(lbd)
                    # Watch the asserting literal plus one literal of the
                    # backjump level, the deepest of the rest, so undoing
                    # deeper levels keeps both watches non-false.
                    second = None
                    for l in learned[1:]:
                        if vlevel[l if l > 0 else -l] == a_level:
                            second = l
                            break
                    watch_pair.append([uip_lit, second])
                    watches_setdefault(uip_lit, []).append(ci)
                    watches_setdefault(second, []).append(ci)
                    why = ci
                else:
                    # Unit lemma: entailed by the component outright, so it
                    # holds at level 0 for the rest of the search (level-0
                    # literals are never resolved by conflict analysis).
                    why = None
                conflict = _propagate_trail(
                    clauses, watches, watch_pair, assign, vlevel, reason,
                    trail, [(uip_lit, why)], a_level, node.comp_vars,
                    n_orig, stats)
            node = stack[-1]
            node.prop_end = len(trail)
            if len(clauses) - n_orig > max_learned:
                self._reduce_learned_db(clauses, lbds, watches, watch_pair,
                                        reason, n_orig)
            return False

        root = _SearchNode(component, set(var_order), None, (None,), 0)
        stack = [root]
        evals = 0
        unproductive = 0
        # Luby restarts: fire after ``unit * luby(i)`` conflicts in this
        # search.  ``restart_at`` is the absolute stats.conflicts mark of
        # the next restart (stats.conflicts only grows within a search).
        restart_unit = self.restarts
        restart_idx = 1
        restart_at = (stats.conflicts + restart_unit * _luby(restart_idx)
                      if restart_unit else None)

        ADVANCE, EVAL, BRANCH_DONE = 0, 1, 2
        state = ADVANCE
        value = 0  # the branch value consumed by BRANCH_DONE

        while True:
            node = stack[-1]
            if state == BRANCH_DONE:
                node.acc += value
                state = ADVANCE
                continue

            if state == ADVANCE:
                node.branch_idx += 1
                for v in trail[node.start:]:
                    del assign[v]
                    del vlevel[v]
                    del reason[v]
                del trail[node.start:]
                if node.branch_idx >= len(node.branches):
                    # Node complete: its accumulator is the standalone
                    # count of its component.
                    result = node.acc
                    stack.pop()
                    if node.key is not None:
                        if len(cache) >= MAX_CACHE_ENTRIES:
                            cache.clear()
                        cache[node.key] = result
                    if not stack:
                        return result
                    value = 0 if result == 0 else stack[-1].prefix * result
                    state = BRANCH_DONE
                    continue
                lit = node.branches[node.branch_idx]
                if lit is None:  # the root's single pseudo-branch
                    node.prop_end = len(trail)
                    state = EVAL
                    continue
                conflict = _propagate_trail(
                    clauses, watches, watch_pair, assign, vlevel, reason,
                    trail, [(lit, None)], len(stack) - 1, node.comp_vars,
                    n_orig, stats)
                if conflict >= 0:
                    if handle_conflicts(conflict):
                        return 0
                    if (restart_at is not None and stats.conflicts >= restart_at
                            and len(stack) > 1):
                        # Luby restart: abandon every decision level and
                        # re-enter from the root — the same move as a
                        # backjump to level 0, so learned clauses and
                        # level-0 units survive and the abandoned partial
                        # sums are recomputed through the component
                        # cache.  The root's accumulator is untouched (it
                        # only ever receives the value of its single
                        # completed branch), so no weight is counted
                        # twice.
                        stats.restarts += 1
                        node = stack[0]
                        del stack[1:]
                        if self.phase_saving:
                            saved_phase = self.saved_phase
                            for v in trail[node.prop_end:]:
                                saved_phase[v] = assign[v]
                                del assign[v]
                                del vlevel[v]
                                del reason[v]
                        else:
                            for v in trail[node.prop_end:]:
                                del assign[v]
                                del vlevel[v]
                                del reason[v]
                        del trail[node.prop_end:]
                        restart_idx += 1
                        restart_at = (stats.conflicts
                                      + restart_unit * _luby(restart_idx))
                else:
                    node.prop_end = len(trail)
                state = EVAL
                continue

            # state == EVAL: the top node's current branch has a settled
            # trail segment; weigh it, extract the residual, and route the
            # children through the cache.
            factor = 1
            for v in trail[node.start:]:
                pair = weights[v]
                factor *= pair[0] if assign[v] else pair[1]
            if factor == 0:
                value = 0
                state = BRANCH_DONE
                continue
            comp_vars = node.comp_vars
            if len(stack) == 1 and not trail:
                # First evaluation of the root: nothing is assigned, so
                # the residual is the component itself (whose cache entry
                # the calling wrapper owns) — descend straight into it.
                stack.append(self._make_node(node.component, comp_vars,
                                             None, 0))
                state = ADVANCE
                continue
            evals += 1
            if unproductive < _SPLIT_PATIENCE or evals % _SPLIT_PROBE == 0:
                components, residual_vars = _residual_components(
                    node.component, assign)
                for v in comp_vars:
                    if v not in assign and v not in residual_vars:
                        factor *= totals[v]
                if not components:
                    value = factor
                    state = BRANCH_DONE
                    continue
                productive = len(components) > 1
                if productive:
                    stats.component_splits += 1
                missed = None
                zero = False
                for comp in components:
                    key, vorder = self._component_key(comp)
                    cached = cache.get(key)
                    if cached is not None:
                        stats.cache_hits += 1
                        productive = True
                        if cached == 0:
                            zero = True
                            break
                        factor *= cached
                    elif missed is None:
                        missed = [(comp, key, vorder)]
                    else:
                        missed.append((comp, key, vorder))
                if productive:
                    unproductive = 0
                else:
                    unproductive += 1
                if zero:
                    value = 0
                    state = BRANCH_DONE
                    continue
                if missed is None:
                    value = factor
                    state = BRANCH_DONE
                    continue
                if len(missed) > 1:
                    # A true decomposition: the children are independent,
                    # so each gets its own fresh search (learned clauses
                    # never cross the boundary).
                    for comp, key, vorder in missed:
                        stats.cache_misses += 1
                        child_value = self._count_component_miss(
                            comp, key, vorder)
                        if child_value == 0:
                            factor = 0
                            break
                        factor *= child_value
                    value = factor
                    state = BRANCH_DONE
                    continue
                comp, key, vorder = missed[0]
                stats.cache_misses += 1
                node.prefix = factor
                stack.append(self._make_node(comp, set(vorder), key,
                                             len(trail)))
                state = ADVANCE
                continue
            # Fast path: the search has stopped producing splits or cache
            # hits, so skip the union-find and canonicalization (value
            # flows up through the trail instead of the cache).
            residual, mentioned = _residual_light(node.component, assign)
            for v in comp_vars:
                if v not in assign and v not in mentioned:
                    factor *= totals[v]
            if not residual:
                value = factor
                state = BRANCH_DONE
                continue
            node.prefix = factor
            stack.append(self._make_node(residual, mentioned, None,
                                         len(trail)))
            state = ADVANCE
            continue

    def _reduce_learned_db(self, clauses, lbds, watches, watch_pair, reason,
                           n_orig):
        """Halve the learned-clause database.

        Glue clauses (LBD <= 2) and reason-locked clauses (antecedents of
        literals still on the trail) always survive; the rest are ranked
        by LBD (newer wins ties) and the worse half is dropped.  Watch
        lists and antecedent indices are remapped in place.
        """
        locked = set()
        for ci in reason.values():
            if ci is not None and ci >= n_orig:
                locked.add(ci)
        keep = []
        candidates = []
        for ci in range(n_orig, len(clauses)):
            if ci in locked or lbds[ci - n_orig] <= GLUE_LBD:
                keep.append(ci)
            else:
                candidates.append(ci)
        candidates.sort(key=lambda ci: (lbds[ci - n_orig], -ci))
        keep.extend(candidates[:len(candidates) // 2])
        keep.sort()
        remap = {}
        kept_clauses = []
        kept_lbds = []
        kept_pairs = []
        for ci in keep:
            remap[ci] = n_orig + len(kept_clauses)
            kept_clauses.append(clauses[ci])
            kept_lbds.append(lbds[ci - n_orig])
            kept_pairs.append(watch_pair[ci])
        del clauses[n_orig:]
        clauses.extend(kept_clauses)
        lbds[:] = kept_lbds
        del watch_pair[n_orig:]
        watch_pair.extend(kept_pairs)
        for lit in list(watches):
            filtered = []
            for ci in watches[lit]:
                if ci < n_orig:
                    filtered.append(ci)
                else:
                    nci = remap.get(ci)
                    if nci is not None:
                        filtered.append(nci)
            if filtered:
                watches[lit] = filtered
            else:
                del watches[lit]
        for var, ci in reason.items():
            if ci is not None and ci >= n_orig:
                reason[var] = remap[ci]
        self.stats.db_reductions += 1

    # -- branching ---------------------------------------------------------

    def _branch(self, component, var_order):
        """Split on a decision variable chosen to maximize propagation.

        ``component`` clauses all have at least two distinct literals (the
        residual extraction guarantees it), so every clause starts with two
        valid watches.  ``var_order`` is the component's variable set (in
        canonical first-occurrence order, from the key memo).
        """
        stats = self.stats
        stats.decisions += 1
        if self.budget is not None:
            self.budget.spend_decision()
        clause_lits = list(component)

        # Build pass: watch lists plus MOMS scores in one scan.
        watches = {}
        watch_pair = []
        occurrences = {}
        occurrences_get = occurrences.get
        short_scores = {}
        short_scores_get = short_scores.get
        watches_setdefault = watches.setdefault
        min_len = min(len(c) for c in clause_lits)
        for ci, c in enumerate(clause_lits):
            short = len(c) == min_len
            for lit in c:
                v = lit if lit > 0 else -lit
                occurrences[v] = occurrences_get(v, 0) + 1
                if short:
                    short_scores[v] = short_scores_get(v, 0) + 1
            watch_pair.append([c[0], c[1]])
            watches_setdefault(c[0], []).append(ci)
            watches_setdefault(c[1], []).append(ci)

        # MOMS: most occurrences in minimum-size clauses, so the other
        # polarity shortens those clauses toward units.
        var = max(
            short_scores,
            key=lambda v: (short_scores[v], occurrences[v], -v),
        )

        weights = self.weights
        totals = self.totals
        w, wbar = weights[var]
        total = 0
        for lit, lit_weight in ((var, w), (-var, wbar)):
            if lit_weight == 0:
                continue
            assign = {}
            trail = []
            if not _propagate(clause_lits, watches, watch_pair, assign,
                              trail, [lit], stats):
                continue
            factor = 1
            for v in trail:
                pair = weights[v]
                factor *= pair[0] if assign[v] else pair[1]
            if factor == 0:
                continue
            components, residual_vars = _residual_components(clause_lits, assign)
            for v in var_order:
                if v not in assign and v not in residual_vars:
                    factor *= totals[v]
            if len(components) > 1:
                stats.component_splits += 1
            for child in components:
                value = self._count_component(child)
                if value == 0:
                    factor = 0
                    break
                factor *= value
            total += factor
        return total

    # -- parallel counting -------------------------------------------------

    def _count_components_parallel(self, components):
        """Count top-level components on a process pool.

        The parent cache is a read-through front: already-cached components
        are never dispatched, and worker results are merged back under
        their canonical keys.  Each worker process keeps its own persistent
        shared cache across tasks.  Multiplication of exact values is
        order-independent, so the result is bit-identical to a serial run.
        """
        stats = self.stats
        results = [None] * len(components)
        pending = []  # one entry per distinct canonical key
        key_indices = {}
        for i, component in enumerate(components):
            key, var_order = self._component_key(component)
            cached = self.cache.get(key)
            if cached is not None:
                stats.cache_hits += 1
                results[i] = cached
                continue
            indices = key_indices.get(key)
            if indices is None:
                # First sight of this key: dispatch one task for it.
                stats.cache_misses += 1
                key_indices[key] = [i]
                pending.append((key, component, var_order))
            else:
                # Isomorphic sibling: reuse the dispatched task's result.
                stats.cache_hits += 1
                indices.append(i)
        if pending:
            self._run_parallel_tasks(pending, key_indices, results)
        total = 1
        for value in results:
            if value == 0:
                return 0
            total *= value
        return total

    def _await_future(self, future, budget):
        """``future.result()``, polling so a budget can interrupt it.

        The budget never rides into worker payloads (sub-engine searches
        stay deterministic and payloads picklable); instead the parent
        polls the future and re-checks the deadline/cancellation token
        between polls, so a timeout fires within one poll interval even
        while workers are busy.
        """
        if budget is None:
            return future.result()
        from concurrent.futures import TimeoutError as FutureTimeout

        while True:
            try:
                return future.result(timeout=_FUTURE_POLL_S)
            except FutureTimeout:
                budget.check()

    def _run_parallel_tasks(self, pending, key_indices, results):
        """Dispatch the pending component tasks with crash supervision.

        The failure ladder keeps counts bit-identical at every rung:

        1. a broken pool (a worker OOM-killed or hard-exited) is
           discarded and every unfinished task resubmitted **once** on a
           fresh pool after a short backoff (``worker_retries``);
        2. a second pool failure — or an unpicklable payload, which a
           retry can never fix — degrades the unfinished tasks to
           in-process serial counting (``degraded_to_serial``), the same
           code path a ``workers=None`` run takes;
        3. any other exception is a real error in the counting code (or
           a tripped budget): the pool is discarded so the *next*
           parallel call starts clean, and the exception propagates.
        """
        import pickle
        from concurrent.futures.process import BrokenProcessPool

        stats = self.stats
        weights = self.weights
        totals = self.totals
        budget = self.budget
        # Worker knobs travel as one picklable SolverOptions — the same
        # object shape every public entry point takes.  The budget is
        # deliberately excluded (see :meth:`_await_future`).
        worker_options = SolverOptions(
            branching=self.branching, learn=self.learn,
            max_learned=self.max_learned,
            persist=True if self.persist_dir is not None else None,
            cache_dir=self.persist_dir,
            phase_saving=self.phase_saving,
            restarts=self.restarts or None)

        def record(key, value, worker_stats):
            if worker_stats is not None:
                stats.merge_worker(worker_stats)
            if len(self.cache) >= MAX_CACHE_ENTRIES:
                self.cache.clear()
            self.cache[key] = value
            for i in key_indices[key]:
                results[i] = value

        remaining = list(pending)
        retried = False
        while remaining:
            done = 0
            try:
                pool = _worker_pool(self.workers)
                futures = []
                for key, component, var_order in remaining:
                    payload = (
                        component,
                        {v: weights[v] for v in var_order},
                        {v: totals[v] for v in var_order},
                        worker_options,
                    )
                    futures.append(
                        (key, pool.submit(_count_component_task, payload)))
                    stats.parallel_tasks += 1
                for key, future in futures:
                    value, worker_stats = self._await_future(future, budget)
                    record(key, value, worker_stats)
                    done += 1
                remaining = []
            except BrokenProcessPool:
                # A dead worker leaves the executor permanently broken;
                # results already collected stay valid (exact values under
                # their canonical keys), only unfinished tasks remain.
                _discard_pool()
                remaining = remaining[done:]
                if not retried:
                    retried = True
                    stats.worker_retries += 1
                    slog(_LOG, logging.WARNING, "worker_pool_retry",
                         unfinished=len(remaining), workers=self.workers)
                    time.sleep(_POOL_RETRY_BACKOFF_S)
                    continue
                slog(_LOG, logging.WARNING, "worker_pool_degraded_to_serial",
                     unfinished=len(remaining), workers=self.workers)
                for key, component, var_order in remaining:
                    stats.degraded_to_serial += 1
                    record(key, self._count_component_miss(
                        component, key, var_order), None)
                remaining = []
            except (pickle.PicklingError, TypeError):
                # The payload cannot cross the process boundary; a fresh
                # pool cannot fix that, so serve the rest in-process.
                remaining = remaining[done:]
                for key, component, var_order in remaining:
                    stats.degraded_to_serial += 1
                    record(key, self._count_component_miss(
                        component, key, var_order), None)
                remaining = []
            except BaseException:
                # A genuine task exception or a tripped budget: the pool
                # may hold queued work for futures nobody will consume;
                # drop it so the next parallel call starts a fresh pool.
                _discard_pool()
                raise


def _clause_vars(clauses):
    result = set()
    for c in clauses:
        for lit in c:
            result.add(abs(lit))
    return result


# -- circuit tracing ----------------------------------------------------------
#
# Trace mode runs the counting search itself (``_reduce`` and
# ``_cdcl_count``, unchanged) over circuit values instead of numbers,
# recording it in a caller-supplied builder (repro.compile.circuit is the
# IR).  A variable's weight pair is a pair of literal leaves and its total
# a w+wbar leaf; each branch becomes one flat x-node and each decision one
# +-node, smooth because every branch covers each component variable by a
# leaf or a child.  What does not depend on the weights stays as it is:
# propagation, learned clauses, conflicts, backjumps, EVSIDS, phase saving
# and the canonical keys.  Nothing prunes on a numeric weight: a value is
# zero only when its subcircuit folded to the constant 0 (the component is
# unsatisfiable), so every context factor has a model and learning stays
# sound.  The component cache holds weight-independent templates over
# canonical slots, so isomorphic components -- which symmetric lineages
# produce in abundance -- are searched once and stamped out per
# occurrence, and hash-consing collapses repeats of one component into a
# shared subcircuit.

#: Weight-independent compiled component templates, shared across traces
#: (cleared wholesale at the bound, like the canonical-key cache).
_TRACE_TEMPLATES = {}
MAX_TRACE_TEMPLATE_ENTRIES = 1 << 14

_TRACE_COUNTERS = {"traced_components": 0, "trace_template_hits": 0,
                   "trace_template_misses": 0}


class _TraceValue:
    """A trace-mode value: a flat product of builder node ids (``terms
    is None``) or a sum of such products.  The search only multiplies,
    adds and compares with 0 (a zero is the int 0, so the default
    identity ``==`` is right), and no node exists until :meth:`node`."""

    __slots__ = ("builder", "factors", "terms", "_node")

    def __init__(self, builder, factors, terms=None, node=None):
        self.builder = builder
        self.factors = factors
        self.terms = terms
        self._node = node

    def node(self):
        """The builder id of this value (created once)."""
        if self._node is None:
            builder = self.builder
            self._node = (builder.times(self.factors) if self.terms is None
                          else builder.plus([t.node() for t in self.terms]))
        return self._node

    def __mul__(self, other):
        if other.__class__ is not _TraceValue:
            return self if other == 1 else NotImplemented
        left = self.factors if self.terms is None else (self.node(),)
        right = other.factors if other.terms is None else (other.node(),)
        return _TraceValue(self.builder, left + right)

    __rmul__ = __mul__

    def __add__(self, other):
        if other.__class__ is not _TraceValue:
            return self if other == 0 else NotImplemented
        left = (self,) if self.terms is None else self.terms
        right = (other,) if other.terms is None else other.terms
        return _TraceValue(self.builder, None, left + right)

    __radd__ = __add__


class _TemplateCache(dict):
    """The component cache of a trace: ``(rows, var_order) -> node``.

    A searched component's subcircuit, whose leaves name its own
    variables, becomes a template over canonical slots (slot i is
    ``var_order[i - 1]``) the first time an isomorphic component asks
    for it, so a component that never recurs costs no extraction.
    """

    __slots__ = ("builder", "traced")

    def __init__(self, builder):
        super().__init__()
        self.builder = builder
        self.traced = {}  # rows -> (node, var_order), not yet a template

    def get(self, key):
        """The component's value over its own variables, the int 0 when
        it is unsatisfiable, or ``None`` on a miss."""
        builder = self.builder
        node = dict.get(self, key)
        if node is None:
            rows, var_order = key
            template = _TRACE_TEMPLATES.get(rows)
            if template is None:
                traced = self.traced.pop(rows, None)
                if traced is None:
                    _TRACE_COUNTERS["trace_template_misses"] += 1
                    return None
                template = builder.extract(
                    traced[0], {v: i for i, v in enumerate(traced[1], 1)})
                if len(_TRACE_TEMPLATES) >= MAX_TRACE_TEMPLATE_ENTRIES:
                    _TRACE_TEMPLATES.clear()
                _TRACE_TEMPLATES[rows] = template
            _TRACE_COUNTERS["trace_template_hits"] += 1
            node = builder.emit_template(template, var_order)
            dict.__setitem__(self, key, node)
        if builder.is_zero(node):
            return 0
        return _TraceValue(builder, (node,), node=node)

    def __setitem__(self, key, value):
        node = (value.node() if value.__class__ is _TraceValue
                else self.builder.const(value))
        dict.__setitem__(self, key, node)
        self.traced[key[0]] = (node, key[1])
        _TRACE_COUNTERS["traced_components"] += 1


class _TraceEngine(CountingEngine):
    """:class:`CountingEngine` in trace mode: cache keys drop the weight
    row, since one template serves every weight function."""

    __slots__ = ()

    def _component_key(self, component):
        rows, var_order = _canonical_entry(component, self.key_cache,
                                           self.stats)
        return (rows, var_order), var_order


def trace_cnf_clauses(clauses, builder, budget=None):
    """Trace the counting search over ``clauses`` into circuit nodes.

    Runs the search of :meth:`CountingEngine.run` in trace mode, serially
    with the default knobs, and returns the id of a ``builder`` node (a
    :class:`repro.compile.circuit.CircuitBuilder`) whose value at any
    weight assignment ``var -> (w, wbar)`` equals the WMC of the clauses
    over exactly the variables they mention.  ``budget`` (a
    :class:`~repro.resilience.limits.Budget`) is charged per decision and
    per conflict; templates are only made from completed subcircuits, so
    an aborted trace leaves no wrong one behind.
    """
    variables = _clause_vars(clauses)

    def leaf(node):
        return _TraceValue(builder, (node,), node=node)

    weights = {v: (leaf(builder.lit(v, True)), leaf(builder.lit(v, False)))
               for v in variables}
    totals = {v: leaf(builder.tot(v)) for v in variables}
    engine = _TraceEngine(weights, totals, cache=_TemplateCache(builder),
                          budget=budget)
    with span("trace_cnf", cat="engine", vars=len(variables),
              clauses=len(clauses)):
        value = engine._run(clauses, False)
    if value.__class__ is _TraceValue:
        return value.node()
    return builder.const(value)


# -- worker pool -------------------------------------------------------------

_POOL = None
_POOL_SIZE = 0

#: Backoff before retrying crashed component tasks on a fresh pool, and
#: the poll interval at which a budgeted parent re-checks its deadline
#: while waiting on worker futures.  Module-level so tests can shrink
#: them.
_POOL_RETRY_BACKOFF_S = 0.05
_FUTURE_POLL_S = 0.2


def _worker_pool(workers):
    """A persistent process pool, rebuilt only when the size changes."""
    global _POOL, _POOL_SIZE
    if _POOL is None or _POOL_SIZE != workers:
        import atexit
        from concurrent.futures import ProcessPoolExecutor

        if _POOL is not None:
            _POOL.shutdown(wait=True)
        else:
            # Join workers before interpreter teardown starts; repeated
            # registration is avoided by only registering on first use.
            atexit.register(shutdown_worker_pool)
        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_SIZE = workers
    return _POOL


def shutdown_worker_pool():
    """Shut down the parallel-counting process pool, if one is running."""
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_SIZE = 0


def _discard_pool():
    """Abandon the pool without waiting (used on failure paths, where the
    executor may be broken or the caller is unwinding an interrupt)."""
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
        _POOL_SIZE = 0


def _count_component_task(payload):
    """Worker-side entry: count one component with worker-local caches.

    Returns ``(value, stats counters)`` — the worker's per-task counters
    travel back so the parent can report the work done in parallel mode.
    The worker's *caches* stay module-shared across its tasks; only the
    statistics object is task-local.  The payload's knobs travel as one
    :class:`~repro.options.SolverOptions`; when the parent persists, its
    ``cache_dir`` carries the resolved store directory and the worker
    reads/writes the same on-disk store through its own store-backed
    cache front.
    """
    if maybe_fire("worker_crash"):
        # Fault injection (see repro.resilience.faults): die the way an
        # OOM kill does — no exception, no cleanup, the raw exit that
        # breaks a ProcessPoolExecutor for good.
        os._exit(17)
    component, weights, totals, opts = payload
    cache = None
    if opts.persist and opts.cache_dir is not None:
        from ..cache import persistent_component_cache

        cache = persistent_component_cache(opts.cache_dir, mem=_SHARED_CACHE)
    limit = sys.getrecursionlimit()
    needed = min(12 * len(weights) + 1000, MAX_RECURSION_LIMIT)
    if limit < needed:
        sys.setrecursionlimit(needed)
    try:
        stats = EngineStats()
        engine = CountingEngine(weights, totals, cache=cache, stats=stats,
                                branching=opts.branching, learn=opts.learn,
                                max_learned=opts.max_learned,
                                phase_saving=opts.phase_saving,
                                restarts=opts.restarts)
        value = engine._count_component(component)
        return value, stats.as_dict()
    finally:
        if limit < needed:
            sys.setrecursionlimit(limit)


# -- public wrappers ---------------------------------------------------------

#: The weight pair of every auxiliary (Tseitin) variable, shared: a
#: lineage's CNF can define hundreds of them.
_AUX_WEIGHT = (1, 1)


def wmc_cnf(cnf, weight_of_label, engine_cache=None, stats=None, options=None,
            **legacy):
    """Exact WMC of a :class:`~repro.propositional.cnf.CNF`.

    ``weight_of_label`` maps a variable label to a
    :class:`~repro.weights.WeightPair` (or a ``(w, wbar)`` tuple).
    Auxiliary Tseitin variables weigh ``(1, 1)``.  Labeled variables that
    appear in no clause contribute their full mass ``w + wbar``.

    ``engine_cache``/``stats`` override the shared component cache and
    statistics (callers wanting isolation pass fresh instances).
    ``options`` is a :class:`~repro.options.SolverOptions` (legacy
    keyword arguments — ``workers=``, ``branching=``, ``learn=``,
    ``max_learned=``, ``persist=``, ``cache_dir=``, ``phase_saving=``,
    ``restarts=`` —
    keep working and are deprecated).  ``workers`` enables process-pool
    counting of top-level components; the result is bit-identical to a
    serial run.  ``branching``, ``learn`` and ``max_learned`` configure
    the conflict-driven search (see :class:`CountingEngine`); they never
    change the counted value.

    ``persist`` layers the on-disk component store of
    :mod:`repro.cache` under the in-memory cache (``cache_dir``
    overrides the store location): component values computed by any
    process using the same store are reused, and worker processes share
    it.  Persisted values are exact, so the count stays bit-identical;
    an unusable store silently degrades to in-memory caching.
    """
    opts = SolverOptions.from_kwargs(options, **legacy)
    if cnf.contradictory:
        return Fraction(0)

    weights = {}
    totals = {}
    for v in range(1, cnf.num_vars + 1):
        label = cnf.labels.get(v)
        if label is None:
            weights[v] = _AUX_WEIGHT
            totals[v] = 2
            continue
        pair = weight_of_label(label)
        if not isinstance(pair, WeightPair):
            pair = WeightPair(*pair)
        w, wbar = _exact(pair.w), _exact(pair.wbar)
        weights[v] = (w, wbar)
        totals[v] = w + wbar

    persist_dir = None
    if opts.persist:
        from ..cache import persistent_component_cache

        mem = _SHARED_CACHE if engine_cache is None else engine_cache
        backed = persistent_component_cache(opts.cache_dir, mem=mem)
        if backed is not None:
            engine_cache = backed
            persist_dir = backed.store.directory

    engine = CountingEngine(weights, totals, cache=engine_cache, stats=stats,
                            workers=opts.workers, branching=opts.branching,
                            learn=opts.learn, max_learned=opts.max_learned,
                            persist_dir=persist_dir,
                            phase_saving=opts.phase_saving,
                            restarts=opts.restarts,
                            budget=opts.budget)
    clauses = tuple(cnf.clauses)
    # ``to_cnf`` guarantees duplicate-free, non-empty clauses.
    with span("wmc_cnf", cat="engine", vars=cnf.num_vars,
              clauses=len(clauses)):
        result = engine.run(clauses, trusted=True)

    # Labeled variables never mentioned by any clause are unconstrained.
    used = _clause_vars(clauses)
    for v in cnf.original_vars():
        if v not in used:
            result *= totals[v]
    return Fraction(result)


def cnf_for_formula(formula, universe=()):
    """The memoized CNF conversion of ``(formula, universe)``.

    Shared by :func:`wmc_formula` and the circuit compiler
    (:mod:`repro.compile`), so counting a formula and compiling it use
    one and the same CNF — a prerequisite for bit-identical results.
    The returned CNF is cached and must be treated as read-only.
    """
    key = (formula, tuple(universe) if universe else None)
    cnf = _CNF_CACHE.get(key)
    if cnf is None:
        labels = set(universe) or prop_vars(formula)
        cnf = to_cnf(formula, extra_labels=sorted(labels, key=repr))
        _CNF_CACHE.put(key, cnf)
    return cnf


def wmc_formula(formula, weight_of_label, universe=(), options=None, **legacy):
    """Exact WMC of an arbitrary propositional formula.

    ``universe`` optionally lists labels that define the full variable set
    (labels absent from the formula still contribute ``w + wbar``).

    CNF conversions are memoized on ``(formula, universe)`` — formula
    nodes are immutable and lineages are interned by the grounding layer,
    so repeated counts of one ground formula at different weights skip
    the conversion.  The cached CNF is treated as read-only.

    ``options`` is a :class:`~repro.options.SolverOptions`; legacy
    keyword arguments keep working (deprecated — see :func:`wmc_cnf` for
    the knobs).  The counted value is knob-independent.
    """
    opts = SolverOptions.from_kwargs(options, **legacy)
    cnf = cnf_for_formula(formula, universe)
    return wmc_cnf(cnf, weight_of_label, options=opts)


def model_count(formula, universe=()):
    """Number of satisfying assignments (over ``universe`` if given)."""
    result = wmc_formula(formula, lambda _label: WeightPair(1, 1), universe)
    assert result.denominator == 1
    return int(result)


def satisfiable(formula):
    """DPLL satisfiability with early exit (used for spectrum queries)."""
    cnf = to_cnf(formula)
    if cnf.contradictory:
        return False
    clauses = []
    for c in cnf.clauses:
        c = tuple(dict.fromkeys(c))
        if not c:
            return False
        clauses.append(c)
    return _sat(tuple(clauses))


def _sat_residual(clauses):
    """Watched-literal BCP plus residual extraction for the SAT path.

    Returns the residual clause tuple, or ``None`` on conflict.  Shares
    the counting engine's propagation core, so conditioning never rescans
    the clause list either: a decision is just an extra unit clause.
    """
    watches = {}
    watch_pair = []
    watched = []
    queue = []
    for c in clauses:
        if len(c) == 1:
            queue.append(c[0])
        else:
            ci = len(watched)
            watched.append(c)
            watch_pair.append([c[0], c[1]])
            watches.setdefault(c[0], []).append(ci)
            watches.setdefault(c[1], []).append(ci)
    assign = {}
    if queue and not _propagate(watched, watches, watch_pair, assign, [],
                                queue, _SAT_STATS):
        return None
    residual = []
    for c in watched:
        keep = None
        satisfied = False
        for i, l in enumerate(c):
            v = l if l > 0 else -l
            value = assign.get(v)
            if value is None:
                if keep is not None:
                    keep.append(l)
            elif value is (l > 0):
                satisfied = True
                break
            elif keep is None:
                keep = list(c[:i])
        if satisfied:
            continue
        residual.append(c if keep is None else tuple(keep))
    return tuple(residual)


#: SAT queries do not contribute to the shared counting statistics.
_SAT_STATS = EngineStats()


def _sat(clauses):
    reduced = _sat_residual(clauses)
    if reduced is None:
        return False
    if not reduced:
        return True

    # Pure literal elimination is sound for SAT (not for counting).
    polarity = {}
    for c in reduced:
        for lit in c:
            v = lit if lit > 0 else -lit
            polarity[v] = polarity.get(v, 0) | (1 if lit > 0 else 2)
    for v, pol in polarity.items():
        if pol != 3:
            return _sat(reduced + (((v if pol == 1 else -v),),))

    occurrences = {}
    for c in reduced:
        for lit in c:
            v = lit if lit > 0 else -lit
            occurrences[v] = occurrences.get(v, 0) + 1
    var = max(occurrences, key=lambda v: (occurrences[v], -v))
    return _sat(reduced + ((var,),)) or _sat(reduced + ((-var,),))
