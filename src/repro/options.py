"""One options object for every solver entry point: :class:`SolverOptions`.

Five PRs of engine growth left each public entry point carrying the same
nine knobs (``method``, ``workers``, ``branching``, ``learn``,
``max_learned``, ``persist``, ``cache_dir``, ``phase_saving``,
``compile``) as copy-pasted keyword parameters.  This module replaces
that sprawl with a single frozen dataclass accepted as ``options=`` by
every solver and MLN entry point and threaded as *one object* through
dispatch, worker payloads, and the CLI, so a new knob widens no
signature.

Legacy keyword arguments keep working everywhere through
:meth:`SolverOptions.from_kwargs`: an entry point declares
``def wfomc(formula, n, wv=None, options=None, **legacy)`` and resolves
both styles with one call.  The keyword style is **deprecated** in favor
of ``options=SolverOptions(...)`` — it is not scheduled for removal, but
new knobs will only be added here.

>>> SolverOptions(method="lineage", workers=2)
SolverOptions(method='lineage', workers=2)
>>> SolverOptions.from_kwargs(None, persist=True, branching="moms")
SolverOptions(branching='moms', persist=True)

``None`` for any field means "the engine's default"; the object never
needs to know what that default is, which keeps it decoupled from the
engine layers it configures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .resilience.limits import Budget

__all__ = ["SolverOptions", "METHODS", "BRANCHINGS"]

#: Dispatch methods understood by the solver layer.
METHODS = ("auto", "fo2", "lineage", "enumerate")
#: Decision heuristics of the counting engine.
BRANCHINGS = ("evsids", "moms")


@dataclass(frozen=True)
class SolverOptions:
    """Every knob a solver call accepts, as one immutable value.

    Fields
    ------
    method:
        ``"auto"`` (default), ``"fo2"``, ``"lineage"``, or
        ``"enumerate"`` — pins the counting algorithm.
    workers:
        Process-pool width for parallel component counting (``None`` or
        ``0``/``1`` means serial; results are bit-identical either way).
    branching / learn / max_learned / phase_saving / restarts:
        Conflict-driven-search knobs of the grounded counting engine;
        they steer the search only, never the counted value.
        ``restarts`` enables Luby-sequence restarts in the
        clause-learning engine: a positive int is the Luby unit in
        conflicts (restart after ``unit * luby(i)`` conflicts since the
        last restart), ``None``/``0`` disables them (the default).
        Abandoned partial sums are recomputed through the component
        cache, so counts stay bit-identical with restarts on or off.
    persist / cache_dir:
        Back the in-memory caches with the on-disk store of
        :mod:`repro.cache` (at ``cache_dir``, ``$REPRO_CACHE_DIR``, or
        ``~/.cache/repro``).
    compile:
        Serve sweep/batch/probability calls through the
        knowledge-compilation fast path (:mod:`repro.compile`): one
        exact circuit per ``(formula, n)``, and a weight sweep served
        by one staged pass over it.
    budget:
        A :class:`~repro.resilience.limits.Budget` bounding the call
        (wall-clock deadline, conflict/decision caps, cooperative
        cancellation).  Tripping raises
        :class:`~repro.errors.BudgetExceededError`; caches stay
        consistent, so a retry warm-starts and completes
        bit-identically.  The budget is mutable and identity-hashed
        (it accumulates spend), and it never rides into worker
        payloads — deadlines are enforced in the parent.

    The dataclass is frozen (hashable, safe to share across threads and
    to pickle into worker payloads) and validates its enumerated fields
    at construction, so a typo fails at the call site instead of deep in
    dispatch.
    """

    method: str = "auto"
    workers: int | None = None
    branching: str | None = None
    learn: bool | None = None
    max_learned: int | None = None
    persist: bool | None = None
    cache_dir: str | None = None
    phase_saving: bool | None = None
    restarts: int | None = None
    compile: bool | None = None
    budget: object | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError("unknown method {!r}; expected one of {}".format(
                self.method, METHODS))
        if self.branching is not None and self.branching not in BRANCHINGS:
            raise ValueError(
                "unknown branching {!r}; expected one of {}".format(
                    self.branching, BRANCHINGS))
        if self.workers is not None and (
                not isinstance(self.workers, int) or self.workers < 0):
            raise ValueError(
                "workers must be a non-negative int or None, got {!r}".format(
                    self.workers))
        if self.max_learned is not None and (
                not isinstance(self.max_learned, int) or self.max_learned < 0):
            raise ValueError(
                "max_learned must be a non-negative int or None, "
                "got {!r}".format(self.max_learned))
        if self.restarts is not None and (
                not isinstance(self.restarts, int) or self.restarts < 0):
            raise ValueError(
                "restarts must be a non-negative int (the Luby unit in "
                "conflicts) or None, got {!r}".format(self.restarts))
        if self.budget is not None and not isinstance(self.budget, Budget):
            raise ValueError(
                "budget must be a repro.resilience.limits.Budget or None, "
                "got {!r}".format(self.budget))

    # -- the legacy-kwargs shim -------------------------------------------

    @classmethod
    def from_kwargs(cls, options=None, /, **kwargs):
        """Resolve an ``options=`` value plus legacy keyword arguments.

        The single shim behind every entry point's ``**legacy``:

        * ``options`` may be ``None``, a :class:`SolverOptions`, or a
          bare method string (so historical positional calls like
          ``wfomc(f, n, wv, "fo2")`` keep working);
        * any non-``None`` legacy kwarg overrides the corresponding
          field (``method=None`` in the kwargs means "keep the base
          method", matching the old per-signature defaults);
        * unknown keyword names raise :class:`TypeError`, exactly as the
          old explicit signatures did.
        """
        if options is None:
            base = cls()
        elif isinstance(options, cls):
            base = options
        elif isinstance(options, str):
            base = cls(method=options)
        else:
            raise TypeError(
                "options must be a SolverOptions, a method string, or "
                "None, got {!r}".format(options))
        if not kwargs:
            return base
        unknown = [k for k in kwargs if k not in _FIELD_NAMES]
        if unknown:
            raise TypeError(
                "unexpected keyword argument(s) {}; valid solver options "
                "are {}".format(", ".join(sorted(unknown)),
                                ", ".join(_FIELD_NAMES)))
        overrides = {k: v for k, v in kwargs.items() if v is not None}
        return base.replace(**overrides) if overrides else base

    def replace(self, **changes):
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def to_kwargs(self):
        """The legacy keyword dict; non-default fields only.

        Round-trips: ``SolverOptions.from_kwargs(None, **o.to_kwargs())
        == o`` for every ``o`` (the property the test suite pins).
        """
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value != field.default:
                out[field.name] = value
        return out

    # -- views for the layers below ---------------------------------------

    def engine_kwargs(self):
        """The knob subset the counting layers take as keywords."""
        return {
            "branching": self.branching,
            "learn": self.learn,
            "max_learned": self.max_learned,
            "persist": self.persist,
            "cache_dir": self.cache_dir,
            "phase_saving": self.phase_saving,
            "restarts": self.restarts,
        }

    def store_kwargs(self):
        """The persistence subset (compile and cache layers)."""
        return {"persist": self.persist, "cache_dir": self.cache_dir}

    def __repr__(self):
        shown = ", ".join(
            "{}={!r}".format(k, v) for k, v in self.to_kwargs().items())
        return "SolverOptions({})".format(shown)


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(SolverOptions))
