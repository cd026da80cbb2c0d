"""Resource budgets for long-running counts: :class:`Budget`.

Outside the liftable fragments exact counting is unavoidably
superpolynomial, so real workloads *will* run long.  A :class:`Budget`
bounds one logical call — wall-clock deadline, conflict cap, decision
cap, and a cooperative cancellation token — and is carried on
:class:`~repro.options.SolverOptions` into every counting layer.

The engine charges the budget at its natural unit boundaries
(:meth:`Budget.spend_decision`, :meth:`Budget.spend_conflict`); layers
without such units (FO2 cell recursion, trace compilation, future
polling) call :meth:`Budget.tick`.  All three are cheap: counter
bumps plus an explicit-limit comparison, with the clock consulted only
every :data:`CHECK_MASK` + 1 ticks (and on the very first, so a zero
timeout trips immediately).  Tripping raises
:class:`~repro.errors.BudgetExceededError` carrying the reason,
elapsed time, and spent counters.

Budgets are *anytime-safe by construction*: every cache in the stack
(engine component cache, FO2 cell tables, compiled-circuit caches, the
persistent store's write-behind buffer) only ever records fully
computed values, so an aborted call leaves them consistent and a retry
warm-starts from the completed work, finishing bit-identically to an
uninterrupted run.

A ``Budget`` is mutable (it accumulates spend) and identity-hashed, so
a frozen ``SolverOptions`` holding one stays hashable.  It is *not*
shipped to worker processes: deadlines and cancellation are enforced in
the parent while polling worker futures, which keeps worker payloads
picklable and the sub-engines deterministic.
"""

from __future__ import annotations

import time

from ..errors import BudgetExceededError

__all__ = ["Budget", "CHECK_MASK"]

#: The clock is consulted when ``ticks & CHECK_MASK == 1`` — every 64th
#: tick, including the first, so even ``timeout=0`` trips on entry.
CHECK_MASK = 63


class Budget:
    """Wall-clock / conflict / decision limits plus cancellation.

    Parameters
    ----------
    timeout:
        Wall-clock seconds allowed from construction (or the last
        :meth:`restart`).  ``None`` means unlimited.
    max_conflicts / max_decisions:
        Caps on CDCL conflicts / decisions charged via
        :meth:`spend_conflict` / :meth:`spend_decision`.
    clock:
        Injectable monotonic clock (seconds) for deterministic tests.
    """

    __slots__ = ("timeout", "max_conflicts", "max_decisions", "_clock",
                 "_start", "decisions", "conflicts", "ticks", "_cancelled")

    def __init__(self, timeout=None, max_conflicts=None, max_decisions=None,
                 clock=time.monotonic):
        if timeout is not None and timeout < 0:
            raise ValueError("timeout must be >= 0 or None")
        for name, value in (("max_conflicts", max_conflicts),
                            ("max_decisions", max_decisions)):
            if value is not None and (not isinstance(value, int) or value < 0):
                raise ValueError("{} must be a non-negative int or None"
                                 .format(name))
        self.timeout = timeout
        self.max_conflicts = max_conflicts
        self.max_decisions = max_decisions
        self._clock = clock
        self._start = clock()
        self.decisions = 0
        self.conflicts = 0
        self.ticks = 0
        self._cancelled = False

    # -- the cancellation token -------------------------------------------

    def cancel(self):
        """Request cooperative cancellation.

        Safe to call from another thread or a signal handler; the run
        raises :class:`BudgetExceededError` (``reason="cancelled"``) at
        its next check point.
        """
        self._cancelled = True

    @property
    def cancelled(self):
        return self._cancelled

    # -- clock views -------------------------------------------------------

    def elapsed(self):
        """Seconds since construction (or the last :meth:`restart`)."""
        return self._clock() - self._start

    def remaining(self):
        """Seconds left before the deadline; ``None`` if no timeout."""
        if self.timeout is None:
            return None
        return max(0.0, self.timeout - self.elapsed())

    def restart(self):
        """Reset the clock and all spend counters for a fresh attempt."""
        self._start = self._clock()
        self.decisions = 0
        self.conflicts = 0
        self.ticks = 0
        self._cancelled = False

    # -- charging ----------------------------------------------------------

    def _trip(self, reason):
        raise BudgetExceededError(
            reason, elapsed=self.elapsed(),
            spent={"decisions": self.decisions, "conflicts": self.conflicts})

    def check(self):
        """Full check: cancellation, then the wall-clock deadline."""
        if self._cancelled:
            self._trip("cancelled")
        if self.timeout is not None and self.elapsed() >= self.timeout:
            self._trip("timeout")

    def tick(self):
        """Cheap progress heartbeat; consults the clock every 64 ticks."""
        self.ticks += 1
        if self.ticks & CHECK_MASK == 1:
            self.check()

    def spend_decision(self):
        """Charge one engine decision (also ticks)."""
        self.decisions += 1
        if (self.max_decisions is not None
                and self.decisions > self.max_decisions):
            self._trip("max_decisions")
        self.tick()

    def spend_conflict(self):
        """Charge one learned conflict (also ticks)."""
        self.conflicts += 1
        if (self.max_conflicts is not None
                and self.conflicts > self.max_conflicts):
            self._trip("max_conflicts")
        self.tick()

    def __repr__(self):
        parts = []
        for name in ("timeout", "max_conflicts", "max_decisions"):
            value = getattr(self, name)
            if value is not None:
                parts.append("{}={!r}".format(name, value))
        if self._cancelled:
            parts.append("cancelled=True")
        return "Budget({})".format(", ".join(parts))
