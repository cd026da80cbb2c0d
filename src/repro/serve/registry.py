"""Compiled-circuit registry: compile once, serve every request.

The daemon's amortization heart.  Circuits are weight-independent
(:func:`repro.compile.compile_wfomc` keys on ``(formula, n, vocabulary
signature, method)``), so one compile serves every weight vector any
client ever submits for that instance.  The registry adds what the
module-level compile cache does not have:

* **single-flight compilation** — N concurrent requests for the same
  cold instance produce one compile; the rest block on a per-key lock
  and reuse it (``waits`` counts the queued ones);
* **failure memoisation** — an instance whose compile failed for a
  budget-independent reason is marked, and later requests degrade to
  direct counting immediately instead of re-failing a compile per
  request;
* **counters** for ``/metrics``.

Budget discipline: a compile interrupted by the request's
:class:`~repro.resilience.limits.Budget` propagates
:class:`~repro.errors.BudgetExceededError` and is *not* marked failed —
the next request (with its own budget) retries and warm-starts from
whatever the caches kept.
"""

from __future__ import annotations

import logging
import threading
import time

from ..errors import BudgetExceededError
from ..obs import get_logger, slog, span
from ..utils import LRUCache, vocabulary_signature

_LOG = get_logger("serve.registry")

__all__ = ["CircuitRegistry"]

#: Marker cached for instances whose compilation failed deterministically.
_FAILED = object()

#: Circuits (and memoized failures) a registry keeps by default (LRU).
CAPACITY = 64


class CircuitRegistry:
    """Single-flight, bounded registry of compiled WFOMC circuits."""

    def __init__(self, capacity=CAPACITY):
        self._cache = LRUCache(capacity)
        # Single-flight locks come from a fixed pool indexed by key hash
        # rather than a per-key dict: a dict entry per distinct instance
        # ever served is a memory leak on a long-running daemon (the LRU
        # evicts the circuit but nothing evicted the lock).  A hash
        # collision merely serializes two unrelated cold compiles — the
        # double-checked cache read under the lock keeps single-flight
        # exact either way.
        self._locks = tuple(threading.Lock() for _ in range(capacity))
        self._meta = threading.Lock()
        #: Optional :class:`~repro.obs.Histogram` of compile durations;
        #: the daemon points it at its ``compile`` phase histogram.
        self.compile_hist = None
        self.compiles = 0
        self.hits = 0
        self.failure_hits = 0
        self.waits = 0
        self.failures = 0
        self.degraded_direct = 0

    def _count(self, name):
        with self._meta:
            setattr(self, name, getattr(self, name) + 1)

    def _key_lock(self, key):
        return self._locks[hash(key) % len(self._locks)]

    @staticmethod
    def key(formula, n, vocabulary, options):
        """The weight-independent circuit identity of a request."""
        return (formula, n, vocabulary_signature(vocabulary, ordered=True),
                options.method)

    def prepare(self, formula, n, vocabulary, options):
        """Resolve the options a request should actually run with.

        When ``options`` asks for the compiled fast path, make sure the
        instance's circuit exists (compiling it under the request's
        budget if cold).  Returns ``options`` unchanged on success, or a
        direct-counting replacement when this instance is known not to
        compile — the graceful-degradation contract: a compile miss
        costs the requester a slower answer, never an error.
        """
        if not options.compile:
            return options
        entry = self._ensure(formula, n, vocabulary, options)
        if entry is _FAILED:
            self._count("degraded_direct")
            return options.replace(compile=None)
        return options

    def peek(self, key):
        """The live compiled circuit for ``key`` (see :meth:`key`), or ``None``.

        Never compiles: a miss (cold instance) and a memoized failure
        both return ``None``, so callers that can only use a warm
        circuit (the request coalescer) fall back to the ordinary path
        without ever blocking on a compile.  A hit refreshes LRU
        recency — a circuit hot enough to coalesce on should not be the
        next eviction victim.  It takes the key, not the request, so a
        caller that needs the key anyway builds it once.
        """
        entry = self._cache.get(key)
        if entry is None or entry is _FAILED:
            return None
        self._count("hits")
        return entry

    def _ensure(self, formula, n, vocabulary, options):
        key = self.key(formula, n, vocabulary, options)
        entry = self._cache.get(key)
        if entry is not None:
            self._count("failure_hits" if entry is _FAILED else "hits")
            return entry
        lock = self._key_lock(key)
        if not lock.acquire(blocking=False):
            self._count("waits")
            lock.acquire()
        try:
            entry = self._cache.get(key)
            if entry is not None:
                self._count("failure_hits" if entry is _FAILED else "hits")
                return entry
            entry = self._compile(formula, n, vocabulary, options)
            self._cache.put(key, entry)
            return entry
        finally:
            lock.release()

    def _compile(self, formula, n, vocabulary, options):
        from ..compile import compile_wfomc

        started = time.monotonic()
        try:
            with span("registry_compile", cat="serve", n=n,
                      method=options.method):
                compiled = compile_wfomc(
                    formula, n, vocabulary, method=options.method,
                    persist=options.persist, cache_dir=options.cache_dir,
                    budget=options.budget)
        except BudgetExceededError:
            raise
        except Exception as exc:  # noqa: BLE001 — memoized as failed
            self._count("failures")
            slog(_LOG, logging.WARNING, "compile_failed", n=n,
                 method=options.method, exc_type=type(exc).__name__)
            return _FAILED
        finally:
            if self.compile_hist is not None:
                self.compile_hist.record(time.monotonic() - started)
        self._count("compiles")
        return compiled

    def snapshot(self):
        """Counter view for ``/metrics``.

        ``entries`` counts live circuits only; instances memoized as
        failed are reported separately as ``failed_entries`` (both read
        through the cache's locked accessors, never its internals).
        """
        failed = sum(1 for entry in self._cache.values()
                     if entry is _FAILED)
        total = len(self._cache)
        with self._meta:
            return {
                "compiles": self.compiles,
                "hits": self.hits,
                "failure_hits": self.failure_hits,
                "waits": self.waits,
                "failures": self.failures,
                "degraded_direct": self.degraded_direct,
                "entries": total - failed,
                "failed_entries": failed,
            }
