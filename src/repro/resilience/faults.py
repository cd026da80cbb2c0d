"""Deterministic fault injection: :class:`FaultPlan`.

Fault tolerance that is never exercised rots.  A :class:`FaultPlan` is
a seeded, reproducible description of *which* faults fire at *which*
call counts, parsed from a compact spec string so subprocess tests can
activate it through the ``$REPRO_FAULT_PLAN`` environment variable.
Production code asks :func:`maybe_fire` at each injection point; with
no plan installed the call is a module-global ``None`` check.

Spec grammar — tokens separated by ``;`` or whitespace::

    seed=N                 seed for the probabilistic streams (default 0)
    KIND@I[,J,...]         fire at the given 1-based call indices
    KIND~N                 fire on every Nth call
    KIND?P                 fire each call with probability P (per-kind
                           deterministic stream seeded on (seed, kind))

Any rule may append ``:once=PATH``: the fault fires only if ``PATH``
does not yet exist and atomically creates it when firing — a
cross-process single-shot marker, e.g. "crash the first worker task,
but only once across pool retries".

Fault kinds (the injection points live in :mod:`repro.cache.store` and
:mod:`repro.propositional.counter`):

========================  ==============================================
``store_busy``            transient ``sqlite3`` "database is locked"
``store_disk_full``       ``sqlite3`` "database or disk is full"
``store_corrupt``         ``sqlite3`` "database disk image is malformed"
``store_torn_write``      a stored payload is truncated mid-byte on read
``worker_crash``          a pool worker hard-exits (``os._exit``) mid-task
========================  ==============================================

Examples::

    REPRO_FAULT_PLAN='store_busy@1,2'          # first two store ops hit BUSY
    REPRO_FAULT_PLAN='worker_crash~1'          # every worker task crashes
    REPRO_FAULT_PLAN='seed=7;store_busy?0.2'   # 20% of ops, reproducibly

Plans are fork-aware *and* thread-safe: per-kind call counters and
probability streams reset when the pid changes, so every forked (or
pre-forked serving) worker sees the same deterministic schedule, and
all counter updates take a per-plan lock, so a plan set via
``$REPRO_FAULT_PLAN`` is honored — with exact deterministic counts —
inside ``asyncio`` executor threads and any other concurrent caller.
The environment variable is re-read whenever its value changes, so a
test can flip plans without reloading modules.
"""

from __future__ import annotations

import os
import random
import re
import threading

from ..errors import FaultPlanError

__all__ = ["FAULT_KINDS", "FaultPlan", "active_plan", "clear_plan",
           "install_plan", "maybe_fire", "fault_counters"]

ENV_VAR = "REPRO_FAULT_PLAN"

FAULT_KINDS = ("store_busy", "store_disk_full", "store_corrupt",
               "store_torn_write", "worker_crash")

_TOKEN = re.compile(
    r"^(?P<kind>[a-z_]+)(?P<op>[@~?])(?P<arg>[^:]+?)(?::once=(?P<once>.+))?$")


class FaultPlan:
    """A parsed, deterministic schedule of injected faults."""

    def __init__(self, spec):
        self.spec = spec
        self.seed = 0
        self._rules = {}
        self._parse(spec)
        self._pid = os.getpid()
        self.calls = {kind: 0 for kind in self._rules}
        self.fired = {kind: 0 for kind in self._rules}
        self._rngs = {}
        #: Injection points run on whatever thread executes the faulted
        #: layer — the serving daemon's executor pool in particular.  The
        #: lock makes each call-count increment and stream draw atomic,
        #: so concurrent callers consume the deterministic schedule
        #: exactly once per call instead of racing increments away.
        self._lock = threading.Lock()

    def _parse(self, spec):
        tokens = [t for t in re.split(r"[;\s]+", spec.strip()) if t]
        if not tokens:
            raise FaultPlanError("empty fault-plan spec")
        rules = []
        for token in tokens:
            if token.startswith("seed="):
                try:
                    self.seed = int(token[len("seed="):])
                except ValueError:
                    raise FaultPlanError(
                        "bad seed in fault plan: {!r}".format(token)) from None
                continue
            match = _TOKEN.match(token)
            if match is None:
                raise FaultPlanError(
                    "bad fault-plan token {!r}; expected KIND@I[,J..], "
                    "KIND~N, or KIND?P".format(token))
            kind = match.group("kind")
            if kind not in FAULT_KINDS:
                raise FaultPlanError(
                    "unknown fault kind {!r}; expected one of {}".format(
                        kind, FAULT_KINDS))
            if kind in self._rules or any(k == kind for k, _ in rules):
                raise FaultPlanError(
                    "duplicate rule for fault kind {!r}".format(kind))
            op, arg = match.group("op"), match.group("arg")
            try:
                if op == "@":
                    payload = frozenset(int(i) for i in arg.split(","))
                    if not payload or min(payload) < 1:
                        raise ValueError
                elif op == "~":
                    payload = int(arg)
                    if payload < 1:
                        raise ValueError
                else:
                    payload = float(arg)
                    if not 0.0 <= payload <= 1.0:
                        raise ValueError
            except ValueError:
                raise FaultPlanError(
                    "bad argument in fault-plan token {!r}".format(
                        token)) from None
            rules.append((kind, (op, payload, match.group("once"))))
        self._rules = dict(rules)

    def _maybe_reset_for_fork(self):
        pid = os.getpid()
        if pid != self._pid:
            # A forked worker inherits the parent's counters; reset so
            # every worker sees the same deterministic schedule.
            self._pid = pid
            self.calls = {kind: 0 for kind in self._rules}
            self.fired = {kind: 0 for kind in self._rules}
            self._rngs = {}

    def _rng(self, kind):
        rng = self._rngs.get(kind)
        if rng is None:
            # String seeding is deterministic (hashed with SHA-512), so
            # the per-kind stream reproduces across processes and runs.
            rng = self._rngs[kind] = random.Random(
                "{}:{}".format(self.seed, kind))
        return rng

    def should_fire(self, kind):
        """Count one call at ``kind``'s injection point; True to fault."""
        rule = self._rules.get(kind)
        if rule is None:
            return False
        with self._lock:
            self._maybe_reset_for_fork()
            self.calls[kind] += 1
            count = self.calls[kind]
            op, payload, once = rule
            if op == "@":
                fire = count in payload
            elif op == "~":
                fire = count % payload == 0
            else:
                fire = self._rng(kind).random() < payload
            if fire and once is not None:
                # The marker file is the cross-process single-shot gate;
                # O_EXCL creation keeps it atomic across processes, the
                # plan lock keeps it atomic across threads.
                try:
                    with open(once, "x"):
                        pass
                except OSError:  # exists already, or uncreatable
                    fire = False
            if fire:
                self.fired[kind] += 1
            return fire

    def stats(self):
        """Per-kind call/fired counters (for ``repro stats`` and tests)."""
        return {"spec": self.spec,
                "calls": dict(self.calls),
                "fired": dict(self.fired)}

    def __repr__(self):
        return "FaultPlan({!r})".format(self.spec)


# -- activation -----------------------------------------------------------
#
# Precedence: a programmatically installed plan wins over the
# environment.  The env plan is cached keyed on the spec string, so
# changing or unsetting $REPRO_FAULT_PLAN mid-process takes effect at
# the next injection point (tests flip it freely).

_INSTALLED = None
_ENV_SPEC = None
_ENV_PLAN = None
#: Guards the env-plan cache: concurrent first calls from executor
#: threads must agree on one plan object (two plans would each keep
#: private call counters and double the schedule).
_ENV_LOCK = threading.Lock()


def install_plan(plan):
    """Install a plan (or spec string) for this process; returns it."""
    global _INSTALLED
    if isinstance(plan, str):
        plan = FaultPlan(plan)
    _INSTALLED = plan
    return plan


def clear_plan():
    """Remove any programmatically installed plan."""
    global _INSTALLED
    _INSTALLED = None


def active_plan():
    """The currently active plan, or ``None``."""
    global _ENV_SPEC, _ENV_PLAN
    if _INSTALLED is not None:
        return _INSTALLED
    spec = os.environ.get(ENV_VAR)
    with _ENV_LOCK:
        if not spec:
            _ENV_SPEC = _ENV_PLAN = None
            return None
        if spec != _ENV_SPEC:
            _ENV_PLAN = FaultPlan(spec)
            _ENV_SPEC = spec
        return _ENV_PLAN


def maybe_fire(kind):
    """True when the active plan (if any) injects a ``kind`` fault now."""
    plan = _INSTALLED
    if plan is None:
        if _ENV_SPEC is None and ENV_VAR not in os.environ:
            return False
        plan = active_plan()
        if plan is None:
            return False
    return plan.should_fire(kind)


def fault_counters():
    """Aggregated fired-fault counters of the active plan (may be {})."""
    plan = _INSTALLED if _INSTALLED is not None else _ENV_PLAN
    if plan is None:
        return {}
    return dict(plan.fired)
