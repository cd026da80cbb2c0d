"""Cross-request coalescing: many requests, one vectorized circuit pass.

The paper's symmetric-WFOMC setting promises amortization — the
counting circuit is weight-independent, so one compile serves every
weight vector any client submits.  The registry already amortizes the
*compile*; this module amortizes the *evaluation*: concurrent admitted
requests that target the same circuit identity ``(formula, n, ordered
vocabulary signature, method)`` are grouped and served by **one**
:meth:`~repro.compile.CompiledWFOMC.evaluate_many` pass — a K-column
staged sweep over the circuit instead of K independent scalar
evaluations.  Exact per-request results are scattered back to
per-request futures, so the wire answers are bit-identical to
uncoalesced serving (``evaluate_many`` is pinned bit-identical to
scalar evaluation by the differential suite).

Batching policy — batch while busy, with no batching timer:

* a request joins the open group of its circuit identity;
* when no batch of that identity is running, the group flushes on the
  next event-loop turn, so requests decoded in the same turn share it
  and a lone request waits for no batchmates;
* otherwise the group parks and flushes as soon as the running batch
  returns, so under load each batch is whatever arrived while the
  previous one ran;
* a group that reaches ``max_batch`` flushes at once, even alongside a
  running batch, and draining flushes every open group.

Resilience contracts, composed rather than weakened:

* the batch runs under the **tightest** member deadline's
  :class:`~repro.resilience.limits.Budget`, enforced exactly like a
  single request: a loop-side timer fires ``budget.cancel()`` at the
  tightest remaining deadline and the evaluation thread is abandoned;
* a parked group whose members carry deadlines holds one loop timer:
  when the first of them has spent half its deadline the group flushes
  as its own batch, so waiting behind a long batch never breaks the
  daemon's promise that a request ends within 2x its deadline;
* a budget trip or an evaluation fault **splits** the batch: every member
  falls back to ordinary per-request evaluation with whatever remains
  of its *own* deadline, so one stuck batch never becomes a collective
  504 — only members whose own deadlines expired answer 504;
* requests the batcher cannot serve (cold compiles, instances memoized
  as failing to compile, non-point endpoints) bypass it unchanged.

Where a batch runs: on the daemon's executor, unless it is cheap
enough for the event loop.  A deadline-free batch is evaluated directly
on the loop when its circuit identity already has a measured
per-member evaluation time, taken at weights at least as wide (largest
numerator or denominator bit length, :func:`weight_bits`) as the
batch's, and that time times the batch size is below
:func:`sys.getswitchinterval`.  An executor thread that holds the GIL
keeps the loop waiting for up to one switch interval anyway, so below
it the hop buys no responsiveness and only costs two cross-thread
wake-ups.  Every other batch takes the executor: an identity's first
batch, any batch with a deadline member (only off-loop work can be
abandoned at its deadline), and batches that are wider or predicted
slower.  Both paths run the same evaluation and record its time, one
entry per identity, evicted least-recently-used.

Single-threaded discipline: all batcher state is touched only on the
event loop; the only off-loop work is an evaluation sent to the
executor.
"""

from __future__ import annotations

import asyncio
import sys
import time

from ..obs import span
from ..resilience import Budget
from ..utils import LRUCache
from .registry import CAPACITY

__all__ = ["CoalesceSpec", "RequestCoalescer", "weight_bits"]


def weight_bits(wv):
    """The width of a weighted vocabulary's weights: the largest bit
    length of any weight's numerator or denominator."""
    return max((max(value.numerator.bit_length(),
                    value.denominator.bit_length())
                for _, pair in wv.items() for value in (pair.w, pair.wbar)),
               default=0)


class CoalesceSpec:
    """What a request must expose to be coalescable.

    ``wv`` is the request's weighted vocabulary (one future column of a
    batch); ``finish`` maps the raw circuit count to the endpoint's
    result (identity for ``/v1/wfomc``, division by the total world
    weight for ``/v1/probability``), so requests for *different*
    endpoints can still share one batch when they target one circuit.
    ``bits`` is the width of ``wv``'s weights (:func:`weight_bits`); a
    batch with a member of unknown width (``None``) always runs on the
    executor.
    """

    __slots__ = ("formula", "n", "wv", "finish", "bits")

    def __init__(self, formula, n, wv, finish, bits=None):
        self.formula = formula
        self.n = n
        self.wv = wv
        self.finish = finish
        self.bits = bits


class _Member:
    __slots__ = ("wv", "finish", "bits", "call", "deadline_at", "future",
                 "submitted_at")

    def __init__(self, spec, call, deadline_at, future, submitted_at):
        self.wv = spec.wv
        self.finish = spec.finish
        self.bits = spec.bits
        self.call = call
        self.deadline_at = deadline_at
        self.future = future
        self.submitted_at = submitted_at


class _Group:
    __slots__ = ("key", "compiled", "members", "timer")

    def __init__(self, key, compiled):
        self.key = key
        self.compiled = compiled
        self.members = []
        #: The next-turn flush of an idle identity, or the half-deadline
        #: flush of a parked group; ``None`` for a parked group without
        #: deadlines.
        self.timer = None


class RequestCoalescer:
    """Groups admitted requests by circuit identity; flushes as batches.

    ``run_in_executor`` submits a callable to the daemon's evaluation
    executor and returns an awaitable; ``fallback`` is the daemon's
    ordinary per-request path ``async (call, deadline_ms) -> result``,
    used when a batch splits; ``abandon`` receives the executor future
    of a batch abandoned at its tightest deadline, whose thread may
    still be running.
    """

    def __init__(self, run_in_executor, fallback, max_batch, abandon,
                 hold_hist=None, evaluate_hist=None):
        self._run_in_executor = run_in_executor
        self._fallback = fallback
        self._abandon = abandon
        self.max_batch = max(1, int(max_batch))
        #: Optional :class:`~repro.obs.Histogram` of per-member hold
        #: time (submit -> batch start), fed to ``/metrics``.
        self.hold_hist = hold_hist
        #: Optional :class:`~repro.obs.Histogram` that receives each
        #: batch's evaluation time once per member.
        self.evaluate_hist = evaluate_hist
        self._groups = {}
        #: Identities whose policy batch (an idle or after-batch flush)
        #: is running; their new groups park behind it.
        self._running = set()
        self._tasks = set()
        self._draining = False
        #: Identity -> ``(seconds per member, weight bits)`` of its last
        #: evaluated batch, which decides where its next batch runs; as
        #: many identities as the circuit registry keeps circuits.
        self._timings = LRUCache(CAPACITY)
        self.counters = {
            "batches": 0, "batched_requests": 0, "inline_batches": 0,
            "splits": 0, "split_requests": 0, "flush_idle": 0,
            "flush_after_batch": 0, "flush_deadline": 0, "flush_full": 0,
            "flush_drain": 0,
        }

    # -- submission (event loop only) --------------------------------------

    def submit(self, key, compiled, spec, call, deadline_ms):
        """Enqueue one request; returns its result future, or ``None``.

        ``None`` means the batcher is draining and the caller must use
        the ordinary per-request path.
        """
        if self._draining:
            return None
        loop = asyncio.get_running_loop()
        now = loop.time()
        deadline_at = (None if deadline_ms is None
                       else now + deadline_ms / 1000.0)
        member = _Member(spec, call, deadline_at, loop.create_future(), now)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(key, compiled)
            if key not in self._running:
                group.timer = loop.call_soon(self._flush, group, "idle")
        group.members.append(member)
        if len(group.members) >= self.max_batch:
            self._flush(group, "full")
        elif deadline_at is not None and key in self._running:
            # Parked: flush once this member has spent half its deadline,
            # unless the group's timer already fires earlier.
            fire_at = now + (deadline_at - now) / 2.0
            if group.timer is None or fire_at < group.timer.when():
                if group.timer is not None:
                    group.timer.cancel()
                group.timer = loop.call_at(
                    fire_at, self._flush, group, "deadline")
        return member.future

    def _flush(self, group, reason):
        del self._groups[group.key]
        if group.timer is not None:
            group.timer.cancel()
        self.counters["flush_" + reason] += 1
        self.counters["batches"] += 1
        self.counters["batched_requests"] += len(group.members)
        # Idle and after-batch flushes start the policy's own batch,
        # which later arrivals park behind; full, deadline and drain
        # batches run alongside it.
        policy = reason in ("idle", "after_batch")
        if policy:
            self._running.add(group.key)
        task = asyncio.get_running_loop().create_task(
            self._run_batch(group, policy))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def drain(self):
        """Stop accepting and flush every open group immediately."""
        self._draining = True
        for group in list(self._groups.values()):
            self._flush(group, "drain")

    # -- batch execution ---------------------------------------------------

    async def _run_batch(self, group, policy):
        try:
            await self._serve_batch(group.key, group.compiled, group.members)
        finally:
            # Success, split and abandonment all end here, so a parked
            # group never waits on an abandoned thread.
            if policy:
                self._running.discard(group.key)
                parked = self._groups.get(group.key)
                if parked is not None:
                    self._flush(parked, "after_batch")

    async def _serve_batch(self, key, compiled, members):
        loop = asyncio.get_running_loop()
        if self.hold_hist is not None:
            now = loop.time()
            for m in members:
                self.hold_hist.record(now - m.submitted_at)
        deadlines = [m.deadline_at for m in members
                     if m.deadline_at is not None]
        remaining_s = None
        if deadlines:
            remaining_s = min(deadlines) - loop.time()
            if remaining_s <= 0:
                # The tightest member is already past its deadline:
                # don't start a doomed batch, settle everyone through
                # the per-request path (which 504s only the expired).
                await self._split(members)
                return
        budget = Budget(timeout=remaining_s)
        vocabularies = [m.wv for m in members]
        widths = [m.bits for m in members]
        bits = None if None in widths else max(widths)

        def evaluate():
            budget.check()
            started = time.monotonic()
            with span("coalesced_batch", cat="serve", k=len(vocabularies)):
                counts = compiled.evaluate_many(vocabularies)
            return counts, time.monotonic() - started

        try:
            if not deadlines and self._cheap(key, bits, len(members)):
                self.counters["inline_batches"] += 1
                counts, elapsed = evaluate()
            else:
                counts, elapsed = await self._off_loop(
                    evaluate, budget, remaining_s)
        except Exception:  # noqa: BLE001 — fault or deadline: split, retry solo
            await self._split(members)
            return
        if bits is not None:
            self._timings.put(key, (elapsed / len(members), bits))
        if self.evaluate_hist is not None:
            for _ in members:
                self.evaluate_hist.record(elapsed)
        for member, count in zip(members, counts):
            if member.future.done():  # requester gone (cancelled)
                continue
            try:
                member.future.set_result(member.finish(count))
            except Exception as exc:  # noqa: BLE001 — per-member finish
                member.future.set_exception(exc)

    def _cheap(self, key, bits, size):
        """Whether a batch of ``size`` members at weight width ``bits``
        is predicted to evaluate within one GIL switch interval."""
        timing = self._timings.get(key)
        return (timing is not None and bits is not None and bits <= timing[1]
                and timing[0] * size < sys.getswitchinterval())

    async def _off_loop(self, evaluate, budget, remaining_s):
        """Run ``evaluate`` on the executor under the batch's deadline."""
        future = self._run_in_executor(evaluate)
        if remaining_s is None:
            return await future
        try:
            return await asyncio.wait_for(asyncio.shield(future), remaining_s)
        except asyncio.TimeoutError:
            # Tightest deadline hit: cancel cooperatively and abandon
            # the batch thread; the caller splits the batch, so members
            # with time left fall back and only the expired ones 504.
            budget.cancel()
            self._abandon(future)
            raise

    async def _split(self, members):
        self.counters["splits"] += 1
        self.counters["split_requests"] += len(members)
        loop = asyncio.get_running_loop()

        async def settle(member):
            if member.future.done():
                return
            deadline_ms = None
            if member.deadline_at is not None:
                deadline_ms = max(
                    0.0, (member.deadline_at - loop.time()) * 1000.0)
            try:
                result = await self._fallback(member.call, deadline_ms)
            except Exception as exc:  # noqa: BLE001 — typed per member
                if not member.future.done():
                    member.future.set_exception(exc)
                return
            if not member.future.done():
                member.future.set_result(result)

        await asyncio.gather(*(settle(m) for m in members))

    # -- observability -----------------------------------------------------

    def snapshot(self):
        """Counter view for ``/metrics``."""
        view = dict(self.counters)
        view["open_groups"] = len(self._groups)
        view["max_batch"] = self.max_batch
        view["avg_batch_size"] = (
            round(view["batched_requests"] / view["batches"], 3)
            if view["batches"] else None)
        return view
