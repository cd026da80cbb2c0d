"""Tests for the ``repro serve`` daemon.

An in-process :class:`ReproServer` (event loop on a background thread,
real sockets, ``http.client`` requests) checks the wire protocol, exact
parity with direct library calls, deadline propagation and the 2x-
deadline bound, admission control, draining, and graceful degradation.
A subprocess test exercises the CLI entry point and the SIGTERM drain.
The chaos test replays the acceptance criterion: concurrent requests
under an injected fault plan answer bit-identically to fault-free
evaluation or fail with typed retriable errors.
"""

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

from repro import (
    SolverOptions,
    mln_query_sweep,
    parse,
    probability,
    wfomc,
    wfomc_weight_sweep,
)
from repro.logic import WeightedVocabulary
from repro.resilience.faults import clear_plan, install_plan
from repro.serve import ReproServer, ServeConfig
from repro.serve.daemon import ReproServer as _Daemon
from repro.weights import WeightPair

EXISTS = "forall x. exists y. R(x, y)"


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    clear_plan()
    yield
    clear_plan()


class ServerHandle:
    """A live server on a background event-loop thread.

    The loop's exception handler records every context it receives;
    :meth:`close` asserts it received none, so a daemon that leaks a
    task or a callback error fails the test that caused it.
    """

    def __init__(self, config):
        self.config = config
        self.server = None
        self.loop = None
        self.loop_errors = []
        self._stop = None
        self._closed = False
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()), daemon=True)
        self._thread.start()
        assert self._ready.wait(15), "server did not start"

    async def _amain(self):
        self.loop = asyncio.get_running_loop()
        self.loop.set_exception_handler(
            lambda loop, context: self.loop_errors.append(context))
        self._stop = asyncio.Event()
        self.server = ReproServer(self.config)
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.shutdown()

    def request(self, method, path, payload=None, timeout=120,
                headers=None):
        conn = http.client.HTTPConnection(*self.server.address,
                                          timeout=timeout)
        try:
            body = json.dumps(payload) if payload is not None else None
            conn.request(method, path, body=body, headers=headers or {})
            resp = conn.getresponse()
            data = json.loads(resp.read())
            return resp.status, data, dict(resp.headers)
        finally:
            conn.close()

    def request_text(self, method, path, timeout=120):
        """Like :meth:`request` but returns the raw body text."""
        conn = http.client.HTTPConnection(*self.server.address,
                                          timeout=timeout)
        try:
            conn.request(method, path)
            resp = conn.getresponse()
            return resp.status, resp.read().decode(), dict(resp.headers)
        finally:
            conn.close()

    def close(self):
        if not self._closed:
            self._closed = True
            if self.loop is not None:
                try:
                    self.loop.call_soon_threadsafe(self._stop.set)
                except RuntimeError:
                    pass
            self._thread.join(30)
        assert not self.loop_errors, self.loop_errors


@pytest.fixture()
def serve():
    handles = []

    def make(**kwargs):
        handle = ServerHandle(ServeConfig(**kwargs))
        handles.append(handle)
        return handle

    yield make
    for handle in handles:
        handle.close()


class TestProtocol:
    def test_health_ready_metrics(self, serve):
        h = serve()
        status, body, _ = h.request("GET", "/healthz")
        assert (status, body["ok"], body["draining"]) == (200, True, False)
        status, body, _ = h.request("GET", "/readyz")
        assert status == 200 and body["ok"] is True
        status, body, _ = h.request("GET", "/metrics")
        assert status == 200
        for section in ("server", "admission", "coalesce", "registry",
                        "engine", "solver_caches", "compile", "store"):
            assert section in body
        # Registry metrics distinguish live circuits from memoized
        # compile failures, and cache hits from failure hits.
        for key in ("hits", "failure_hits", "entries", "failed_entries"):
            assert key in body["registry"]
        for key in ("batches", "batched_requests", "splits",
                    "open_groups", "avg_batch_size"):
            assert key in body["coalesce"]

    def test_wfomc_matches_library(self, serve):
        h = serve()
        status, body, _ = h.request(
            "POST", "/v1/wfomc", {"formula": EXISTS, "n": 5})
        assert status == 200
        assert body["result"] == str(wfomc(parse(EXISTS), 5)) == "28629151"

    def test_probability_with_weights(self, serve):
        h = serve()
        status, body, _ = h.request(
            "POST", "/v1/probability",
            {"formula": EXISTS, "n": 3, "weights": {"R": ["1/2", "1"]}})
        assert status == 200
        f = parse(EXISTS)
        wv = WeightedVocabulary.counting(f).with_weight(
            "R", WeightPair(Fraction(1, 2), 1))
        assert Fraction(body["result"]) == probability(f, 3, wv)

    def test_weight_sweep_matches_library(self, serve):
        h = serve()
        values = [Fraction(1), Fraction(2), Fraction(1, 2)]
        status, body, _ = h.request(
            "POST", "/v1/wfomc_weight_sweep",
            {"formula": EXISTS, "n": 3, "vary": "R",
             "values": ["1", "2", "1/2"], "wbar": "1"})
        assert status == 200
        f = parse(EXISTS)
        base = WeightedVocabulary.counting(f)
        expected = wfomc_weight_sweep(
            f, 3, [base.with_weight("R", WeightPair(v, 1)) for v in values])
        assert body["result"]["values"] == [str(v) for v in values]
        assert body["result"]["results"] == [str(v) for v in expected]

    def test_mln_query_sweep_matches_library(self, serve):
        from repro import HARD, MLN

        h = serve()
        status, body, _ = h.request(
            "POST", "/v1/mln_query_sweep",
            {"query": "S(1)", "n": 3,
             "mlns": [[["2", "S(x)"]], [["3", "S(x)"]], [["hard", "S(x)"]]]})
        assert status == 200
        mlns = [MLN([(Fraction(2), parse("S(x)"))]),
                MLN([(Fraction(3), parse("S(x)"))]),
                MLN([(HARD, parse("S(x)"))])]
        expected = mln_query_sweep(mlns, parse("S(1)"), 3)
        assert body["result"] == [str(v) for v in expected]

    def test_unknown_endpoint_is_404(self, serve):
        h = serve()
        assert h.request("GET", "/nope")[0] == 404
        assert h.request("POST", "/v1/nope", {})[0] == 404

    def test_non_post_verb_is_405(self, serve):
        h = serve()
        assert h.request("PUT", "/v1/wfomc", {})[0] == 405

    def test_bad_json_and_bad_fields_are_typed_400(self, serve):
        h = serve()
        conn = http.client.HTTPConnection(*h.server.address, timeout=30)
        conn.request("POST", "/v1/wfomc", body=b"{nope")
        resp = conn.getresponse()
        data = json.loads(resp.read())
        conn.close()
        assert resp.status == 400
        assert data["error"]["retriable"] is False
        for payload in (
                {"n": 3},                                   # missing formula
                {"formula": EXISTS},                        # missing n
                {"formula": EXISTS, "n": "three"},          # bad type
                {"formula": "forall x. R(x", "n": 3},       # parse error
                {"formula": EXISTS, "n": 3,
                 "weights": {"Q": ["1", "1"]}},             # unknown pred
                {"formula": EXISTS, "n": 3, "deadline_ms": -1},
        ):
            status, body, _ = h.request("POST", "/v1/wfomc", payload)
            assert status == 400, payload
            assert body["ok"] is False and body["error"]["retriable"] is False

    def test_deep_nesting_is_typed_400_and_server_survives(self, serve):
        h = serve()
        deep_formula = json.dumps(
            {"formula": "(" * 200 + "R(1)" + ")" * 200, "n": 2})
        for body in (b"[" * 100_000, deep_formula.encode()):
            conn = http.client.HTTPConnection(*h.server.address, timeout=30)
            try:
                conn.request("POST", "/v1/wfomc", body=body)
                resp = conn.getresponse()
                data = json.loads(resp.read())
            finally:
                conn.close()
            assert resp.status == 400
            assert data["ok"] is False
            assert data["error"]["retriable"] is False
        status, body, _ = h.request(
            "POST", "/v1/wfomc", {"formula": EXISTS, "n": 3})
        assert status == 200
        assert body["result"] == str(wfomc(parse(EXISTS), 3))

    def test_formula_memo_keeps_parses_not_errors(self, serve):
        h = serve()
        f = parse(EXISTS)
        for w in (1, 2):
            status, body, _ = h.request(
                "POST", "/v1/wfomc",
                {"formula": EXISTS, "n": 3, "weights": {"R": [str(w), "1"]}})
            wv = WeightedVocabulary.counting(f).with_weight(
                "R", WeightPair(w, 1))
            assert status == 200 and body["result"] == str(wfomc(f, 3, wv))
        memo = h.server.formula_memo
        assert (len(memo), memo.hits) == (1, 1)
        status, body, _ = h.request(
            "POST", "/v1/wfomc", {"formula": "forall x. R(x", "n": 3})
        assert status == 400 and body["error"]["retriable"] is False
        assert len(memo) == 1

    def test_keep_alive_serves_multiple_requests(self, serve):
        h = serve()
        conn = http.client.HTTPConnection(*h.server.address, timeout=30)
        try:
            for _ in range(3):
                conn.request("POST", "/v1/wfomc", body=json.dumps(
                    {"formula": EXISTS, "n": 4}))
                resp = conn.getresponse()
                assert resp.status == 200
                assert json.loads(resp.read())["result"] == str(
                    wfomc(parse(EXISTS), 4))
        finally:
            conn.close()


class TestDeadlines:
    def test_expired_deadline_is_typed_504_within_2x(self, serve):
        # A hard instance (seconds of search) with a short deadline: the
        # budget trips inside the engine, and the daemon's backstop
        # bounds the total at 2x the deadline even if it did not.  Fresh
        # predicate names dodge the result caches.  The consequent is
        # negated: with ``Tk(x,z)`` the sentence is a tautology (take
        # z = y) whose CNF conversion drops every clause.
        h = serve()
        deadline_s = 0.3
        started = time.monotonic()
        status, body, _ = h.request(
            "POST", "/v1/wfomc",
            {"formula": "forall x. forall y. exists z."
                        " ((T0(x,y) & T0(y,z)) -> ~T0(x,z))",
             "n": 5, "deadline_ms": deadline_s * 1000})
        elapsed = time.monotonic() - started
        assert status == 504
        assert body["error"]["type"] == "BudgetExceededError"
        assert body["error"]["retriable"] is True
        # 2x the deadline plus slack for HTTP/JSON and a loaded CI box.
        assert elapsed < 2 * deadline_s + 1.0

    def test_zero_deadline_trips_immediately(self, serve):
        h = serve()
        started = time.monotonic()
        status, body, _ = h.request(
            "POST", "/v1/wfomc",
            {"formula": "forall x. forall y. exists z."
                        " ((T1(x,y) & T1(y,z)) -> ~T1(x,z))",
             "n": 5, "deadline_ms": 0})
        assert status == 504
        assert body["error"]["type"] == "BudgetExceededError"
        assert time.monotonic() - started < 5.0

    def test_generous_deadline_succeeds(self, serve):
        h = serve()
        status, body, _ = h.request(
            "POST", "/v1/wfomc",
            {"formula": EXISTS, "n": 5, "deadline_ms": 60000})
        assert status == 200 and body["result"] == "28629151"

    def test_abandoned_running_gauge_follows_the_stuck_thread(self, serve):
        h = serve()
        release = threading.Event()

        def stuck(call, options):
            release.wait(30)
            return Fraction(1)

        h.server._evaluate = stuck
        try:
            status, body, _ = h.request(
                "POST", "/v1/wfomc",
                {"formula": EXISTS, "n": 3, "deadline_ms": 50})
            assert status == 504
            assert body["error"]["type"] == "BudgetExceededError"
            metrics = h.request("GET", "/metrics")[1]
            assert metrics["abandoned_running"] == 1
            assert metrics["server"]["abandoned"] == 1
            _, text, _ = h.request_text("GET", "/metrics?format=prometheus")
            assert "# TYPE repro_server_abandoned_running gauge" in text
            assert "repro_server_abandoned_running 1\n" in text
        finally:
            release.set()
        deadline = time.monotonic() + 10
        while (h.request("GET", "/metrics")[1]["abandoned_running"]
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert h.request("GET", "/metrics")[1]["abandoned_running"] == 0

    @pytest.mark.parametrize("literal", [
        "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "-1"])
    def test_non_finite_deadline_is_typed_400_on_both_routes(
            self, serve, literal):
        # ``json.loads`` parses these literals; none of them is a
        # deadline.  NaN used to 504 at once while its evaluation
        # thread ran on, and infinities passed as no deadline at all.
        formula = "forall x. exists y. ND(x, y)"
        coalesced = serve(options=SolverOptions(compile=True))
        assert coalesced.request("POST", "/v1/wfomc",
                                 {"formula": formula, "n": 4})[0] == 200
        solo = serve(coalesce=False)
        for h in (coalesced, solo):
            conn = http.client.HTTPConnection(*h.server.address, timeout=60)
            try:
                conn.request(
                    "POST", "/v1/wfomc",
                    body='{"formula": "%s", "n": 4, "weights": {"ND":'
                         ' ["1/2", "1"]}, "deadline_ms": %s}'
                         % (formula, literal))
                resp = conn.getresponse()
                status, body = resp.status, json.loads(resp.read())
            finally:
                conn.close()
            assert status == 400
            assert body["error"]["type"] == "ReproError"
            assert "finite, non-negative" in body["error"]["message"]
            metrics = h.request("GET", "/metrics")[1]
            assert metrics["abandoned_running"] == 0
            assert metrics["server"]["input_errors"] == 1
        snap = coalesced.request("GET", "/metrics")[1]["coalesce"]
        assert snap["batched_requests"] == 0

    def test_default_deadline_applies(self, serve):
        h = serve(default_deadline_ms=100.0)
        status, body, _ = h.request(
            "POST", "/v1/wfomc",
            {"formula": "forall x. forall y. exists z."
                        " ((T2(x,y) & T2(y,z)) -> ~T2(x,z))", "n": 5})
        assert status == 504
        assert body["error"]["type"] == "BudgetExceededError"


class TestAdmission:
    def test_overload_sheds_with_429_and_retry_after(self, serve):
        h = serve(max_concurrency=1, queue_depth=0)
        started = threading.Event()
        release = threading.Event()

        def stuck(call, options):
            started.set()
            release.wait(30)
            return Fraction(1)

        h.server._evaluate = stuck
        results = []
        blocker = threading.Thread(
            target=lambda: results.append(h.request(
                "POST", "/v1/wfomc", {"formula": EXISTS, "n": 3})))
        blocker.start()
        try:
            assert started.wait(15)
            status, body, headers = h.request(
                "POST", "/v1/wfomc", {"formula": EXISTS, "n": 3})
            assert status == 429
            assert body["error"]["type"] == "ServiceOverloadedError"
            assert body["error"]["retriable"] is True
            assert int(headers["Retry-After"]) >= 1
        finally:
            release.set()
            blocker.join(30)
        assert results and results[0][0] == 200

    def test_abandoned_granted_waiter_returns_slot(self):
        # The slot-leak regression: a queued waiter whose slot has just
        # been granted and whose task is then *destroyed* (client gone,
        # pending handler torn down) receives GeneratorExit at the
        # await, not CancelledError.  Pre-fix (asyncio.Semaphore-backed
        # admission) the granted slot was lost forever and the waiting
        # gauge went stale; the controller must hand the slot to the
        # next request and keep its counters exact.
        from repro.serve.admission import AdmissionController

        async def scenario():
            ac = AdmissionController(max_concurrency=1, queue_depth=4)
            release = asyncio.Event()

            async def hold():
                async with ac.admit():
                    await release.wait()

            holder = asyncio.ensure_future(hold())
            await asyncio.sleep(0)
            assert ac.running == 1

            # Drive a second admission by hand to its suspension point,
            # exactly where a real handler task would be parked.
            aenter = ac.admit().__aenter__()
            aenter.send(None)
            assert ac.waiting == 1

            release.set()
            await holder  # hands the freed slot to the queued waiter
            assert ac.waiting == 0

            aenter.close()  # GeneratorExit into the granted waiter

            # The granted-then-abandoned slot must be back in service.
            async with ac.admit():
                assert ac.running == 1
            assert ac.waiting == 0

        asyncio.run(scenario())

    def test_cancelled_queued_waiters_restore_capacity(self):
        # Clients that disconnect while queued (plain task cancellation)
        # must leave full capacity and an empty queue behind.
        from repro.serve.admission import AdmissionController

        async def scenario():
            ac = AdmissionController(max_concurrency=2, queue_depth=8)
            release = asyncio.Event()

            async def hold():
                async with ac.admit():
                    await release.wait()

            holders = [asyncio.ensure_future(hold()) for _ in range(2)]
            await asyncio.sleep(0)
            queued = [asyncio.ensure_future(hold()) for _ in range(3)]
            await asyncio.sleep(0)
            assert (ac.running, ac.waiting) == (2, 3)
            for task in queued:
                task.cancel()
            await asyncio.gather(*queued, return_exceptions=True)
            assert ac.waiting == 0
            release.set()
            await asyncio.gather(*holders)
            # Both slots admit concurrently again.
            async with ac.admit():
                async with ac.admit():
                    assert ac.running == 2
            assert (ac.running, ac.waiting) == (0, 0)

        asyncio.run(scenario())

    def test_draining_rejects_new_requests_with_503(self, serve):
        h = serve()
        h.loop.call_soon_threadsafe(setattr, h.server, "draining", True)
        deadline = time.monotonic() + 5
        while not h.server.draining and time.monotonic() < deadline:
            time.sleep(0.01)
        status, body, _ = h.request(
            "POST", "/v1/wfomc", {"formula": EXISTS, "n": 3})
        assert status == 503
        assert body["error"]["type"] == "ServiceDrainingError"
        assert body["error"]["retriable"] is True
        assert h.request("GET", "/readyz")[0] == 503
        assert h.request("GET", "/healthz")[0] == 200

    def test_shutdown_closes_idle_keep_alive_connections_quietly(
            self, serve):
        # An idle keep-alive client must not keep its handler parked
        # past shutdown, where the loop's teardown would cancel it and
        # the stream callback would report the cancellation.
        h = serve()
        conn = http.client.HTTPConnection(*h.server.address, timeout=30)
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
            started = time.monotonic()
            h.close()  # asserts the loop reported nothing
            assert time.monotonic() - started < 10.0
            assert conn.sock.recv(1) == b""  # the daemon closed it
        finally:
            conn.close()


class TestDegradation:
    def test_ladder_orders_backends_then_direct(self):
        # A compiled request falls back to direct counting; a plain one
        # has nothing to fall back to.
        opts = SolverOptions(compile=True)
        assert _Daemon._degradation_ladder(opts) == [opts, SolverOptions()]
        assert _Daemon._degradation_ladder(SolverOptions()) == [
            SolverOptions()]

    def test_compile_failure_degrades_to_direct_count(
            self, serve, monkeypatch):
        import repro.compile

        def boom(*args, **kwargs):
            raise RuntimeError("injected compile crash")

        monkeypatch.setattr(repro.compile, "compile_wfomc", boom)
        h = serve(options=SolverOptions(compile=True))
        status, body, _ = h.request(
            "POST", "/v1/wfomc", {"formula": EXISTS, "n": 4})
        assert status == 200
        assert body["result"] == str(wfomc(parse(EXISTS), 4))
        snap = h.server.registry.snapshot()
        assert snap["failures"] == 1
        assert snap["degraded_direct"] == 1
        # The failure is memoised: the next request degrades without
        # re-attempting the compile.
        status, body, _ = h.request(
            "POST", "/v1/wfomc", {"formula": EXISTS, "n": 4})
        assert status == 200
        assert h.server.registry.snapshot()["failures"] == 1

    def test_registry_single_flight_under_concurrency(self, serve):
        h = serve(options=SolverOptions(compile=True), max_concurrency=4)
        threads = []
        results = []
        lock = threading.Lock()

        def hit():
            out = h.request("POST", "/v1/wfomc",
                            {"formula": "forall x. exists y. SF(x, y)",
                             "n": 5})
            with lock:
                results.append(out)

        for _ in range(6):
            threads.append(threading.Thread(target=hit))
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert all(status == 200 and body["result"] == "28629151"
                   for status, body, _ in results)
        assert h.server.registry.snapshot()["compiles"] == 1


class TestRegistryBugfixes:
    def test_single_flight_lock_pool_is_bounded(self, monkeypatch):
        # The lock-leak regression: pre-fix the registry kept one lock
        # per distinct key forever — the LRU evicted circuits but
        # nothing evicted locks, an unbounded leak on a long-running
        # daemon.  Churning more instances than the capacity must leave
        # the lock structure at the pool bound.
        import repro.compile
        from repro.serve.registry import CircuitRegistry

        marker = object()
        monkeypatch.setattr(repro.compile, "compile_wfomc",
                            lambda *args, **kwargs: marker)
        registry = CircuitRegistry(capacity=64)
        f = parse(EXISTS)
        voc = WeightedVocabulary.counting(f).vocabulary
        opts = SolverOptions(compile=True)
        for n in range(2, 102):  # 100 distinct instances > capacity
            assert registry.prepare(f, n, voc, opts) is opts
        assert len(registry._locks) <= 64
        snap = registry.snapshot()
        assert snap["compiles"] == 100
        assert snap["entries"] <= 64
        # The pool still single-flights: a warm instance is a peek hit.
        assert registry.peek(registry.key(f, 101, voc, opts)) is marker

    def test_failed_compiles_are_neither_hits_nor_entries(
            self, monkeypatch):
        # The metrics-lie regression: pre-fix a memoized compile failure
        # counted as a cache *hit* on every later request and as a live
        # *entry* in the snapshot.  Failures must be reported on their
        # own axes.
        import repro.compile
        from repro.serve.registry import CircuitRegistry

        def boom(*args, **kwargs):
            raise RuntimeError("injected compile crash")

        monkeypatch.setattr(repro.compile, "compile_wfomc", boom)
        registry = CircuitRegistry()
        f = parse(EXISTS)
        voc = WeightedVocabulary.counting(f).vocabulary
        opts = SolverOptions(compile=True)
        for _ in range(2):
            resolved = registry.prepare(f, 3, voc, opts)
            assert not resolved.compile  # degraded to direct counting
        assert registry.peek(registry.key(f, 3, voc, opts)) is None
        snap = registry.snapshot()
        assert snap["failures"] == 1
        assert snap["failure_hits"] == 1
        assert snap["hits"] == 0
        assert snap["entries"] == 0
        assert snap["failed_entries"] == 1
        assert snap["degraded_direct"] == 2


class GatedCompiled:
    """A fake compiled circuit for driving the batcher directly.

    Its first ``blocked`` ``evaluate_many`` calls set ``entered`` and
    wait for ``release``; every call records its batch in ``batches``
    and answers each weight column with the column itself.
    """

    def __init__(self, blocked=0):
        self.blocked = blocked
        self.batches = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def evaluate_many(self, vocabularies):
        self.batches.append(list(vocabularies))
        if len(self.batches) <= self.blocked:
            self.entered.set()
            self.release.wait(30)
        return list(vocabularies)


def _coalescer(fallback=None, max_batch=32, abandon=None, hops=None,
               **hists):
    """A batcher on the running loop's default executor; ``hops``, when
    given, receives every callable sent to the executor."""
    from repro.serve.coalesce import RequestCoalescer

    loop = asyncio.get_running_loop()

    def run_in_executor(fn):
        if hops is not None:
            hops.append(fn)
        return loop.run_in_executor(None, fn)

    return RequestCoalescer(
        run_in_executor=run_in_executor,
        fallback=fallback, max_batch=max_batch,
        abandon=abandon or (lambda future: None), **hists)


def _spec(wv):
    """A spec of unknown weight width: its batches always take the
    executor, so a blocked :class:`GatedCompiled` never stalls the loop."""
    from repro.serve.coalesce import CoalesceSpec

    return CoalesceSpec("f", 3, wv, lambda count: count)


def _weighted_spec(w, formula=EXISTS, n=3):
    """A spec with real weights, ``R`` at ``(w, 1)``, and their width."""
    from repro.serve.coalesce import CoalesceSpec, weight_bits

    f = parse(formula)
    wv = WeightedVocabulary.counting(f).with_weight(
        "R", WeightPair(Fraction(w), 1))
    return CoalesceSpec(f, n, wv, lambda count: count, weight_bits(wv))


async def _entered(compiled):
    """Wait, off the loop, until ``compiled`` is stuck in a batch."""
    loop = asyncio.get_running_loop()
    assert await loop.run_in_executor(None, compiled.entered.wait, 10)


class TestCoalescing:
    FORMULA = "forall x. exists y. B(x, y)"

    def test_concurrent_mixed_endpoints_share_batches_bit_identical(
            self, serve):
        h = serve(options=SolverOptions(compile=True), max_concurrency=8,
                  coalesce_max_batch=8)
        # Warm the circuit: the cold request bypasses the batcher and
        # compiles single-flight.
        assert h.request("POST", "/v1/wfomc",
                         {"formula": self.FORMULA, "n": 4})[0] == 200
        f = parse(self.FORMULA)
        jobs = []
        for i in range(4):
            w = Fraction(i + 1, 3)
            wv = WeightedVocabulary.counting(f).with_weight(
                "B", WeightPair(w, 1))
            jobs.append(("/v1/wfomc",
                         {"formula": self.FORMULA, "n": 4,
                          "weights": {"B": [str(w), "1"]}},
                         str(wfomc(f, 4, wv))))
        for i in range(4):
            w = Fraction(i + 2, 5)
            wv = WeightedVocabulary.counting(f).with_weight(
                "B", WeightPair(w, 1))
            jobs.append(("/v1/probability",
                         {"formula": self.FORMULA, "n": 4,
                          "weights": {"B": [str(w), "1"]}},
                         str(probability(f, 4, wv))))
        results = [None] * len(jobs)

        def run(idx, path, payload, expected):
            results[idx] = (h.request("POST", path, payload), expected)

        threads = [threading.Thread(target=run, args=(i, *job))
                   for i, job in enumerate(jobs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        for (status, body, _), expected in results:
            assert status == 200
            assert body["result"] == expected
        snap = h.request("GET", "/metrics")[1]["coalesce"]
        # Every warm request went through the batcher (wfomc and
        # probability coalesce together: one circuit, two finishers),
        # and no batch needed to split.
        assert snap["batched_requests"] == len(jobs)
        assert snap["batches"] >= 1
        assert snap["splits"] == 0

    def test_cold_instance_bypasses_then_warm_singleton_batches(
            self, serve):
        h = serve(options=SolverOptions(compile=True))
        formula = "forall x. exists y. CO(x, y)"
        assert h.request("POST", "/v1/wfomc",
                         {"formula": formula, "n": 4})[0] == 200
        snap = h.request("GET", "/metrics")[1]["coalesce"]
        assert (snap["batches"], snap["batched_requests"]) == (0, 0)
        status, body, _ = h.request(
            "POST", "/v1/wfomc",
            {"formula": formula, "n": 4, "weights": {"CO": ["2", "1"]}})
        assert status == 200
        wv = WeightedVocabulary.counting(parse(formula)).with_weight(
            "CO", WeightPair(Fraction(2), 1))
        assert body["result"] == str(wfomc(parse(formula), 4, wv))
        metrics = h.request("GET", "/metrics")[1]
        snap = metrics["coalesce"]
        assert snap["batches"] == 1
        assert snap["batched_requests"] == 1
        assert snap["flush_idle"] == 1
        # The batched request records its evaluation like the solo one.
        assert metrics["phases"]["evaluate"]["count"] == 2

    def test_coalesced_request_builds_one_registry_key(
            self, serve, monkeypatch):
        # The warm-circuit lookup and the batcher share one circuit
        # identity: a coalesced request builds it once, not once per use.
        from repro.serve.registry import CircuitRegistry

        h = serve(options=SolverOptions(compile=True))
        formula = "forall x. exists y. KB(x, y)"
        assert h.request("POST", "/v1/wfomc",
                         {"formula": formula, "n": 4})[0] == 200
        builds = []
        key = CircuitRegistry.key

        def counted_key(*args):
            builds.append(args)
            return key(*args)

        monkeypatch.setattr(CircuitRegistry, "key", staticmethod(counted_key))
        for weight in ("2", "3"):
            status, _body, _ = h.request(
                "POST", "/v1/wfomc",
                {"formula": formula, "n": 4,
                 "weights": {"KB": [weight, "1"]}})
            assert status == 200
        snap = h.request("GET", "/metrics")[1]["coalesce"]
        assert snap["batched_requests"] == 2
        assert len(builds) == 2

    def test_drain_flushes_parked_group_promptly(self, serve, monkeypatch):
        # A request parked behind a stuck batch when the drain lands
        # must be flushed and answered now, not stranded until the
        # stuck batch returns.
        from repro.compile import CompiledWFOMC

        h = serve(options=SolverOptions(compile=True))
        formula = "forall x. exists y. DR(x, y)"
        assert h.request("POST", "/v1/wfomc",
                         {"formula": formula, "n": 4})[0] == 200
        entered, release = threading.Event(), threading.Event()
        evaluate_many = CompiledWFOMC.evaluate_many

        def first_batch_sticks(self, vocabularies):
            if not entered.is_set():
                entered.set()
                release.wait(30)
            return evaluate_many(self, vocabularies)

        monkeypatch.setattr(CompiledWFOMC, "evaluate_many",
                            first_batch_sticks)
        out = {}

        def post(weight):
            out[weight] = h.request(
                "POST", "/v1/wfomc",
                {"formula": formula, "n": 4,
                 "weights": {"DR": [weight, "1"]}})

        stuck = threading.Thread(target=post, args=("1/3",))
        parked = threading.Thread(target=post, args=("1/2",))
        closer = threading.Thread(target=h.close)
        try:
            stuck.start()
            assert entered.wait(10), "the first batch never started"
            parked.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if h.server.coalescer.snapshot()["open_groups"]:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("request never parked behind the batch")
            started = time.monotonic()
            closer.start()
            parked.join(30)
            elapsed = time.monotonic() - started
        finally:
            release.set()
        stuck.join(30)
        closer.join(30)
        assert not closer.is_alive()
        for weight in ("1/3", "1/2"):
            status, body, _ = out[weight]
            wv = WeightedVocabulary.counting(parse(formula)).with_weight(
                "DR", WeightPair(Fraction(weight), 1))
            assert status == 200
            assert body["result"] == str(wfomc(parse(formula), 4, wv))
        assert elapsed < 10.0  # flushed by the drain, not the batch
        assert h.server.coalescer.counters["flush_drain"] == 1

    def test_budget_trip_splits_batch_not_collective_504(self):
        # The tightest member's budget trips mid-batch: the batch must
        # split to per-request fallback with each member's *own*
        # remaining deadline — only the expired member answers 504.
        from repro.errors import BudgetExceededError
        from repro.serve.coalesce import CoalesceSpec

        release = threading.Event()

        class StuckCompiled:
            def evaluate_many(self, vocabularies):
                release.wait(30)
                return [Fraction(0)] * len(vocabularies)

        async def scenario():
            abandoned = []

            async def fallback(call, deadline_ms):
                if deadline_ms is not None and deadline_ms < 50.0:
                    raise BudgetExceededError("timeout", elapsed=0.0)
                return ("solo", call)

            coalescer = _coalescer(fallback, max_batch=2,
                                   abandon=abandoned.append)
            spec = CoalesceSpec("f", 3, object(), lambda count: count)
            tight = coalescer.submit("k", StuckCompiled(), spec, "tight",
                                     100.0)
            roomy = coalescer.submit("k", StuckCompiled(), spec, "roomy",
                                     60000.0)  # triggers the full flush
            assert await roomy == ("solo", "roomy")
            with pytest.raises(BudgetExceededError):
                await tight
            snap = coalescer.snapshot()
            assert snap["flush_full"] == 1
            assert snap["splits"] == 1
            assert snap["split_requests"] == 2
            assert len(abandoned) == 1  # the stuck batch's thread
            release.set()

        asyncio.run(scenario())

    def test_backend_fault_splits_to_solo_fallback(self):
        # An evaluation fault inside evaluate_many must retry every member
        # through the ordinary per-request path, never surface the
        # batch's internal error collectively.
        from repro.serve.coalesce import CoalesceSpec

        class BrokenCompiled:
            def evaluate_many(self, vocabularies):
                raise RuntimeError("injected evaluation fault")

        async def scenario():
            calls = []

            async def fallback(call, deadline_ms):
                calls.append((call, deadline_ms))
                return Fraction(42)

            coalescer = _coalescer(fallback)
            spec = CoalesceSpec("f", 3, object(), lambda count: count)
            futures = [
                coalescer.submit("k", BrokenCompiled(), spec,
                                 "call{}".format(i), None)
                for i in range(3)]
            assert await asyncio.gather(*futures) == [Fraction(42)] * 3
            assert sorted(call for call, _ in calls) == [
                "call0", "call1", "call2"]
            assert all(deadline is None for _, deadline in calls)
            snap = coalescer.snapshot()
            assert snap["splits"] == 1
            assert snap["split_requests"] == 3
            assert snap["flush_idle"] == 1

        asyncio.run(scenario())

    def test_draining_batcher_refuses_new_submissions(self):
        from repro.serve.coalesce import CoalesceSpec, RequestCoalescer

        async def scenario():
            coalescer = RequestCoalescer(
                run_in_executor=lambda fn: None,
                fallback=None, max_batch=4, abandon=None)
            coalescer.drain()
            spec = CoalesceSpec("f", 3, object(), lambda count: count)
            assert coalescer.submit("k", object(), spec, "c", None) is None

        asyncio.run(scenario())

    # -- the batch-while-busy policy ---------------------------------------

    def test_lone_submit_flushes_on_next_loop_turn(self):
        async def scenario():
            coalescer = _coalescer()
            compiled = GatedCompiled()
            future = coalescer.submit("k", compiled, _spec(7), "c", None)
            assert coalescer.snapshot()["open_groups"] == 1
            await asyncio.sleep(0)
            snap = coalescer.snapshot()
            assert (snap["open_groups"], snap["flush_idle"],
                    snap["batches"]) == (0, 1, 1)
            assert await future == 7
            assert compiled.batches == [[7]]

        asyncio.run(scenario())

    def test_submits_in_one_loop_turn_share_a_batch(self):
        from repro.obs import Histogram

        async def scenario():
            evaluate = Histogram()
            coalescer = _coalescer(evaluate_hist=evaluate)
            compiled = GatedCompiled()
            futures = [coalescer.submit("k", compiled, _spec(w), "c", None)
                       for w in (1, 2)]
            assert await asyncio.gather(*futures) == [1, 2]
            assert compiled.batches == [[1, 2]]
            assert coalescer.snapshot()["flush_idle"] == 1
            assert evaluate.count == 2  # the batch's time, once per member

        asyncio.run(scenario())

    def test_arrivals_while_a_batch_runs_form_one_follow_up_batch(self):
        async def scenario():
            coalescer = _coalescer()
            compiled = GatedCompiled(blocked=1)
            first = coalescer.submit("k", compiled, _spec(1), "c", None)
            later = []
            try:
                await _entered(compiled)
                for w in (2, 3, 4):  # one arrival per loop turn
                    later.append(
                        coalescer.submit("k", compiled, _spec(w), "c", None))
                    await asyncio.sleep(0.01)
                snap = coalescer.snapshot()
                assert (snap["open_groups"], snap["batches"]) == (1, 1)
            finally:
                compiled.release.set()
            assert await first == 1
            assert await asyncio.gather(*later) == [2, 3, 4]
            assert compiled.batches == [[1], [2, 3, 4]]
            snap = coalescer.snapshot()
            assert (snap["flush_idle"], snap["flush_after_batch"],
                    snap["batches"]) == (1, 1, 2)

        asyncio.run(scenario())

    def test_other_identity_is_not_held_behind_a_running_batch(self):
        async def scenario():
            coalescer = _coalescer()
            stuck, other = GatedCompiled(blocked=1), GatedCompiled()
            held = coalescer.submit("a", stuck, _spec(1), "c", None)
            try:
                await _entered(stuck)
                free = coalescer.submit("b", other, _spec(2), "c", None)
                assert await asyncio.wait_for(free, 10) == 2
                assert not held.done()
            finally:
                stuck.release.set()
            assert await held == 1
            assert coalescer.snapshot()["flush_idle"] == 2

        asyncio.run(scenario())

    def test_max_batch_flushes_at_once_while_a_batch_runs(self):
        async def scenario():
            coalescer = _coalescer(max_batch=2)
            compiled = GatedCompiled(blocked=1)
            first = coalescer.submit("k", compiled, _spec(1), "c", None)
            try:
                await _entered(compiled)
                full = [coalescer.submit("k", compiled, _spec(w), "c", None)
                        for w in (2, 3)]
                assert coalescer.snapshot()["flush_full"] == 1
                assert await asyncio.wait_for(
                    asyncio.gather(*full), 10) == [2, 3]
                assert not first.done()
            finally:
                compiled.release.set()
            assert await first == 1
            assert compiled.batches == [[1], [2, 3]]
            snap = coalescer.snapshot()
            assert (snap["batches"], snap["flush_after_batch"],
                    snap["open_groups"]) == (2, 0, 0)

        asyncio.run(scenario())

    def test_parked_deadline_member_answers_within_2x_behind_stuck_batch(
            self):
        async def scenario():
            loop = asyncio.get_running_loop()
            coalescer = _coalescer()
            compiled = GatedCompiled(blocked=1)
            stuck = coalescer.submit("k", compiled, _spec(1), "c", None)
            try:
                await _entered(compiled)
                started = loop.time()
                parked = coalescer.submit("k", compiled, _spec(2), "c",
                                          200.0)
                assert await asyncio.wait_for(parked, 10) == 2
                elapsed = loop.time() - started
                # Flushed as its own batch once half its deadline was
                # spent, well inside twice the deadline.
                assert 0.09 <= elapsed < 0.4
                assert not stuck.done()
                snap = coalescer.snapshot()
                assert (snap["flush_deadline"], snap["splits"]) == (1, 0)
            finally:
                compiled.release.set()
            assert await stuck == 1

        asyncio.run(scenario())


class TestInlineBatches:
    """Where a batch runs: on the executor, or on the event loop when it
    is deadline-free and measured cheap at weights at least as wide."""

    def test_first_batch_hops_then_cheap_repeat_runs_inline(self):
        from repro.compile import compile_wfomc

        f = parse(EXISTS)
        compiled = compile_wfomc(f, 3, WeightedVocabulary.counting(f)
                                 .vocabulary)

        async def scenario():
            hops = []
            coalescer = _coalescer(hops=hops)
            spec = _weighted_spec("1/2")
            first = await coalescer.submit("k", compiled, spec, "c", None)
            assert (len(hops), coalescer.counters["inline_batches"]) == (1, 0)
            again = await coalescer.submit("k", compiled, spec, "c", None)
            assert (len(hops), coalescer.counters["inline_batches"]) == (1, 1)
            assert first == again == wfomc(f, 3, spec.wv)
            snap = coalescer.snapshot()
            assert (snap["batches"], snap["inline_batches"]) == (2, 1)

        asyncio.run(scenario())

    def test_batch_with_a_deadline_member_takes_the_executor(self):
        async def scenario():
            hops = []
            coalescer = _coalescer(hops=hops)
            compiled = GatedCompiled()
            spec = _weighted_spec(2)
            await coalescer.submit("k", compiled, spec, "c", None)
            futures = [coalescer.submit("k", compiled, spec, "c", deadline)
                       for deadline in (None, 60000.0)]
            await asyncio.gather(*futures)
            assert compiled.batches[1] == [spec.wv, spec.wv]
            assert (len(hops), coalescer.counters["inline_batches"]) == (2, 0)
            await coalescer.submit("k", compiled, spec, "c", None)
            assert (len(hops), coalescer.counters["inline_batches"]) == (2, 1)

        asyncio.run(scenario())

    def test_identity_measured_at_the_switch_interval_takes_the_executor(
            self):
        class SlowCompiled(GatedCompiled):
            def evaluate_many(self, vocabularies):
                time.sleep(sys.getswitchinterval())
                return super().evaluate_many(vocabularies)

        async def scenario():
            hops = []
            coalescer = _coalescer(hops=hops)
            compiled = SlowCompiled()
            spec = _weighted_spec(2)
            for _ in range(3):
                assert await coalescer.submit(
                    "k", compiled, spec, "c", None) is spec.wv
            assert (len(hops), coalescer.counters["inline_batches"]) == (3, 0)

        asyncio.run(scenario())

    def test_wider_weights_take_the_executor_until_measured(self):
        # A 400-digit numerator measured only at narrow weights could be
        # arbitrarily slow, so it goes to the executor once; measured
        # cheap at that width, it and anything narrower run inline.
        wide = 10 ** 400

        async def scenario():
            hops = []
            coalescer = _coalescer(hops=hops)
            compiled = GatedCompiled()
            routes = []
            for w in ("1/2", "1/3", wide + 1, wide + 3, "1/5"):
                spec = _weighted_spec(w)
                assert await coalescer.submit(
                    "k", compiled, spec, "c", None) is spec.wv
                routes.append(len(hops))
            assert routes == [1, 1, 2, 2, 2]
            assert coalescer.counters["inline_batches"] == 3

        asyncio.run(scenario())

    def test_inline_fault_splits_to_solo_fallback(self):
        class FailsAfterFirst(GatedCompiled):
            def evaluate_many(self, vocabularies):
                if self.batches:
                    raise RuntimeError("injected evaluation fault")
                return super().evaluate_many(vocabularies)

        async def scenario():
            calls = []

            async def fallback(call, deadline_ms):
                calls.append((call, deadline_ms))
                return Fraction(42)

            hops = []
            coalescer = _coalescer(fallback, hops=hops)
            compiled = FailsAfterFirst()
            spec = _weighted_spec(2)
            assert await coalescer.submit(
                "k", compiled, spec, "call0", None) is spec.wv
            futures = [coalescer.submit("k", compiled, spec,
                                        "call{}".format(i), None)
                       for i in (1, 2)]
            assert await asyncio.gather(*futures) == [Fraction(42)] * 2
            assert calls == [("call1", None), ("call2", None)]
            snap = coalescer.snapshot()
            assert (len(hops), snap["inline_batches"]) == (1, 1)
            assert (snap["splits"], snap["split_requests"]) == (1, 2)

        asyncio.run(scenario())

    def test_warm_requests_run_inline_bit_identical_to_library(self, serve):
        h = serve(options=SolverOptions(compile=True))
        formula = "forall x. exists y. IN(x, y)"
        f = parse(formula)
        assert h.request("POST", "/v1/wfomc",
                         {"formula": formula, "n": 4})[0] == 200
        for i in range(12):
            # One weight width throughout: only the first batch hops.
            w = Fraction(17 + i, 31)
            wv = WeightedVocabulary.counting(f).with_weight(
                "IN", WeightPair(w, 1))
            path, library = (("/v1/wfomc", wfomc) if i % 2 else
                             ("/v1/probability", probability))
            status, body, _ = h.request(
                "POST", path, {"formula": formula, "n": 4,
                               "weights": {"IN": [str(w), "1"]}})
            assert status == 200
            assert body["result"] == str(library(f, 4, wv))
        metrics = h.request("GET", "/metrics")[1]
        snap = metrics["coalesce"]
        assert (snap["batches"], snap["splits"]) == (12, 0)
        assert snap["inline_batches"] >= 1
        assert snap["batches"] - snap["inline_batches"] >= 1
        assert metrics["phases"]["evaluate"]["count"] == 13


class TestChaosDifferential:
    def test_concurrent_requests_under_faults_are_bit_identical(
            self, serve, tmp_path):
        # The acceptance criterion: N concurrent requests under injected
        # store and worker faults answer exactly what fault-free
        # evaluation answers, or fail with typed retriable errors.
        from repro.wfomc.solver import clear_solver_caches

        requests = []
        for i in range(4):
            formula = "forall x. exists y. C{}(x, y)".format(i)
            requests.append((
                "/v1/wfomc",
                {"formula": formula, "n": 4,
                 "weights": {"C{}".format(i): [str(Fraction(i + 1, 2)), "1"]}},
                str(wfomc(parse(formula), 4,
                          WeightedVocabulary.counting(parse(formula))
                          .with_weight("C{}".format(i),
                                       WeightPair(Fraction(i + 1, 2), 1))))))
        for i in range(4):
            formula = "forall x. forall y. (D{0}(x, y) -> D{0}(y, x))".format(i)
            requests.append((
                "/v1/wfomc", {"formula": formula, "n": 3},
                str(wfomc(parse(formula), 3))))
        clear_solver_caches()

        h = serve(options=SolverOptions(
            persist=True, cache_dir=str(tmp_path / "cache"), workers=2),
            max_concurrency=4, queue_depth=32)
        install_plan(
            "seed=5;store_busy?0.25;store_torn_write?0.15;worker_crash?0.1")
        results = [None] * (2 * len(requests))
        threads = []

        def run(idx, path, payload, expected):
            status, body, _ = h.request("POST", path, payload)
            results[idx] = (status, body, expected)

        for round_ in range(2):
            for j, (path, payload, expected) in enumerate(requests):
                idx = round_ * len(requests) + j
                threads.append(threading.Thread(
                    target=run, args=(idx, path, payload, expected)))
        for t in threads:
            t.start()
        for t in threads:
            t.join(180)
        clear_plan()
        assert all(r is not None for r in results)
        for status, body, expected in results:
            if status == 200:
                assert body["result"] == expected
            else:
                assert status in (429, 503, 504), body
                assert body["error"]["retriable"] is True
        h.close()
        from repro.cache.store import _STORES

        store = _STORES.pop(os.path.abspath(str(tmp_path / "cache")), None)
        if store is not None:
            store.close()

    def test_coalesced_mixed_identities_and_budget_trips_under_faults(
            self, serve, tmp_path):
        # Coalescing under chaos: concurrent requests against *two*
        # circuit identities, store + worker faults firing, and
        # per-circuit members whose deadlines expire mid-batch.
        # Every 200 must be bit-identical to the fault-free serial
        # reference; everything else must be a typed retriable error —
        # a tripped batch splits, it never 504s its batchmates.
        from repro.cache.store import _STORES
        from repro.wfomc.solver import clear_solver_caches

        formulas = ["forall x. exists y. M0(x, y)",
                    "forall x. exists y. M1(x, y)"]
        jobs = []  # (payload, fault-free expected, may_time_out)
        for fi, text in enumerate(formulas):
            f = parse(text)
            pred = "M{}".format(fi)
            for i in range(4):
                w = Fraction(i + 1, 2)
                wv = WeightedVocabulary.counting(f).with_weight(
                    pred, WeightPair(w, 1))
                jobs.append((
                    {"formula": text, "n": 4,
                     "weights": {pred: [str(w), "1"]},
                     "deadline_ms": 60000},
                    str(wfomc(f, 4, wv)), False))
            # One member per circuit with an immediately-expiring
            # deadline: it lands mid-batch and must trip and split
            # without dragging its batchmates down with it.
            wv = WeightedVocabulary.counting(f).with_weight(
                pred, WeightPair(Fraction(1, 3), 1))
            jobs.append((
                {"formula": text, "n": 4,
                 "weights": {pred: ["1/3", "1"]}, "deadline_ms": 1},
                str(wfomc(f, 4, wv)), True))
        clear_solver_caches()

        h = serve(options=SolverOptions(
            compile=True, persist=True,
            cache_dir=str(tmp_path / "cache")),
            max_concurrency=4, queue_depth=32)
        # Warm both circuits fault-free so the batcher engages.
        for text in formulas:
            assert h.request("POST", "/v1/wfomc",
                             {"formula": text, "n": 4})[0] == 200
        install_plan(
            "seed=11;store_busy?0.2;store_torn_write?0.1;worker_crash?0.1")
        results = [None] * len(jobs)

        def run(idx, payload, expected):
            status, body, _ = h.request("POST", "/v1/wfomc", payload)
            results[idx] = (status, body, expected)

        threads = [threading.Thread(
            target=run, args=(i, payload, expected))
            for i, (payload, expected, _) in enumerate(jobs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(180)
        clear_plan()
        assert all(r is not None for r in results)
        roomy_ok = 0
        for (status, body, expected), (_, _, may_time_out) in zip(
                results, jobs):
            if status == 200:
                assert body["result"] == expected
                roomy_ok += not may_time_out
            else:
                assert status in (429, 503, 504), body
                assert body["error"]["retriable"] is True
                if not may_time_out:
                    # Generous deadlines never answer 504 — a split
                    # batch retries them solo; only shedding and
                    # drain-class rejections remain.
                    assert status != 504, body
        # The sweep is not vacuous: warm-circuit requests succeeded.
        assert roomy_ok >= 1
        h.close()
        for key in list(_STORES):
            if str(tmp_path) in key:
                _STORES.pop(key).close()


class TestSigtermDrain:
    def _spawn(self, *extra):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        env.pop("REPRO_FAULT_PLAN", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            cwd=root, text=True)
        line = proc.stdout.readline()
        assert "listening on http://" in line, (line, proc.stderr.read())
        hostport = line.strip().rsplit("http://", 1)[1]
        host, port = hostport.split(":")
        return proc, host, int(port)

    def _post(self, host, port, payload, timeout=120):
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            conn.request("POST", "/v1/wfomc", body=json.dumps(payload))
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def test_sigterm_drains_inflight_and_exits_cleanly(self):
        # ~0.3s of real search in flight when SIGTERM lands: the
        # response must still arrive, bit-identical, and the process
        # must exit 0 with the listener closed to new connections.
        slow = "forall x. forall y. exists z. (G(x,z) & G(z,y))"
        expected = str(wfomc(parse(slow), 4))
        proc, host, port = self._spawn("--drain-timeout", "30")
        try:
            outcome = {}

            def inflight():
                outcome["response"] = self._post(
                    host, port, {"formula": slow, "n": 4})

            t = threading.Thread(target=inflight)
            t.start()
            time.sleep(0.15)
            proc.send_signal(signal.SIGTERM)
            t.join(60)
            assert proc.wait(timeout=60) == 0
            status, body = outcome["response"]
            assert status == 200 and body["result"] == expected
            with pytest.raises(OSError):
                socket.create_connection((host, port), timeout=2).close()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
            proc.stderr.close()

class TestObservability:
    """Request ids, access-visible latency metrics, Prometheus text."""

    def test_request_id_generated_and_echoed(self, serve):
        h = serve()
        _, _, headers = h.request("GET", "/healthz")
        generated = headers.get("X-Request-Id")
        assert generated and len(generated) == 16
        _, _, headers = h.request("GET", "/healthz",
                                  headers={"X-Request-Id": "client-id-42"})
        assert headers.get("X-Request-Id") == "client-id-42"

    def test_client_request_id_is_sanitized(self, serve):
        h = serve()
        # Header-splitting characters must never be echoed back.
        _, _, headers = h.request(
            "GET", "/healthz", headers={"X-Request-Id": "a b!c"})
        assert headers.get("X-Request-Id") == "abc"

    def test_metrics_latency_and_phases_sections(self, serve):
        h = serve()
        status, body, _ = h.request(
            "POST", "/v1/wfomc", {"formula": EXISTS, "n": 3})
        assert status == 200
        _, metrics, _ = h.request("GET", "/metrics")
        assert "/v1/wfomc" in metrics["latency"]
        snap = metrics["latency"]["/v1/wfomc"]
        assert snap["count"] >= 1
        assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"] \
            <= snap["max"]
        for phase in ("parse", "queue", "compile", "evaluate",
                      "coalesce_hold", "encode"):
            assert phase in metrics["phases"]
        assert metrics["phases"]["parse"]["count"] >= 1
        assert metrics["phases"]["evaluate"]["count"] >= 1

    def test_metrics_prometheus_exposition_parses(self, serve):
        h = serve(options=SolverOptions(compile=True))
        assert h.request("POST", "/v1/wfomc",
                         {"formula": EXISTS, "n": 3})[0] == 200
        for weight in ("2", "3"):  # warm: both go through the batcher
            assert h.request("POST", "/v1/wfomc",
                             {"formula": EXISTS, "n": 3,
                              "weights": {"R": [weight, "1"]}})[0] == 200
        status, text, headers = h.request_text(
            "GET", "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        families = {}
        for line in text.strip().splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                families[name] = kind
                continue
            assert not line.startswith("#")
            name_and_labels, value = line.rsplit(" ", 1)
            float(value)  # every sample value parses as a number
            base = name_and_labels.split("{", 1)[0]
            family = base
            for suffix in ("_sum", "_count"):
                if base.endswith(suffix) and base[:-len(suffix)] in families:
                    family = base[:-len(suffix)]
            assert family in families, line
        assert families["repro_server_requests_total"] == "counter"
        assert families["repro_request_duration_seconds"] == "summary"
        assert 'repro_request_duration_seconds{endpoint="/v1/wfomc"' in text
        assert 'quantile="0.99"' in text
        # Every coalescer counter is a counter family, open groups a gauge.
        counters = h.server.coalescer.counters
        for name, value in counters.items():
            metric = "repro_coalesce_{}_total".format(name)
            assert families[metric] == "counter"
            assert "\n{} {}\n".format(metric, value) in text
        assert counters["batches"] == 2
        assert families["repro_coalesce_open_groups"] == "gauge"
        assert "\nrepro_coalesce_open_groups 0\n" in text

    def test_metrics_well_formed_under_concurrent_load(self, serve):
        h = serve(max_concurrency=4, queue_depth=64,
                  options=SolverOptions(compile=True))
        inflight = 32
        results = [None] * inflight
        polls = []

        def fire(i):
            results[i] = h.request(
                "POST", "/v1/wfomc",
                {"formula": EXISTS, "n": 3,
                 "weights": {"R": [str(Fraction(i + 1, 7)), "1"]}})

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(inflight)]
        for t in threads:
            t.start()
        # Poll /metrics while the 32 requests are in flight.
        for _ in range(10):
            _, snap, _ = h.request("GET", "/metrics")
            polls.append(snap)
            time.sleep(0.01)
        for t in threads:
            t.join(120)
        _, final, _ = h.request("GET", "/metrics")
        polls.append(final)

        expected_ok = 0
        for i, (status, body, _) in enumerate(results):
            assert status == 200
            wv = WeightedVocabulary.counting(parse(EXISTS)).with_weight(
                "R", WeightPair(Fraction(i + 1, 7), 1))
            assert body["result"] == str(wfomc(parse(EXISTS), 3, wv))
            expected_ok += 1

        monotone = ("requests", "ok", "input_errors", "internal_errors")
        for earlier, later in zip(polls, polls[1:]):
            assert earlier["ok"] is True
            for section in ("server", "latency", "phases", "admission",
                            "registry", "engine"):
                assert section in earlier
            for name in monotone:
                assert earlier["server"][name] <= later["server"][name]
        assert final["server"]["ok"] >= expected_ok
        snap = final["latency"]["/v1/wfomc"]
        assert snap["count"] >= inflight
        assert 0.0 <= snap["p50"] <= snap["p95"] <= snap["p99"]
        assert snap["p99"] <= snap["max"] <= 120.0
        queue = final["phases"]["queue"]
        assert queue["count"] >= inflight and queue["p99"] >= 0.0
