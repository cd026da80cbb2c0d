"""The ``repro serve`` daemon: a resilient HTTP inference service.

A single process loads and compiles circuits once (through the
single-flight :class:`~repro.serve.registry.CircuitRegistry` and the
library's own caches) and serves any number of WFOMC / probability /
sweep requests over plain HTTP/1.1 — the paper's data-independence made
operational: compilation is weight-independent, so the expensive work
is amortized across every query a deployment ever answers.

Everything is standard library: ``asyncio`` streams carry the HTTP
surface, a thread pool runs the (CPU-bound, GIL-holding but
budget-interruptible) evaluations, and the robustness layers compose
from the :mod:`repro.resilience` primitives:

* **deadline propagation** — ``deadline_ms`` becomes a
  :class:`~repro.resilience.limits.Budget` on the request's
  :class:`~repro.options.SolverOptions`, charged inside every counting
  layer and worker-pool poll loop.  The event loop backstops it: at the
  deadline it fires ``budget.cancel()`` (cooperative, thread-safe) and
  gives the evaluation until **2x the deadline** total before
  abandoning the thread and answering 504 anyway — a request never
  outlives twice its deadline, even if the engine is stuck somewhere
  that does not charge the budget.  ``/metrics`` gauges the abandoned
  evaluation threads that have not returned yet.
* **admission control** — :class:`~repro.serve.admission.
  AdmissionController` bounds running + queued work; excess load is
  shed with 429 + ``Retry-After`` before any work starts.
* **graceful degradation** — a failed compile degrades to direct
  counting (registry failure markers); a compiled evaluation that
  errors internally is retried once by direct counting, so the client
  sees the exact answer, just slower; a down store tier is already
  absorbed by the cache layer (:mod:`repro.cache`).  Internal faults
  become typed 500s, never hangs.
* **cross-request coalescing** — point queries against one warm
  compiled circuit that arrive while a batch of it runs are batched by
  :class:`~repro.serve.coalesce.RequestCoalescer` and served by a
  single vectorized ``evaluate_many`` pass (bit-identical answers,
  tightest-member budget, split-on-fault fallback to solo evaluation);
  a request that finds its circuit idle is evaluated at once.
* **where an evaluation runs** — on the executor, except a
  deadline-free coalesced batch whose circuit's measured cost predicts
  it ends within one GIL switch interval: that one runs on the event
  loop.  An executor thread holding the GIL stalls the loop that long
  anyway, so the hop would buy such a batch nothing but two
  cross-thread wake-ups.  Deadline-bearing work always goes to the
  executor, the only place it can be abandoned.
* **graceful drain** — SIGTERM stops the listener, answers 503 on
  kept-alive connections, flushes open coalescing groups, lets
  in-flight evaluations finish within ``drain_timeout_s``, then closes
  the remaining connections and waits for their handlers.

Request decoding keeps a bounded memo of parsed sentences by their
exact text, so a client that resubmits one sentence with new weights
skips the parser.

Endpoints: ``GET /healthz | /readyz | /metrics`` and ``POST
/v1/wfomc | /v1/probability | /v1/wfomc_weight_sweep |
/v1/mln_query_sweep`` (see :mod:`repro.serve.protocol` for the wire
format).
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import logging
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..errors import BudgetExceededError, ReproError, ServiceDrainingError, \
    ServiceOverloadedError, UnsupportedFormulaError
from ..obs import Histogram, carry, get_logger, new_request_id, slog, span
from ..options import SolverOptions
from ..resilience import Budget
from ..utils import LRUCache
from . import protocol
from .admission import AdmissionController
from .coalesce import CoalesceSpec, RequestCoalescer, weight_bits
from .metrics import metrics_snapshot, prometheus_text
from .registry import CircuitRegistry

__all__ = ["ReproServer", "ServeConfig"]

#: Largest accepted request body; circuits are big, requests are not.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Idle keep-alive connections are closed after this many seconds.
IDLE_TIMEOUT_S = 60.0

#: Multiple of the deadline a request may spend in total before the
#: daemon abandons the evaluation thread and answers 504 regardless.
GRACE_FACTOR = 2.0

#: Distinct formula texts whose parse one daemon keeps (LRU).
FORMULA_MEMO_SIZE = 256


@dataclasses.dataclass
class ServeConfig:
    """Tunables of one :class:`ReproServer` instance."""

    host: str = "127.0.0.1"
    port: int = 0
    max_concurrency: int = 4
    queue_depth: int = 16
    default_deadline_ms: float | None = None
    drain_timeout_s: float = 10.0
    #: Cross-request coalescing (compiled serving only): requests for
    #: one circuit identity that arrive while a batch of it runs wait
    #: for that batch to return (or for ``coalesce_max_batch`` to queue
    #: up) and are served by one vectorized ``evaluate_many`` pass.
    coalesce: bool = True
    coalesce_max_batch: int = 32
    #: Requests slower than this log a warn-level ``slow_request`` event
    #: on ``repro.serve.access`` in addition to the INFO access line.
    slow_request_ms: float = 1000.0
    options: SolverOptions = dataclasses.field(default_factory=SolverOptions)


#: The latency phases the daemon histograms (see ``/metrics``):
#: request parsing, admission-queue wait, registry compiles, executor
#: evaluation (a coalesced batch's time is recorded once per member),
#: coalescing hold, and response encoding.
_PHASES = ("parse", "queue", "compile", "evaluate", "coalesce_hold",
           "encode")


def _safe_request_id(value):
    """The client's ``X-Request-Id`` sanitized for echoing, or a fresh one.

    Only filename-safe characters survive (an id is echoed into a
    response header and the access log, so CR/LF and friends must not);
    anything unusable is replaced by a generated id.
    """
    if value:
        value = "".join(ch for ch in value[:64]
                        if ch.isalnum() or ch in "-_.")
        if value:
            return value
    return new_request_id()


class _Prepared:
    """A parsed request: the per-request closure + its coalesce spec.

    ``coalesce`` is ``None`` for endpoints the batcher cannot serve
    (sweeps are already vectorized per request; MLN sweeps are not
    keyed on a single circuit identity).
    """

    __slots__ = ("call", "coalesce")

    def __init__(self, call, coalesce=None):
        self.call = call
        self.coalesce = coalesce


class ReproServer:
    """The asyncio HTTP daemon; create, ``await start()``, ``run()``."""

    def __init__(self, config=None):
        self.config = config or ServeConfig()
        self.registry = CircuitRegistry()
        self.admission = None
        self.coalescer = None
        self.draining = False
        self.address = None
        self._server = None
        self._executor = None
        self._inflight = 0
        self._idle = None
        #: Open connections: handler task -> its stream writer.
        self._connections = {}
        #: Abandoned evaluations whose executor thread is still running.
        self.abandoned_running = 0
        #: Parsed sentences by exact text (see ``protocol.parse_formula``).
        self.formula_memo = LRUCache(FORMULA_MEMO_SIZE)
        self._counter_lock = threading.Lock()
        self.counters = {
            "requests": 0, "ok": 0, "input_errors": 0, "shed": 0,
            "draining_rejects": 0, "budget_errors": 0, "internal_errors": 0,
            "deadline_cancels": 0, "abandoned": 0, "degraded": 0,
        }
        self._routes = {
            "/v1/wfomc": self._prep_wfomc,
            "/v1/probability": self._prep_probability,
            "/v1/wfomc_weight_sweep": self._prep_weight_sweep,
            "/v1/mln_query_sweep": self._prep_mln_query_sweep,
        }
        # Per-endpoint end-to-end latency; paths outside the routing
        # table share one "other" histogram so probing garbage paths
        # cannot grow the dict without bound.
        self.latency = {}
        self._latency_lock = threading.Lock()
        self.phases = {name: Histogram() for name in _PHASES}
        self.registry.compile_hist = self.phases["compile"]
        self._access_log = get_logger("serve.access")
        self._events_log = get_logger("serve")

    def _count(self, name, delta=1):
        with self._counter_lock:
            self.counters[name] += delta

    def counters_snapshot(self):
        """A consistent copy of the outcome counters (never torn)."""
        with self._counter_lock:
            return dict(self.counters)

    def _endpoint_hist(self, path):
        """The latency histogram a request records into."""
        if path not in self._routes and path not in ("/healthz", "/readyz",
                                                     "/metrics"):
            path = "other"
        with self._latency_lock:
            hist = self.latency.get(path)
            if hist is None:
                hist = self.latency[path] = Histogram()
        return hist

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        """Bind the listener; ``self.url`` is valid afterwards."""
        cfg = self.config
        self.admission = AdmissionController(cfg.max_concurrency,
                                             cfg.queue_depth)
        self._executor = ThreadPoolExecutor(
            max_workers=self.admission.max_concurrency,
            thread_name_prefix="repro-serve")
        if cfg.coalesce:
            loop = asyncio.get_running_loop()
            self.coalescer = RequestCoalescer(
                run_in_executor=lambda fn: loop.run_in_executor(
                    self._executor, carry(fn)),
                fallback=self._run_with_deadline,
                max_batch=cfg.coalesce_max_batch,
                abandon=self._abandon,
                hold_hist=self.phases["coalesce_hold"],
                evaluate_hist=self.phases["evaluate"])
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection, cfg.host, cfg.port)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self

    @property
    def url(self):
        return "http://{}:{}".format(*self.address)

    async def run(self, install_signals=True):
        """Serve until SIGTERM/SIGINT, then drain and return."""
        stop = asyncio.Event()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        await self.shutdown()

    async def shutdown(self):
        """Stop accepting, drain in-flight work, close the connections
        and wait for their handlers, release the executor."""
        self.draining = True
        if self.coalescer is not None:
            # Parked coalescing groups flush now: a drain must not strand
            # requests waiting behind a running batch.
            self.coalescer.drain()
        if self._server is not None:
            self._server.close()
        timeout_s = self.config.drain_timeout_s
        try:
            await asyncio.wait_for(self._idle.wait(), timeout_s)
        except asyncio.TimeoutError:
            pass
        # Idle keep-alive clients would hold their handlers parked until
        # the idle timeout, and the loop's teardown would then cancel
        # them mid-await; closing the transports ends them cleanly.
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=timeout_s)
        if self._server is not None and not self._connections:
            # Since Python 3.12 this also waits for every connection.
            await self._server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    # -- the HTTP surface --------------------------------------------------

    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    request_line = await asyncio.wait_for(
                        reader.readline(), IDLE_TIMEOUT_S)
                except asyncio.TimeoutError:
                    break
                if not request_line:
                    break
                parts = request_line.decode("latin-1").split()
                if len(parts) != 3:
                    await self._respond(
                        writer, 400,
                        protocol.error_body(ReproError("bad request line")),
                        close=True)
                    break
                method, path, version = parts
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    length = -1
                if not 0 <= length <= MAX_BODY_BYTES:
                    await self._respond(
                        writer, 400,
                        protocol.error_body(ReproError("bad content length")),
                        close=True)
                    break
                body = await reader.readexactly(length) if length else b""
                request_id = _safe_request_id(headers.get("x-request-id"))
                endpoint = path.partition("?")[0]
                started = time.monotonic()
                with span("request", cat="serve", method=method,
                          path=endpoint, id=request_id):
                    status, payload, extra = await self._dispatch(
                        method, path, body)
                elapsed = time.monotonic() - started
                self._endpoint_hist(endpoint).record(elapsed)
                self._access_logs(method, endpoint, status, elapsed,
                                  request_id)
                extra = dict(extra or {})
                extra["X-Request-Id"] = request_id
                keep = (version == "HTTP/1.1" and not self.draining
                        and headers.get("connection", "").lower() != "close")
                await self._respond(writer, status, payload, extra,
                                    close=not keep)
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            del self._connections[task]

    def _access_logs(self, method, endpoint, status, elapsed, request_id):
        """One INFO access line per request; WARNING above the threshold."""
        ms = round(elapsed * 1000.0, 3)
        slog(self._access_log, logging.INFO, "request", id=request_id,
             method=method, path=endpoint, status=status, ms=ms)
        if ms >= self.config.slow_request_ms:
            slog(self._access_log, logging.WARNING, "slow_request",
                 id=request_id, method=method, path=endpoint, status=status,
                 ms=ms, threshold_ms=self.config.slow_request_ms)

    _REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 429: "Too Many Requests",
                500: "Internal Server Error", 503: "Service Unavailable",
                504: "Gateway Timeout"}

    async def _respond(self, writer, status, payload, extra=None,
                       close=False):
        # Endpoint payloads are JSON objects; a bare string is already
        # rendered text (the Prometheus exposition) and ships verbatim.
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        headers = {
            "Content-Type": content_type,
            "Content-Length": str(len(body)),
            "Connection": "close" if close else "keep-alive",
        }
        headers.update(extra or {})
        head = "HTTP/1.1 {} {}\r\n{}\r\n\r\n".format(
            status, self._REASONS.get(status, "Error"),
            "\r\n".join("{}: {}".format(k, v) for k, v in headers.items()))
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _dispatch(self, method, path, body):
        self._count("requests")
        try:
            if method == "GET":
                return self._dispatch_get(path)
            if method != "POST":
                return 405, protocol.error_body(
                    ReproError("method {} not allowed".format(method))), {}
            prep = self._routes.get(path)
            if prep is None:
                return 404, protocol.error_body(
                    ReproError("unknown endpoint {}".format(path))), {}
            if self.draining:
                raise ServiceDrainingError(
                    "server is draining; resubmit elsewhere")
            parse_started = time.monotonic()
            try:
                request = json.loads(body.decode("utf-8")) if body else {}
            except (ValueError, UnicodeDecodeError, RecursionError) as exc:
                # RecursionError: arrays/objects nested past the decoder's
                # recursion limit are bad input, not an internal fault.
                raise ReproError(
                    "request body must be JSON: {}".format(exc)) from None
            if not isinstance(request, dict):
                raise ReproError("request body must be a JSON object")
            deadline_ms = protocol.parse_deadline_ms(
                request, self.config.default_deadline_ms)
            with span("parse", cat="serve", path=path):
                prepared = prep(request)
            self.phases["parse"].record(time.monotonic() - parse_started)
            result = await self._admit_and_run(prepared, deadline_ms)
            self._count("ok")
            encode_started = time.monotonic()
            with span("encode", cat="serve"):
                encoded = protocol.encode_result(result)
            self.phases["encode"].record(time.monotonic() - encode_started)
            return 200, {"ok": True, "result": encoded}, {}
        except Exception as exc:  # noqa: BLE001 — mapped to typed payloads
            return self._error_response(exc)

    def _dispatch_get(self, path):
        path, _, query = path.partition("?")
        if path == "/healthz":
            return 200, {"ok": True, "draining": self.draining}, {}
        if path == "/readyz":
            if self.draining:
                return 503, protocol.error_body(
                    ServiceDrainingError("draining")), {}
            return 200, {"ok": True}, {}
        if path == "/metrics":
            if "format=prometheus" in query.split("&"):
                return 200, prometheus_text(self), {}
            return 200, metrics_snapshot(self), {}
        return 404, protocol.error_body(
            ReproError("unknown endpoint {}".format(path))), {}

    def _error_response(self, exc):
        status = protocol.error_status(exc)
        extra = {}
        if isinstance(exc, ServiceOverloadedError):
            self._count("shed")
            extra["Retry-After"] = str(exc.retry_after)
        elif isinstance(exc, ServiceDrainingError):
            self._count("draining_rejects")
        elif isinstance(exc, BudgetExceededError):
            self._count("budget_errors")
        elif isinstance(exc, ReproError):
            self._count("input_errors")
        else:
            self._count("internal_errors")
        return status, protocol.error_body(exc), extra

    # -- evaluation --------------------------------------------------------

    async def _admit_and_run(self, prepared, deadline_ms):
        queued = time.monotonic()
        async with self.admission.admit():
            self.phases["queue"].record(time.monotonic() - queued)
            self._inflight += 1
            self._idle.clear()
            try:
                batched = self._try_coalesce(prepared, deadline_ms)
                if batched is not None:
                    return await batched
                return await self._run_with_deadline(prepared.call,
                                                     deadline_ms)
            finally:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.set()

    def _try_coalesce(self, prepared, deadline_ms):
        """The request's batch future, or ``None`` to serve it solo.

        Only point queries against a *warm* compiled circuit coalesce.
        Cold instances bypass so the batcher never holds a group on a
        compile (the first request compiles single-flight as before and
        the next ones coalesce); instances memoized as failing compile
        keep degrading to direct counting unchanged.
        """
        spec = prepared.coalesce
        options = self.config.options
        if (self.coalescer is None or spec is None or self.draining
                or not options.compile):
            return None
        key = self.registry.key(spec.formula, spec.n, spec.wv.vocabulary,
                                options)
        compiled = self.registry.peek(key)
        if compiled is None:
            return None
        return self.coalescer.submit(key, compiled, spec, prepared.call,
                                     deadline_ms)

    async def _run_with_deadline(self, call, deadline_ms):
        loop = asyncio.get_running_loop()
        options = self.config.options
        budget = None
        if deadline_ms is not None:
            budget = Budget(timeout=deadline_ms / 1000.0)
            options = options.replace(budget=budget)
        future = loop.run_in_executor(
            self._executor,
            carry(functools.partial(self._evaluate, call, options)))
        if deadline_ms is None:
            return await future
        deadline_s = deadline_ms / 1000.0
        try:
            return await asyncio.wait_for(asyncio.shield(future), deadline_s)
        except asyncio.TimeoutError:
            pass
        # Deadline reached: cancel cooperatively, grant the budget's
        # checkpoints until 2x the deadline, then abandon the thread.
        self._count("deadline_cancels")
        budget.cancel()
        grace_s = deadline_s * (GRACE_FACTOR - 1.0)
        try:
            return await asyncio.wait_for(asyncio.shield(future), grace_s)
        except asyncio.TimeoutError:
            self._count("abandoned")
            self._abandon(future)
            raise BudgetExceededError(
                "timeout", elapsed=deadline_s * GRACE_FACTOR) from None

    def _abandon(self, future):
        """Stop waiting for an evaluation whose thread runs on.

        ``abandoned_running`` counts the thread until it returns; its
        outcome is then retrieved and dropped.
        """
        self.abandoned_running += 1

        def returned(done):
            self.abandoned_running -= 1
            if not done.cancelled():
                done.exception()

        future.add_done_callback(returned)

    def _evaluate(self, call, options):
        """Run one request on an executor thread, degrading as needed."""
        started = time.monotonic()
        last = None
        try:
            for attempt in self._degradation_ladder(options):
                try:
                    with span("evaluate", cat="serve",
                              compiled=bool(attempt.compile)):
                        return call(attempt)
                except ReproError:
                    # Typed: input and budget errors are deterministic; a
                    # slower route cannot fix them.
                    raise
                except Exception as exc:  # noqa: BLE001 — degrade, then 500
                    last = exc
                    self._count("degraded")
                    slog(self._events_log, logging.WARNING,
                         "evaluation_degraded",
                         compiled=bool(attempt.compile),
                         exc_type=type(exc).__name__)
            raise last
        finally:
            self.phases["evaluate"].record(time.monotonic() - started)

    @staticmethod
    def _degradation_ladder(options):
        if options.compile:
            return [options, options.replace(compile=None)]
        return [options]

    # -- endpoints ---------------------------------------------------------

    def _prep_wfomc(self, body):
        from ..wfomc import wfomc

        formula, vocabulary = protocol.parse_formula(body, self.formula_memo)
        n = protocol.parse_domain_size(body)
        wv = protocol.parse_weights(vocabulary, body)

        def call(opts):
            opts = self.registry.prepare(formula, n, wv.vocabulary, opts)
            return wfomc(formula, n, wv, options=opts)

        return _Prepared(call, CoalesceSpec(formula, n, wv,
                                            lambda count: count,
                                            weight_bits(wv)))

    def _prep_probability(self, body):
        from ..wfomc import probability

        formula, vocabulary = protocol.parse_formula(body, self.formula_memo)
        n = protocol.parse_domain_size(body)
        wv = protocol.parse_weights(vocabulary, body)

        def call(opts):
            opts = self.registry.prepare(formula, n, wv.vocabulary, opts)
            return probability(formula, n, wv, options=opts)

        def finish(count):
            denominator = wv.total_world_weight(n)
            if denominator == 0:
                raise UnsupportedFormulaError(
                    "total world weight is zero; the weights have no "
                    "probabilistic reading")
            return count / denominator

        return _Prepared(call, CoalesceSpec(formula, n, wv, finish,
                                            weight_bits(wv)))

    def _prep_weight_sweep(self, body):
        from ..wfomc.solver import wfomc_weight_sweep

        formula, vocabulary = protocol.parse_formula(body, self.formula_memo)
        n = protocol.parse_domain_size(body)
        values, vocabularies = protocol.parse_sweep(vocabulary, body)

        def call(opts):
            opts = self.registry.prepare(
                formula, n, vocabularies[0].vocabulary, opts)
            results = wfomc_weight_sweep(formula, n, vocabularies,
                                         options=opts)
            return {"values": values, "results": results}

        return _Prepared(call)

    def _prep_mln_query_sweep(self, body):
        from ..mln import mln_query_sweep

        query, _ = protocol.parse_formula(body, self.formula_memo, "query")
        n = protocol.parse_domain_size(body)
        mlns = protocol.parse_mlns(body)

        def call(opts):
            return mln_query_sweep(mlns, query, n, options=opts)

        return _Prepared(call)
