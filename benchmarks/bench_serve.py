"""Serving-layer benchmarks: request round-trips through the daemon.

pytest-benchmark smoke tests that keep the :mod:`repro.serve` hot path
exercised in CI: a live in-process :class:`~repro.serve.ReproServer`
(real sockets, real HTTP) answering counting requests.  The measured
quantity is the full request round-trip — protocol parse, admission,
registry lookup, evaluation, JSON encode — on a warm registry, i.e. the
steady-state per-request overhead the daemon adds over a direct library
call.  Evaluation runs on the daemon's executor, except a coalesced
batch measured cheap enough to finish within one GIL switch interval,
which runs on the event loop (:mod:`repro.serve.coalesce`).  Correctness is asserted on every
iteration: served answers must be bit-identical to the library's.

:func:`measure_serve_coalescing` is the cross-request-coalescing
measurement behind the ``--serve-floor`` CI gate
(``check_regression.py``): a 32-concurrent same-circuit distinct-weight
sweep workload served by a coalescing and a non-coalescing daemon, with
bit-identity asserted between the two modes.  ``python
benchmarks/bench_serve.py --emit`` writes ``BENCH_serve.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import sys
import threading
import time
from fractions import Fraction

import pytest

if __name__ == "__main__":  # `python benchmarks/bench_serve.py`
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from repro import SolverOptions, parse, wfomc
from repro.serve import ReproServer, ServeConfig

FORMULA = "forall x. exists y. R(x, y)"


class _LiveServer:
    def __init__(self, config):
        self.config = config
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()), daemon=True)
        self._thread.start()
        assert self._ready.wait(15)

    async def _amain(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = ReproServer(self.config)
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.shutdown()

    def post(self, path, payload):
        conn = http.client.HTTPConnection(*self.server.address, timeout=60)
        try:
            conn.request("POST", path, body=json.dumps(payload))
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def close(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


@pytest.fixture(scope="module")
def live_server():
    server = _LiveServer(ServeConfig(options=SolverOptions(compile=True)))
    yield server
    server.close()


def test_bench_served_wfomc_round_trip(benchmark, live_server):
    """Warm-registry request round-trip, answer checked every call."""
    expected = str(wfomc(parse(FORMULA), 5))
    payload = {"formula": FORMULA, "n": 5}
    live_server.post("/v1/wfomc", payload)  # prime registry + caches

    def round_trip():
        status, body = live_server.post("/v1/wfomc", payload)
        assert status == 200 and body["result"] == expected

    benchmark(round_trip)


def test_bench_served_weight_sweep_round_trip(benchmark, live_server):
    """A compiled k=8 sweep served per request through the registry."""
    payload = {"formula": FORMULA, "n": 4, "vary": "R",
               "values": [str(k) for k in range(1, 9)], "wbar": "1"}
    live_server.post("/v1/wfomc_weight_sweep", payload)

    def round_trip():
        status, body = live_server.post("/v1/wfomc_weight_sweep", payload)
        assert status == 200 and len(body["result"]["results"]) == 8

    benchmark(round_trip)


def _run_sweep_mode(coalesce, payload_rounds, n):
    """Serve every round of payloads at full concurrency; return
    ``(elapsed_s, answers, coalesce_snapshot)``."""
    from repro.wfomc.solver import clear_solver_caches

    clear_solver_caches()
    # A batch member holds its admission slot while parked behind the
    # running batch, so max_concurrency bounds the achievable batch size;
    # admit the full client herd in both modes (the uncoalesced mode is
    # GIL-bound either way, so extra executor width does not help it).
    concurrency = len(payload_rounds[0])
    server = _LiveServer(ServeConfig(
        options=SolverOptions(compile=True),
        max_concurrency=concurrency, queue_depth=2 * concurrency,
        coalesce=coalesce, coalesce_max_batch=concurrency))
    try:
        # Warm the circuit so neither mode pays the one-off compile.
        status, _ = server.post("/v1/wfomc", {"formula": FORMULA, "n": n})
        assert status == 200
        answers = []
        started = time.perf_counter()
        for payloads in payload_rounds:
            results = [None] * len(payloads)
            # Spawning the client herd takes milliseconds; a barrier
            # releases every post at once so the measured arrival
            # pattern is genuine concurrency, not thread-start stagger.
            barrier = threading.Barrier(len(payloads))

            def worker(idx, payload):
                barrier.wait(60)
                status, body = server.post("/v1/wfomc", payload)
                assert status == 200, body
                results[idx] = body["result"]

            threads = [threading.Thread(target=worker, args=(i, p))
                       for i, p in enumerate(payloads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(300)
            assert all(r is not None for r in results)
            answers.append(results)
        elapsed = time.perf_counter() - started
        snap = (server.server.coalescer.snapshot()
                if server.server.coalescer else {})
        return elapsed, answers, snap
    finally:
        server.close()


def measure_serve_coalescing(concurrency=32, rounds=2, n=11):
    """Coalesced vs uncoalesced serving of a same-circuit sweep workload.

    ``concurrency`` clients each post one ``/v1/wfomc`` request per
    round, all against one circuit identity but with pairwise-distinct
    weight vectors (so the per-(formula, n, weights) result cache can
    never answer for the evaluation path).  Serve it twice — once with
    coalescing disabled, once enabled — and return the wall-clock
    speedup with bit-identity asserted between the two modes.
    """
    payload_rounds = [
        [{"formula": FORMULA, "n": n,
          "weights": {"R": [str(Fraction(r * concurrency + i + 1, 7)),
                            "1"]}}
         for i in range(concurrency)]
        for r in range(rounds)]
    uncoalesced_s, plain_answers, _ = _run_sweep_mode(
        False, payload_rounds, n)
    coalesced_s, batched_answers, snap = _run_sweep_mode(
        True, payload_rounds, n)
    return {
        "workload": "{} n={} x{} concurrent x{} rounds".format(
            FORMULA, n, concurrency, rounds),
        "concurrency": concurrency,
        "rounds": rounds,
        "uncoalesced_s": uncoalesced_s,
        "coalesced_s": coalesced_s,
        "speedup": uncoalesced_s / coalesced_s,
        "bit_identical": batched_answers == plain_answers,
        "batches": snap.get("batches", 0),
        "batched_requests": snap.get("batched_requests", 0),
        "splits": snap.get("splits", 0),
        "avg_batch_size": snap.get("avg_batch_size"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--emit", action="store_true",
        help="write BENCH_serve.json next to the repo root")
    args = parser.parse_args()
    result = measure_serve_coalescing()
    print("serve coalescing: uncoalesced {:.3f}s  coalesced {:.3f}s  "
          "speedup {:.2f}x  bit_identical {}  batches {}  "
          "avg_batch_size {}".format(
              result["uncoalesced_s"], result["coalesced_s"],
              result["speedup"], result["bit_identical"],
              result["batches"], result["avg_batch_size"]))
    if args.emit:
        out = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "BENCH_serve.json")
        with open(out, "w") as fh:
            json.dump({"serve_coalescing": result}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print("wrote {}".format(os.path.abspath(out)))


if __name__ == "__main__":
    main()
