"""The ``served`` workload: ``repro serve --compile`` driven over HTTP.

The daemon runs in its own process with default flags apart from
``--compile``.  One client process holds two keep-alive connections and
runs a closed loop on each: ``POST /v1/wfomc`` for
``forall x. exists y. R(x, y)`` at n = 5 with weights ``[w, "1"]``,
where ``w`` was never sent before.  Both connections hit one compiled
circuit, so the daemon's coalescer batches them.  Every answer is
checked against ``((w + 1)**5 - 1)**5`` once the window has closed.

Request times are raw wall time: most of a request is the daemon's fixed
2 ms coalescing timer, which does not scale with machine speed.  Set-up
runs from the daemon's spawn to its first answered request, the one that
compiles the circuit; it is CPU work, so each set-up is normalized by a
calibration taken just before the spawn.  The traced run adds the deltas of the daemon's
``/metrics`` phases and its CPU time (``/proc/<pid>/stat``) over the
window.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import calibrate
import checks
import tracing

FORMULA = "forall x. exists y. R(x, y)"
N = 5
CONNECTIONS = 2
#: Daemons spawned per run for ``setup_s``; the last one serves the window.
SETUP_SPAWNS = 5
#: Requests before the window, so it starts with the coalescer running.
WARMUP_S = 0.5
#: Daemon phases (``/metrics``) attributed to a request.
PHASES = ("parse", "queue", "coalesce_hold", "encode", "evaluate")
#: Answers per block of the throughput median (``ops_per_s``).
RATE_BLOCK = 100
#: Statuses counted as rejected: shed (429) and draining (503).
REJECTED = (429, 503)

_LISTENING = re.compile(rb"listening on http://([0-9.]+):([0-9]+)")
_START_TIMEOUT_S = 30.0
_STOP_TIMEOUT_S = 10.0


class Weights:
    """Rational weights ``w`` that never repeat within a run."""

    def __init__(self, seed):
        self._next = random.Random(seed).randrange(10_000, 20_000)

    def take(self):
        self._next += 1
        return Fraction(self._next, 1009)


class Daemon:
    """One ``repro serve --compile`` process; output goes to files."""

    def __init__(self, root, env, scratch, tag):
        self.root = root
        self.env = env
        self.out_path = os.path.join(scratch, "daemon-{}.out".format(tag))
        self.err_path = os.path.join(scratch, "daemon-{}.err".format(tag))
        self.proc = None
        self.address = None

    def start(self):
        with open(self.out_path, "wb") as out, \
                open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--compile"],
                cwd=self.root, env=self.env, stdout=out, stderr=err,
                stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + _START_TIMEOUT_S
        while True:
            with open(self.out_path, "rb") as out:
                match = _LISTENING.search(out.read())
            if match:
                self.address = (match.group(1).decode(), int(match.group(2)))
                return
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited with {}; see {}".format(
                    self.proc.returncode, self.err_path))
            if time.monotonic() > deadline:
                raise TimeoutError("daemon did not start listening")
            time.sleep(0.001)

    def stop(self):
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=_STOP_TIMEOUT_S)

    def peak_rss_mb(self):
        with open("/proc/{}/status".format(self.proc.pid)) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def cpu_s(self):
        with open("/proc/{}/stat".format(self.proc.pid)) as stat:
            fields = stat.read().rpartition(")")[2].split()
        # utime and stime are fields 14 and 15 of proc(5).
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")


class Connection:
    """A minimal HTTP/1.1 keep-alive client connection."""

    def __init__(self, reader, writer, host):
        self.reader = reader
        self.writer = writer
        self.host = host

    @classmethod
    async def open(cls, address):
        reader, writer = await asyncio.open_connection(*address)
        return cls(reader, writer, address[0])

    async def request(self, method, path, body=b""):
        head = ("{} {} HTTP/1.1\r\nHost: {}\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: {}\r\n\r\n").format(
                    method, path, self.host, len(body))
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


def _body(w):
    return json.dumps({"formula": FORMULA, "n": N,
                       "weights": {"R": [str(w), "1"]}}).encode("utf-8")


def _answer_ok(status, payload, w):
    if status != 200:
        return False
    try:
        result = Fraction(json.loads(payload)["result"])
    except (ValueError, KeyError, TypeError):
        return False
    return result == checks.forall_exists_wfomc(N, w)


async def _first_answer(daemon, weights):
    conn = await Connection.open(daemon.address)
    try:
        w = weights.take()
        status, payload = await conn.request("POST", "/v1/wfomc", _body(w))
    finally:
        await conn.close()
    return _answer_ok(status, payload, w)


async def _metrics(conn):
    status, payload = await conn.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError("/metrics answered {}".format(status))
    return json.loads(payload)


async def _window(daemon, weights, seconds, tracer):
    conns = [await Connection.open(daemon.address)
             for _ in range(CONNECTIONS)]
    samples = []

    async def loop(conn, stop_at, keep):
        sent = 0
        while time.perf_counter() < stop_at:
            w = weights.take()
            traced = keep and tracer is not None and sent % 2 == 1
            sent += 1
            started = time.perf_counter()
            try:
                status, payload = await conn.request(
                    "POST", "/v1/wfomc", _body(w))
            except (OSError, ValueError, IndexError,
                    asyncio.IncompleteReadError) as exc:
                status, payload = None, repr(exc).encode()
            ended = time.perf_counter()
            if traced:
                tracer.record("request", started, ended)
            if keep:
                samples.append((started, ended, status, w, payload, traced))
            if status is None:
                return

    try:
        warm_until = time.perf_counter() + WARMUP_S
        await asyncio.gather(*(loop(c, warm_until, False) for c in conns))
        before = await _metrics(conns[0]) if tracer else None
        cpu_before = daemon.cpu_s()
        started = time.perf_counter()
        await asyncio.gather(*(loop(c, started + seconds, True)
                               for c in conns))
        elapsed = time.perf_counter() - started
        cpu = daemon.cpu_s() - cpu_before
        after = await _metrics(conns[0]) if tracer else None
    finally:
        for conn in conns:
            await conn.close()
    return samples, elapsed, cpu, before, after


def _phase_layers(before, after, requests, mean_latency_ms):
    layers = {}
    attributed = 0.0
    for phase in PHASES:
        old, new = before["phases"][phase], after["phases"][phase]
        count = new["count"] - old["count"]
        total_ms = (new["sum"] - old["sum"]) * 1000.0
        layers["serve.{}_ms".format(phase)] = total_ms / count if count else 0.0
        attributed += total_ms / requests
    batches = (after["coalesce"]["batches"]
               - before["coalesce"]["batches"])
    batched = (after["coalesce"]["batched_requests"]
               - before["coalesce"]["batched_requests"])
    layers["serve.batch_size"] = batched / batches if batches else 0.0
    layers["other_ms"] = mean_latency_ms - attributed
    return layers


def _median_rate(samples, ok, block=RATE_BLOCK):
    """Median over blocks of ``block`` correct answers of their rate.

    A median of block rates, like the latency median, is not moved by a
    few seconds in which other tenants of the machine slow the daemon;
    the window's plain average is kept as a diagnostic.
    """
    ends = sorted(sample[1] for sample, good in zip(samples, ok) if good)
    rates = [block / (ends[i + block] - ends[i])
             for i in range(0, len(ends) - block, block)]
    return statistics.median(rates) if rates else 0.0


def run(root, env_for, scratch, seed, seconds, trace, spans_path=None,
        spawns=SETUP_SPAWNS):
    """Set up ``spawns`` daemons in turn and serve the window on the last.

    ``env_for()`` gives each daemon its environment.  With ``trace``,
    every other request of a connection records a client-side span, so
    the run measures the spans' overhead, and ``spans_path`` receives
    them.
    """
    tracer = tracing.Tracer() if trace else None
    weights = Weights(seed)
    calibrations = []
    setups = []
    setup_ok = True
    daemon = None
    try:
        for spawn in range(spawns):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(root, env_for(), scratch, spawn)
            calibrations.append(calibrate.calibrate())
            started = time.perf_counter()
            daemon.start()
            setup_ok &= asyncio.run(_first_answer(daemon, weights))
            setups.append(time.perf_counter() - started)
        samples, elapsed, cpu_s, before, after = asyncio.run(
            _window(daemon, weights, seconds, tracer))
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()
    calibrations.append(calibrate.calibrate())

    ok = [_answer_ok(status, payload, w)
          for _, _, status, w, payload, _ in samples]
    good = sum(ok)
    failed = len(samples) - good
    latencies = [(end - start) * 1000.0 for start, end, *_ in samples]
    plain = [(end - start) * 1000.0
             for start, end, _, _, _, traced in samples if not traced]
    summary = {
        "ops_per_s": _median_rate(samples, ok),
        "window_ops_per_s": good / elapsed,
        "attempted": len(samples) + spawns,
        "failed": failed + (0 if setup_ok else 1),
        "correct": failed == 0 and setup_ok and bool(samples),
        # Set-up is imports and a compile, CPU work that scales with the
        # machine's speed: each is normalized like a library op.
        "setup_s": statistics.median(
            calibrate.normalize(raw, cal)
            for raw, cal in zip(setups, calibrations)),
        "setup_raw_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(plain),
        "latency_p90_ms": calibrate.percentile(plain, 0.9),
        "latency_p99_ms": calibrate.percentile(plain, 0.99),
        "samples": len(plain),
        "peak_rss_mb": peak_rss_mb,
        "calibration_ms": statistics.median(calibrations),
    }
    if tracer is not None:
        layers = _phase_layers(before, after, len(samples),
                               statistics.fmean(latencies))
        layers["serve.rejected"] = sum(
            1 for _, _, status, _, _, _ in samples if status in REJECTED)
        layers["serve.cpu_ms"] = cpu_s * 1000.0 / len(samples)
        traced_p50 = statistics.median(
            (end - start) * 1000.0
            for start, end, _, _, _, traced in samples if traced)
        layers["trace_overhead_pct"] = (
            traced_p50 / summary["latency_p50_ms"] - 1.0) * 100.0
        summary["layers"] = layers
        if spans_path:
            tracer.dump(spans_path)
    return summary
