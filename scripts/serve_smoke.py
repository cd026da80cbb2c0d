#!/usr/bin/env python
"""End-to-end smoke test of the ``repro serve`` daemon.

Spawns the real CLI entry point as a subprocess (optionally under an
ambient ``$REPRO_FAULT_PLAN``), then drives the full request surface
over real sockets: health and readiness, exact counting and probability
answers checked against hard-coded known values, a warm weighted
request served through the coalescing batcher, repeated warm weighted
requests answered exactly on the event loop (``inline_batches``), a
weight sweep, typed 400s (a parse error and a ``NaN`` deadline), a
typed 504 from an expired deadline (verifying the 2x-deadline bound),
a ``/metrics`` read (JSON and Prometheus text exposition, with
per-endpoint latency quantiles, the abandoned-evaluation gauge and the
coalescer's counters), request-id echo, and finally a SIGTERM, with an
idle keep-alive client connected, that must drain, exit 0 and leave no
traceback on stderr.
Exits non-zero if any check failed — made for a CI job, usable by
hand::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILURES = []


def check(label, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print("[serve-smoke] {:<42} {} {}".format(label, status, detail))
    if not ok:
        FAILURES.append(label)


def request(host, port, method, path, payload=None, timeout=120,
            headers=None):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read()), dict(resp.getheaders())
    finally:
        conn.close()


def request_text(host, port, method, path, timeout=120):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(method, path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8"), dict(resp.getheaders())
    finally:
        conn.close()


def prometheus_parses(text):
    """Every line is a ``# TYPE`` comment or ``name{labels} value``."""
    families = set()
    for line in text.splitlines():
        if not line.strip():
            return False
        if line.startswith("# TYPE "):
            families.add(line.split()[2])
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.partition("{")[0]
        for suffix in ("_sum", "_count"):
            if name.endswith(suffix):
                name = name[:-len(suffix)]
        if name not in families:
            return False
        try:
            float(value)
        except ValueError:
            return False
    return True


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    plan = env.get("REPRO_FAULT_PLAN", "")
    print("[serve-smoke] fault plan: {!r}".format(plan))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--max-concurrency", "2", "--workers", "2", "--compile", "--persist",
         "--cache-dir", os.path.join(ROOT, ".serve-smoke-cache")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        text=True)
    stderr = None
    try:
        line = proc.stdout.readline()
        check("daemon starts and prints its URL",
              "listening on http://" in line, line.strip())
        if FAILURES:
            return 1
        host, port_text = line.strip().rsplit("http://", 1)[1].split(":")
        port = int(port_text)

        status, body, _ = request(host, port, "GET", "/healthz")
        check("GET /healthz", status == 200 and body.get("ok") is True)
        status, body, _ = request(host, port, "GET", "/readyz")
        check("GET /readyz", status == 200)

        status, body, _ = request(host, port, "POST", "/v1/wfomc", {
            "formula": "forall x. exists y. R(x, y)", "n": 5})
        check("POST /v1/wfomc exact count",
              status == 200 and body.get("result") == "28629151",
              body.get("result"))

        # The count above compiled the circuit, so a weighted request
        # for it is a warm one and goes through the batcher.
        _, before, _ = request(host, port, "GET", "/metrics")
        status, body, _ = request(host, port, "POST", "/v1/wfomc", {
            "formula": "forall x. exists y. R(x, y)", "n": 5,
            "weights": {"R": ["2", "1"]}})
        _, after, _ = request(host, port, "GET", "/metrics")
        check("warm weighted /v1/wfomc exact count",
              status == 200 and body.get("result") == str(242 ** 5),
              body.get("result"))
        batched = (after["coalesce"]["batched_requests"]
                   - before["coalesce"]["batched_requests"])
        evaluated = (after["phases"]["evaluate"]["count"]
                     - before["phases"]["evaluate"]["count"])
        check("warm request went through the batcher",
              batched >= 1 and evaluated >= 1,
              "batched={} evaluated={}".format(batched, evaluated))

        # Measured cheap after its first batch, the circuit's next
        # deadline-free batches run on the event loop: same answers.
        exact = True
        for i in range(8):
            w = Fraction(17 + i, 31)  # one weight width throughout
            status, body, _ = request(host, port, "POST", "/v1/wfomc", {
                "formula": "forall x. exists y. R(x, y)", "n": 5,
                "weights": {"R": [str(w), "1"]}})
            exact = exact and status == 200 and (
                body.get("result") == str(((w + 1) ** 5 - 1) ** 5))
        _, inlined, _ = request(host, port, "GET", "/metrics")
        inline = (inlined["coalesce"]["inline_batches"]
                  - after["coalesce"]["inline_batches"])
        check("repeated warm weighted requests exact", exact)
        check("cheap warm batches run on the event loop",
              inline >= 1, "inline_batches +{}".format(inline))

        status, body, _ = request(host, port, "POST", "/v1/probability", {
            "formula": "forall x. exists y. R(x, y)", "n": 3,
            "weights": {"R": ["1/2", "1"]}})
        check("POST /v1/probability exact fraction",
              status == 200 and body.get("result") == "6859/19683",
              body.get("result"))

        status, body, _ = request(host, port, "POST", "/v1/wfomc_weight_sweep", {
            "formula": "forall x. exists y. R(x, y)", "n": 3,
            "vary": "R", "values": ["1", "2"], "wbar": "1"})
        check("POST /v1/wfomc_weight_sweep",
              status == 200
              and body.get("result", {}).get("results") == ["343", "17576"])

        status, body, _ = request(host, port, "POST", "/v1/wfomc", {
            "formula": "forall x. R(x", "n": 3})
        check("parse error is a typed 400",
              status == 400
              and body.get("error", {}).get("retriable") is False)

        status, body, _ = request(host, port, "POST", "/v1/wfomc", {
            "formula": "forall x. exists y. R(x, y)", "n": 5,
            "deadline_ms": float("nan")})
        check("NaN deadline is a typed 400",
              status == 400
              and body.get("error", {}).get("type") == "ReproError",
              body.get("error", {}).get("message", ""))

        # A hard instance: with the consequent ``T(x,z)`` the sentence is
        # a tautology (take z = y) and answers at once.
        started = time.monotonic()
        status, body, _ = request(host, port, "POST", "/v1/wfomc", {
            "formula": "forall x. forall y. exists z."
                       " ((T(x,y) & T(y,z)) -> ~T(x,z))",
            "n": 5, "deadline_ms": 300})
        elapsed = time.monotonic() - started
        check("expired deadline is a typed 504",
              status == 504
              and body.get("error", {}).get("type") == "BudgetExceededError"
              and body.get("error", {}).get("retriable") is True)
        check("deadline answered within 2x + slack",
              elapsed < 2 * 0.3 + 2.0, "{:.3f}s".format(elapsed))

        status, body, headers = request(host, port, "GET", "/metrics")
        check("GET /metrics",
              status == 200 and body.get("server", {}).get("requests", 0) > 0)
        check("/metrics carries per-endpoint latency",
              body.get("latency", {}).get("/v1/wfomc", {}).get("count", 0) > 0)
        check("responses carry X-Request-Id",
              len(headers.get("X-Request-Id", "")) == 16,
              headers.get("X-Request-Id", ""))

        status, body, headers = request(
            host, port, "GET", "/healthz",
            headers={"X-Request-Id": "smoke-req-1"})
        check("client X-Request-Id is echoed back",
              headers.get("X-Request-Id") == "smoke-req-1")

        status, text, headers = request_text(
            host, port, "GET", "/metrics?format=prometheus")
        check("GET /metrics?format=prometheus",
              status == 200
              and headers.get("Content-Type", "").startswith("text/plain"))
        check("prometheus exposition parses",
              prometheus_parses(text), "{} lines".format(len(text.splitlines())))
        check("prometheus carries request-duration quantiles",
              'repro_request_duration_seconds{endpoint="/v1/wfomc",'
              'quantile="0.99"}' in text
              and "repro_server_requests_total" in text)
        check("prometheus carries abandoned_running gauge",
              "# TYPE repro_server_abandoned_running gauge" in text)
        check("prometheus carries the coalescer's counters",
              "# TYPE repro_coalesce_batches_total counter" in text
              and "repro_coalesce_inline_batches_total" in text)

        # An idle keep-alive client stays connected through the drain.
        idle = http.client.HTTPConnection(host, port, timeout=30)
        try:
            idle.request("GET", "/healthz")
            idle.getresponse().read()
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
        finally:
            idle.close()
        check("SIGTERM drains and exits 0", code == 0, "exit={}".format(code))
        stderr = proc.stderr.read()
        check("shutdown leaves no traceback on stderr",
              "Traceback" not in stderr
              and "Exception in callback" not in stderr)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        if stderr is None:
            stderr = proc.stderr.read()
        if stderr:
            sys.stderr.write(stderr)
        proc.stdout.close()
        proc.stderr.close()
    if FAILURES:
        print("[serve-smoke] FAILED: {}".format(", ".join(FAILURES)))
        return 1
    print("[serve-smoke] all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
