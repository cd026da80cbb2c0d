"""The daemon's ``/metrics`` snapshot and Prometheus exposition.

One JSON document merging every observable layer: the HTTP server's own
request/outcome counters, per-endpoint latency and per-phase timing
histograms (p50/p95/p99), admission control, the compiled-circuit
registry, the engine and solver caches, the compilation layer, open
persistent stores (retry/re-enable/disk-full counters), and any active
fault-injection plan.  Everything here is a cheap in-memory read —
``/metrics`` is safe to poll.

``/metrics?format=prometheus`` renders the serving layers as Prometheus
text exposition (format 0.0.4): the outcome counters as
``repro_server_*_total`` counters, the draining flag and the abandoned
evaluation threads still running as gauges, the latency histograms as
summaries with ``quantile`` labels, admission control as
``repro_admission_*`` gauges, and the coalescer's counters as
``repro_coalesce_*_total`` with its open groups as a gauge —
scrapeable by a stock Prometheus without an exporter sidecar.
"""

from __future__ import annotations

import os

__all__ = ["metrics_snapshot", "prometheus_text"]


def _store_metrics():
    from ..cache.store import _STORES

    rows = {"retries": 0, "reenables": 0, "disk_full": 0, "open": 0}
    for store in list(_STORES.values()):
        if store.pid != os.getpid():
            continue
        rows["open"] += 1
        for name in ("retries", "reenables", "disk_full"):
            rows[name] += getattr(store, name)
    return rows


def _latency_metrics(server):
    with server._latency_lock:
        hists = dict(server.latency)
    return {endpoint: hist.snapshot() for endpoint, hist in hists.items()}


def metrics_snapshot(server):
    """Everything observable about a running :class:`ReproServer`."""
    from ..compile import compile_stats
    from ..propositional.counter import engine_stats
    from ..resilience.faults import fault_counters
    from ..wfomc.solver import solver_cache_stats

    engine = engine_stats()
    engine.pop("cnf_cache", None)
    faults = {k: v for k, v in fault_counters().items() if v}
    return {
        "ok": True,
        "draining": server.draining,
        "abandoned_running": server.abandoned_running,
        "server": server.counters_snapshot(),
        "latency": _latency_metrics(server),
        "phases": {name: hist.snapshot()
                   for name, hist in server.phases.items()},
        "admission": server.admission.snapshot() if server.admission else {},
        "coalesce": server.coalescer.snapshot() if server.coalescer else {},
        "registry": server.registry.snapshot(),
        "engine": engine,
        "solver_caches": solver_cache_stats(),
        "compile": compile_stats(),
        "store": _store_metrics(),
        "faults_fired": faults,
    }


def _escape_label(value):
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _summary_lines(lines, metric, label, snapshots):
    """Render ``{label_value: Histogram.snapshot()}`` as one summary
    metric family with ``quantile`` labels plus ``_sum``/``_count``."""
    lines.append("# TYPE {} summary".format(metric))
    for value, snap in sorted(snapshots.items()):
        if not snap["count"]:
            continue
        tag = '{}="{}"'.format(label, _escape_label(value))
        for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            lines.append('{}{{{},quantile="{}"}} {}'.format(
                metric, tag, q, snap[key]))
        lines.append("{}_sum{{{}}} {}".format(metric, tag, snap["sum"]))
        lines.append("{}_count{{{}}} {}".format(metric, tag, snap["count"]))


def prometheus_text(server):
    """The Prometheus text exposition (format 0.0.4) of the snapshot."""
    lines = []
    for name, value in sorted(server.counters_snapshot().items()):
        metric = "repro_server_{}_total".format(name)
        lines.append("# TYPE {} counter".format(metric))
        lines.append("{} {}".format(metric, value))
    lines.append("# TYPE repro_server_draining gauge")
    lines.append("repro_server_draining {}".format(int(server.draining)))
    lines.append("# TYPE repro_server_abandoned_running gauge")
    lines.append("repro_server_abandoned_running {}".format(
        server.abandoned_running))
    _summary_lines(lines, "repro_request_duration_seconds", "endpoint",
                   _latency_metrics(server))
    _summary_lines(lines, "repro_phase_duration_seconds", "phase",
                   {name: hist.snapshot()
                    for name, hist in server.phases.items()})
    if server.admission is not None:
        for name, value in sorted(server.admission.snapshot().items()):
            metric = "repro_admission_{}".format(name)
            lines.append("# TYPE {} gauge".format(metric))
            lines.append("{} {}".format(metric, value))
    if server.coalescer is not None:
        for name, value in sorted(server.coalescer.counters.items()):
            metric = "repro_coalesce_{}_total".format(name)
            lines.append("# TYPE {} counter".format(metric))
            lines.append("{} {}".format(metric, value))
        lines.append("# TYPE repro_coalesce_open_groups gauge")
        lines.append("repro_coalesce_open_groups {}".format(
            server.coalescer.snapshot()["open_groups"]))
    return "\n".join(lines) + "\n"
