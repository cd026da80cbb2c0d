"""Spans around the program's layer entry points, patched from outside.

The traced run wraps each layer's entry point at the binding its caller
uses -- a module attribute or a class method -- so the program itself is
unchanged.  Spans ``[name, start_ns, end_ns, parent]`` stay in memory
and are written out once at exit; a layer's self time is its span's
duration minus its children's.

Module ``repro.wfomc`` is rebound to the ``wfomc`` function by
``repro/__init__``, so submodules are reached with
``importlib.import_module``.  ``repro.wfomc.bruteforce`` and
``repro.compile.trace`` each hold their own binding of ``lineage``, and
``repro.propositional.counter`` and ``repro.compile.trace`` of
``cnf_for_formula``: both are wrapped.

Which end-to-end metric each per-layer metric should move (a layer that
does no work in a workload reports 0 there):

==========================================  ================================
per-layer metrics (workload)                end-to-end metrics they move
==========================================  ================================
``logic.scott_ms``, ``wfomc.fo2.tables_ms``  ``latency_p50_ms`` and
``wfomc.fo2.recursion_ms``,                 ``ops_per_s`` on ``fo2_lifted``
``wfomc.fo2.cells``, ``fo2_degree``
(``fo2_lifted``)
``grounding.lineage_ms``,                   ``latency_p50_ms`` on
``propositional.cnf_ms``                    ``grounded_cdcl``; ``setup_s``
(``grounded_cdcl``)                         on ``compiled_sweep``
``propositional.engine_ms``, ``engine.*``   ``latency_p50_ms`` and
(``grounded_cdcl``)                         ``ops_per_s`` on ``grounded_cdcl``
``compile.trace_ms``, ``compile.ground_ms``  ``setup_s`` on ``compiled_sweep``
``compile.circuit_nodes``
(``compiled_sweep``)
``compile.evaluate_ms``                     ``latency_p50_ms`` and
(``compiled_sweep``)                        ``ops_per_s`` on
                                            ``compiled_sweep``; a small
                                            share of ``served``
``serve.*`` (``served``)                    ``latency_p50_ms`` and
                                            ``ops_per_s`` on ``served``
``other_ms``, ``calibration_ms``,           the op latency of the workload
``trace_overhead_pct`` (every workload)     (``other_ms`` is the op's time
                                            outside every wrapped layer)
==========================================  ================================
"""

from __future__ import annotations

import functools
import importlib
import json
import time

#: ``(module, attribute path, layer)``: every wrapped entry point.
ENTRY_POINTS = (
    ("repro.wfomc.fo2", "scott_normalize", "logic.scott"),
    ("repro.wfomc.fo2", "skolemize_scott", "logic.scott"),
    ("repro.wfomc.fo2", "FO2CellStructure.__init__", "wfomc.fo2.tables"),
    ("repro.wfomc.fo2", "FO2CellDecomposition._cell_tables",
     "wfomc.fo2.tables"),
    ("repro.wfomc.fo2", "FO2CellDecomposition.run", "wfomc.fo2.recursion"),
    ("repro.wfomc.bruteforce", "lineage", "grounding.lineage"),
    ("repro.compile.trace", "lineage", "grounding.lineage"),
    ("repro.propositional.counter", "cnf_for_formula", "propositional.cnf"),
    ("repro.compile.trace", "cnf_for_formula", "propositional.cnf"),
    ("repro.propositional.counter", "CountingEngine.run",
     "propositional.engine"),
    ("repro.compile.trace", "trace_cnf_clauses", "compile.trace"),
    ("repro.compile.wfomc", "CompiledWFOMC.evaluate_many",
     "compile.evaluate"),
)

#: Counts read off a layer's return value: ``_cell_tables`` returns
#: ``(cells, cell_weights, r)``.
OBSERVERS = {
    "FO2CellDecomposition._cell_tables":
        lambda result: {"wfomc.fo2.cells": len(result[0])},
}


class Tracer:
    """An in-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self.counts = []
        self._stack = []
        self._saved = []

    def open(self, name):
        """Start a span; returns its index for :meth:`close`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter_ns()

    def record(self, name, started, ended):
        """Add a finished root span timed with ``time.perf_counter``."""
        self.spans.append([name, int(started * 1e9), int(ended * 1e9), -1])

    def wrap(self, fn, layer, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                tracer.counts.append((index, observe(result)))
            return result

        return traced

    def install(self):
        """Wrap every entry point; :meth:`uninstall` restores them."""
        for module_name, path, layer in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = owner.__dict__[attr] if outer else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr,
                    self.wrap(original, layer, OBSERVERS.get(path)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times_ms(self, root):
        """``{layer: self ms}`` and ``{count: value}`` under span ``root``.

        The root's own self time is reported under its name.
        """
        spans = self.spans
        last = len(spans)
        end = spans[root][2]
        for index in range(root + 1, len(spans)):
            if spans[index][1] >= end:
                last = index
                break
        times = {}
        for index in range(root, last):
            name, start, stop, parent = spans[index]
            duration = (stop - start) / 1e6
            times[name] = times.get(name, 0.0) + duration
            if index != root:
                parent_name = spans[parent][0]
                times[parent_name] = times[parent_name] - duration
        counts = {}
        for index, observed in self.counts:
            if root <= index < last:
                for name, value in observed.items():
                    counts[name] = counts.get(name, 0) + value
        return times, counts

    def dump(self, path):
        """Write every span as ``{name, start_ns, end_ns, parent}``."""
        rows = [{"name": name, "start_ns": start, "end_ns": end,
                 "parent": parent}
                for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)
