"""Paired machine-speed calibration and the benchmark's small statistics.

The benchmark machine's speed drifts between runs (other tenants, CPU
frequency), so one CPU-bound op's raw latency spreads far more than the
program's own variation.  Every library op is therefore paired with a
fixed stdlib-only calibration loop timed just before it, outside the
op's timer, and reported at a fixed *reference speed*::

    normalized_ms = raw_ms / calibration_ms * REFERENCE_CALIBRATION_MS

A normalized time reads "milliseconds on a machine where the
calibration loop takes ``REFERENCE_CALIBRATION_MS``".  The loop mixes
Fraction arithmetic with dict, set and list churn (what the program's
hot paths do), reuses its containers, and runs with the cyclic garbage
collector paused, so the size of the program's heap cannot change its
speed.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from fractions import Fraction

#: The calibration loop's best-of-3 time on the reference machine, in
#: ms.  A constant of the benchmark: changing it rescales every
#: normalized time, so it never changes between compared commits.
REFERENCE_CALIBRATION_MS = 6.0

#: Iterations of the calibration loop (about 7 ms on a 2-core x86-64 VM).
CALIBRATION_ROUNDS = 1250

#: Repeats per calibration; the fastest one is the machine's speed.
CALIBRATION_REPEATS = 3

#: Operands of the loop's big-rational products, about 1000 bits each:
#: the program's exact arithmetic is mostly on numbers this size, and
#: big-integer work slows down less than interpreter work when other
#: tenants load the machine.
_BIG_X = Fraction(3 ** 400, 7 ** 300)
_BIG_Y = Fraction(5 ** 350, 11 ** 250)


def _calibration_loop(rounds):
    acc = Fraction(0)
    table = {}
    seen = set()
    stack = []
    for i in range(rounds):
        if not i & 255:
            acc = Fraction(0)
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        if not i & 15:
            product = _BIG_X * _BIG_Y + Fraction(i + 1, 3)
            table[-1] = product.numerator & 1023
        key = i & 1023
        table[key] = table.get(key ^ 5, 0) + 1
        seen.add(key & 255)
        stack.append(key)
        if len(stack) == 64:
            seen.difference_update(stack)
            stack.clear()
    return acc


def calibrate(rounds=CALIBRATION_ROUNDS, repeats=CALIBRATION_REPEATS):
    """Best-of-``repeats`` wall time of the calibration loop, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(repeats):
            started = time.perf_counter()
            _calibration_loop(rounds)
            best = min(best, time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return best * 1000.0


def normalize(raw, calibration_ms, reference_ms=REFERENCE_CALIBRATION_MS):
    """``raw`` (any time unit) rescaled to the reference machine speed."""
    if calibration_ms <= 0:
        raise ValueError("calibration time must be positive")
    return raw / calibration_ms * reference_ms


def percentile(values, q):
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread(values):
    """Interquartile range over median (``statistics.quantiles``, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def loglog_slope(points):
    """Least-squares slope of ``log y`` against ``log x``.

    ``points`` is ``[(x, y), ...]`` with positive coordinates: the fitted
    degree ``d`` of ``y ~ c * x**d``.
    """
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("slope needs at least two distinct x values")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
