"""Small numeric and combinatorial helpers used across the library.

All weighted model counts in this library are exact: weights are
:class:`fractions.Fraction` values and counts are Python integers or
Fractions.  The helpers here keep that exactness (no floats anywhere on the
counting paths).
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from fractions import Fraction
from math import comb, factorial

from .errors import DomainSizeError

__all__ = [
    "LRUCache",
    "hash_once",
    "state_without_hash",
    "vocabulary_signature",
    "weights_signature",
    "as_fraction",
    "binomial",
    "multinomial",
    "compositions",
    "weak_compositions",
    "prod",
    "falling_factorial",
    "polynomial_interpolate",
    "check_domain_size",
    "powerset",
]


class LRUCache:
    """A small bounded mapping with least-recently-used eviction.

    Used for the solver dispatch, lineage, and cardinality-polynomial
    caches: entries can be large (whole ground lineages), so the bound is
    on entry *count* and callers pick sizes matching the entry weight.

    Thread-safe: the serving daemon (:mod:`repro.serve`) evaluates
    concurrent requests on executor threads that share every module-level
    cache, and an unguarded ``move_to_end`` racing an eviction can raise
    ``KeyError`` off the counting path.  A plain lock around the mutating
    operations costs nanoseconds against the cache-miss work it guards.
    """

    __slots__ = ("maxsize", "hits", "misses", "_data", "_lock")

    _MISSING = object()

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            value = self._data.get(key, self._MISSING)
            if value is self._MISSING:
                self.misses += 1
                return default
            self.hits += 1
            self._data.move_to_end(key)
            return value

    def put(self, key, value):
        with self._lock:
            data = self._data
            if key in data:
                data.move_to_end(key)
            data[key] = value
            while len(data) > self.maxsize:
                data.popitem(last=False)

    def __contains__(self, key):
        with self._lock:
            return key in self._data

    def __len__(self):
        # Locked: ``len(OrderedDict)`` racing a ``put`` mid-eviction can
        # observe a transiently wrong size; metrics readers (the serving
        # daemon's ``/metrics``) want a consistent count.
        with self._lock:
            return len(self._data)

    def values(self):
        """A consistent point-in-time list of the cached values."""
        with self._lock:
            return list(self._data.values())

    def peek(self, key, default=None):
        """``get`` without touching recency or the hit/miss counters."""
        with self._lock:
            value = self._data.get(key, self._MISSING)
            return default if value is self._MISSING else value

    def clear(self):
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def stats(self):
        lookups = self.hits + self.misses
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / lookups, 4) if lookups else None,
        }


def hash_once(cls):
    """Class decorator: a frozen dataclass computes its hash only once.

    The generated ``__hash__`` hashes every field, so a node of a formula
    tree re-hashes its whole subtree on every set or dict lookup.  The
    wrapper stores the first result as the instance attribute ``_hash``,
    shadowing the class's ``_hash = None``.  That is not a dataclass
    field, so ``==``, ``repr`` and ``dataclasses.fields`` are unchanged.
    Threads racing on a cold node compute and store the same value.  The
    class's ``__getstate__`` must be :func:`state_without_hash`.
    """
    structural = cls.__hash__
    cls._hash = None

    def __hash__(self):
        value = self._hash
        if value is None:
            value = structural(self)
            object.__setattr__(self, "_hash", value)
        return value

    cls.__hash__ = __hash__
    return cls


def state_without_hash(node):
    """``__getstate__`` for :func:`hash_once` classes.

    String hashes are salted per process, so a pickled or copied node
    drops its cached hash and recomputes it where it lands.
    """
    state = dict(node.__dict__)
    state.pop("_hash", None)
    return state


def vocabulary_signature(vocabulary, ordered=False):
    """A hashable ``(name, arity)`` signature of a vocabulary.

    ``ordered=False`` (default) sorts the pairs, giving an
    order-insensitive key for caches whose values do not depend on
    predicate iteration order (ground-atom universes).  Pass
    ``ordered=True`` when the cached value *is* ordered by the
    vocabulary's iteration order — e.g. cardinality-polynomial
    coefficient vectors — so differently-ordered vocabularies never
    share an entry.
    """
    signature = tuple((p.name, p.arity) for p in vocabulary)
    return signature if ordered else tuple(sorted(signature))


def weights_signature(weighted_vocabulary):
    """A hashable, order-independent key for a weighted vocabulary.

    Embeds each predicate's weight pair, so two vocabularies share a key
    exactly when they weigh the same predicates identically.
    """
    return tuple(
        sorted(
            (p.name, p.arity) + tuple(weighted_vocabulary.weight(p.name))
            for p in weighted_vocabulary.vocabulary
        )
    )


def as_fraction(value):
    """Coerce ``value`` to an exact :class:`~fractions.Fraction`.

    Integers and Fractions pass through; strings like ``"1/3"`` are parsed;
    floats are rejected because they would silently destroy exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid weights")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            "float weights are not allowed; use fractions.Fraction or a "
            "string like '1/3' to keep all counts exact"
        )
    raise TypeError("cannot interpret {!r} as an exact weight".format(value))


def binomial(n, k):
    """Binomial coefficient ``C(n, k)``, zero outside the valid range."""
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


def multinomial(counts):
    """Multinomial coefficient ``(sum counts)! / prod(count_i!)``."""
    total = sum(counts)
    result = factorial(total)
    for c in counts:
        result //= factorial(c)
    return result


def weak_compositions(n, k):
    """Yield all tuples of ``k`` non-negative ints summing to ``n``.

    The number of such tuples is ``C(n + k - 1, k - 1)``; callers should
    keep ``k`` small.  ``k == 0`` yields the empty tuple only when ``n == 0``.
    """
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in weak_compositions(n - first, k - 1):
            yield (first,) + rest


# Alias used in older call sites; a "composition" here always allows zeros.
compositions = weak_compositions


def prod(values, start=1):
    """Exact product of an iterable (Fractions and ints mix freely)."""
    result = start
    for v in values:
        result = result * v
    return result


def falling_factorial(n, k):
    """``n * (n-1) * ... * (n-k+1)``; equals 0 when ``k > n >= 0``."""
    result = 1
    for i in range(k):
        result *= n - i
    return result


def polynomial_interpolate(points):
    """Exact coefficients of the polynomial through ``points``.

    ``points`` is a sequence of ``(x, y)`` pairs with distinct x values;
    the result is a list ``[c0, c1, ...]`` of Fractions such that
    ``sum(c_i x**i) == y`` at every given point.  Uses Lagrange
    interpolation over the rationals, so the result is exact.

    This powers the equality-removal reduction (Lemma 3.5): the paper reads
    off one coefficient of a degree-``n**2`` polynomial, which requires
    evaluating the WFOMC oracle at polynomially many points.
    """
    xs = [as_fraction(x) for x, _ in points]
    ys = [as_fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x values")
    degree = len(points) - 1
    coeffs = [Fraction(0)] * (degree + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        # Build the Lagrange basis polynomial L_i as a coefficient vector.
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            # Multiply basis by (x - xj).
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k + 1] += c
                new[k] -= c * xj
            basis = new
        scale = yi / denom
        for k, c in enumerate(basis):
            coeffs[k] += c * scale
    return coeffs


def check_domain_size(n):
    """Validate that ``n`` is a non-negative integer domain size."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainSizeError("domain size must be a non-negative int, got {!r}".format(n))
    return n


def powerset(iterable):
    """Yield all subsets (as tuples) of the given iterable."""
    items = list(iterable)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)
