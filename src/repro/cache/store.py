"""The on-disk persistent store: one SQLite file per cache directory.

Layout and guarantees
---------------------

* **Location**: ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``;
  every caller can override it per call with ``cache_dir=``.  One
  directory holds one ``store.sqlite`` file (plus SQLite's WAL
  side-files) shared by all namespaces.
* **Content addressing**: entries are keyed by the SHA-256 digest of
  ``(format version, engine tag, namespace, canonical key repr)``.  The
  engine tag (:data:`ENGINE_TAG`) names the canonical-key format of the
  counting engine generation that wrote the entry, so a future engine
  whose component keys change simply stops seeing the stale rows —
  stale formats self-invalidate without a migration step.
* **Concurrency**: the database runs in WAL mode with a generous busy
  timeout, so concurrent readers (parallel counting workers, a second
  sweep process) never block each other and concurrent writers
  serialize per transaction.  All values are exact and deterministic
  functions of their keys, so ``INSERT OR REPLACE`` races are benign:
  both writers store the same bytes.
* **Write-behind**: :meth:`PersistentStore.put` buffers rows in memory
  and flushes them in one transaction when the buffer fills, on
  :meth:`flush`, and at interpreter exit — a counting run never blocks
  on per-entry disk latency.
* **Corruption**: a truncated or garbage store file is detected on the
  first statement; the store deletes it and starts fresh once, and if
  that also fails it disables itself (every lookup misses, every write
  is dropped).  Counting callers therefore *always* fall back to
  recomputation — a broken cache can never produce a wrong count or an
  exception on the counting path.
* **Fault tolerance**: runtime SQLite errors are *classified* rather
  than treated as uniformly fatal.  Transient ``SQLITE_BUSY``/locked
  errors (cross-process contention past the busy timeout) are retried
  with bounded exponential backoff before the store gives up; a
  disk-full error disables the store gracefully (counting falls back
  to recomputation); corruption detected at runtime deletes and
  recreates the database once, like corruption at open.  A store
  disabled by failure (not by :meth:`~PersistentStore.close`) probes
  for recovery periodically with a doubling interval, so a transient
  outage does not cost the whole process lifetime.  The ``retries``,
  ``reenables``, and ``disk_full`` session counters report all of it.

Cumulative ``hits``/``misses``/``writes`` counters are persisted in the
store itself (table ``counters``), so ``repro cache stats`` reports
cross-process totals — the way a warm second process proves it was
served from disk.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import logging
import os
import sqlite3
import threading
import time
from fractions import Fraction

from ..obs import get_logger, slog, span
from ..resilience.faults import maybe_fire

#: Structured-log channel for store lifecycle events (disable/re-enable).
_LOG = get_logger("cache.store")

__all__ = [
    "ENGINE_TAG",
    "STORE_FILENAME",
    "PersistentStore",
    "default_cache_dir",
    "open_store",
    "close_all_stores",
    "encode_value",
    "decode_value",
    "key_digest",
]

#: Name of the SQLite file inside a cache directory.
STORE_FILENAME = "store.sqlite"

#: On-disk format version; bumping it orphans every existing row (the
#: digest embeds it) and the schema check below recreates the tables.
#: Format 2 added the ``last_used`` column that LRU eviction
#: (:meth:`PersistentStore.vacuum`) orders by.
STORE_FORMAT = 2

#: Canonical-key format tag of the engine generation writing the
#: entries.  Bump together with any change to component canonicalization
#: (:func:`repro.propositional.counter._canonical_structure`), the
#: cardinality-polynomial layout, or the FO2 table layout: old rows
#: become unreachable (self-invalidation) instead of wrong.
ENGINE_TAG = "engine-v3"

#: Write-behind buffer flush threshold (rows).
_FLUSH_THRESHOLD = 256

#: Seconds SQLite waits on a locked database before failing.
_BUSY_TIMEOUT_S = 30.0

#: Bounded exponential backoff for transient (busy/locked) SQLite
#: errors: up to ``_MAX_RETRIES`` retries starting at ``_RETRY_BASE_S``
#: seconds, doubling, capped at ``_RETRY_CAP_S``.  Module-level so tests
#: can shrink them.
_RETRY_BASE_S = 0.01
_RETRY_CAP_S = 0.1
_MAX_RETRIES = 5

#: A store disabled by failure (never one closed on purpose) probes for
#: recovery: the first probe runs ``_PROBE_INTERVAL_S`` seconds after
#: the failure, and the interval doubles up to ``_PROBE_MAX_S`` while
#: probes keep failing.
_PROBE_INTERVAL_S = 1.0
_PROBE_MAX_S = 60.0


def _classify(exc):
    """Sort a ``sqlite3.Error`` into a failure class.

    ``"transient"`` — lock contention (retry with backoff);
    ``"disk_full"`` — no space (disable gracefully, recomputation is the
    fallback); ``"corrupt"`` — a damaged database file (delete and
    recreate once, like corruption at open); ``"fatal"`` — everything
    else (disable).
    """
    message = str(exc).lower()
    if isinstance(exc, sqlite3.OperationalError):
        if "locked" in message or "busy" in message:
            return "transient"
        if "disk is full" in message or "disk full" in message:
            return "disk_full"
    if isinstance(exc, sqlite3.DatabaseError):
        if ("malformed" in message or "not a database" in message
                or "corrupt" in message):
            return "corrupt"
    return "fatal"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS kv (
    ns        TEXT NOT NULL,
    key       BLOB NOT NULL,
    value     BLOB NOT NULL,
    last_used INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ns, key)
);
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY,
    v TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS counters (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""

#: Environment knobs for automatic store maintenance: when set, every
#: clean close (including the atexit flush) vacuums the store down to
#: the configured bound, evicting least-recently-used rows first.
MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"
MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"


def default_cache_dir():
    """``$REPRO_CACHE_DIR`` when set and non-empty, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


# -- exact-value codec -------------------------------------------------------
#
# Values are nested structures of ints, bools, strings, Fractions, tuples,
# lists, and dicts (component counts, cardinality-polynomial coefficient
# tables, FO2 cell/2-table enumerations).  They are stored as tagged JSON:
# scalars pass through natively (Python's json round-trips arbitrary-
# precision ints exactly), containers and Fractions become tagged arrays,
# so decoding is unambiguous and never executes anything.


def _enc(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return ["f", value.numerator, value.denominator]
    if isinstance(value, tuple):
        return ["t"] + [_enc(v) for v in value]
    if isinstance(value, list):
        return ["l"] + [_enc(v) for v in value]
    if isinstance(value, dict):
        return ["d"] + [[_enc(k), _enc(v)] for k, v in value.items()]
    raise TypeError("cannot persist value of type {}".format(type(value).__name__))


def _dec(value):
    if isinstance(value, list):
        tag = value[0]
        if tag == "f":
            return Fraction(value[1], value[2])
        if tag == "t":
            return tuple(_dec(v) for v in value[1:])
        if tag == "l":
            return [_dec(v) for v in value[1:]]
        if tag == "d":
            return {_dec(k): _dec(v) for k, v in value[1:]}
        raise ValueError("unknown payload tag {!r}".format(tag))
    return value


def encode_value(value):
    """Serialize an exact value (ints/Fractions/containers) to bytes."""
    return json.dumps(_enc(value), separators=(",", ":")).encode("utf-8")


def decode_value(payload):
    """Inverse of :func:`encode_value`."""
    return _dec(json.loads(payload.decode("utf-8")))


def key_digest(namespace, key):
    """Content address of one entry.

    The digest covers the store format, the engine tag, the namespace,
    and the canonical ``repr`` of the key.  Cache keys are built from
    deterministic-repr values only (ints, Fractions, tuples, interned
    formula nodes), so the digest is stable across processes.
    """
    h = hashlib.sha256()
    h.update(b"repro-cache\x00")
    h.update(str(STORE_FORMAT).encode("ascii"))
    h.update(b"\x00")
    h.update(ENGINE_TAG.encode("ascii"))
    h.update(b"\x00")
    h.update(namespace.encode("utf-8"))
    h.update(b"\x00")
    h.update(repr(key).encode("utf-8"))
    return h.digest()


def _synchronized(method):
    """Run ``method`` under the store's reentrant lock (see ``_lock``)."""
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)
    wrapper.__name__ = method.__name__
    wrapper.__qualname__ = method.__qualname__
    wrapper.__doc__ = method.__doc__
    return wrapper


class PersistentStore:
    """One on-disk cache directory: namespaced key/value rows + counters.

    Never raises on the counting path: any SQLite-level failure records
    an error, disables the store, and surfaces as cache misses.
    """

    def __init__(self, directory):
        self.directory = os.path.abspath(directory)
        self.path = os.path.join(self.directory, STORE_FILENAME)
        self.pid = os.getpid()
        #: One store instance is shared by every thread of a process (the
        #: serving daemon's executor pool in particular); the write-behind
        #: buffer, the touched-row set, and the failure/probe state are
        #: all compound mutations, so a reentrant lock serializes them.
        #: SQLite work dominates any section the lock covers.
        self._lock = threading.RLock()
        self.disabled = False
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.retries = 0
        self.reenables = 0
        self.disk_full = 0
        self.recreated = False
        self._closed = False
        self._runtime_recreated = False
        self._probe_at = None
        self._probe_interval = _PROBE_INTERVAL_S
        self._conn = None
        self._pending = {}
        self._touched = set()
        self._unflushed = {"hits": 0, "misses": 0, "writes": 0}
        self._open(allow_recreate=True)

    # -- lifecycle ---------------------------------------------------------

    def _open(self, allow_recreate):
        try:
            os.makedirs(self.directory, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_S,
                                   check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            row = conn.execute(
                "SELECT v FROM meta WHERE k='format'").fetchone()
            if row is None:
                with conn:
                    conn.execute(
                        "INSERT OR REPLACE INTO meta(k, v) VALUES('format', ?)",
                        (str(STORE_FORMAT),))
            elif row[0] != str(STORE_FORMAT):
                # Older on-disk format: recreate rather than migrate (the
                # digests would not match its rows anyway, and older
                # schemas may lack columns like ``last_used``).
                with conn:
                    conn.execute("DROP TABLE IF EXISTS kv")
                    conn.execute("DELETE FROM counters")
                    conn.execute(
                        "INSERT OR REPLACE INTO meta(k, v) VALUES('format', ?)",
                        (str(STORE_FORMAT),))
                conn.executescript(_SCHEMA)
            self._conn = conn
        except (sqlite3.Error, OSError):
            self.errors += 1
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None
            if allow_recreate:
                # A corrupted or truncated store file is cheap to rebuild:
                # delete it (and SQLite's side files) and try once more.
                self.recreated = True
                for suffix in ("", "-wal", "-shm", "-journal"):
                    try:
                        os.unlink(self.path + suffix)
                    except OSError:
                        pass
                self._open(allow_recreate=False)
            else:
                self.disabled = True

    @_synchronized
    def close(self):
        """Flush the write-behind buffer and close the connection.

        When ``$REPRO_CACHE_MAX_ENTRIES`` / ``$REPRO_CACHE_MAX_BYTES``
        are set, the store is vacuumed down to those bounds first, so
        long-lived cache directories stay size-bounded without manual
        ``repro cache vacuum`` runs.
        """
        self.flush()
        if not self.disabled and self._conn is not None:
            bounds = {}
            for env, name in ((MAX_ENTRIES_ENV, "max_entries"),
                              (MAX_BYTES_ENV, "max_bytes")):
                raw = os.environ.get(env)
                if raw:
                    try:
                        bounds[name] = int(raw)
                    except ValueError:
                        pass
            if bounds:
                self.vacuum(**bounds)
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        self.disabled = True
        #: A deliberate close is final: the re-enable probe must never
        #: resurrect a store the caller shut down.
        self._closed = True

    # -- failure handling --------------------------------------------------

    def _inject_fault(self):
        """Raise an injected store fault when a FaultPlan says so."""
        if maybe_fire("store_busy"):
            raise sqlite3.OperationalError("database is locked")
        if maybe_fire("store_disk_full"):
            raise sqlite3.OperationalError("database or disk is full")
        if maybe_fire("store_corrupt"):
            raise sqlite3.DatabaseError("database disk image is malformed")

    def _run(self, operation):
        """Run one SQLite operation, retrying transient failures.

        Busy/locked errors get up to ``_MAX_RETRIES`` retries with
        bounded exponential backoff (``retries`` counts them); anything
        else — and a still-locked database after the last retry —
        propagates for :meth:`_fail` to classify.
        """
        delay = _RETRY_BASE_S
        attempt = 0
        while True:
            try:
                self._inject_fault()
                return operation()
            except sqlite3.Error as exc:
                if _classify(exc) != "transient" or attempt >= _MAX_RETRIES:
                    raise
                attempt += 1
                self.retries += 1
                time.sleep(min(delay, _RETRY_CAP_S))
                delay = min(delay * 2, _RETRY_CAP_S)

    def _fail(self, exc=None):
        """A runtime SQLite error that survived the retry loop.

        Corruption gets one in-process delete-and-recreate, exactly like
        corruption detected at open; everything else disables the store
        (graceful fallback to recomputation) and, unless the store was
        deliberately closed, arms the re-enable probe so a transient
        outage does not cost the rest of the process lifetime.
        """
        self.errors += 1
        kind = _classify(exc) if exc is not None else "fatal"
        if kind == "disk_full":
            self.disk_full += 1
        self._pending.clear()
        self._touched.clear()
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        if kind == "corrupt" and not self._runtime_recreated:
            self._runtime_recreated = True
            self.recreated = True
            for suffix in ("", "-wal", "-shm", "-journal"):
                try:
                    os.unlink(self.path + suffix)
                except OSError:
                    pass
            self._open(allow_recreate=False)
            if self._conn is not None:
                self.disabled = False
                return
        self.disabled = True
        self._probe_at = time.monotonic() + self._probe_interval
        slog(_LOG, logging.WARNING, "store_disabled", path=self.path,
             kind=kind, errors=self.errors)

    def _maybe_reenable(self):
        """Probe a failure-disabled store for recovery (doubling interval)."""
        if (not self.disabled or self._closed or self._probe_at is None
                or time.monotonic() < self._probe_at):
            return
        self._probe_interval = min(self._probe_interval * 2, _PROBE_MAX_S)
        self._probe_at = time.monotonic() + self._probe_interval
        self.disabled = False
        self._open(allow_recreate=False)
        if self._conn is None:
            self.disabled = True
        else:
            self.reenables += 1
            self._probe_at = None
            self._probe_interval = _PROBE_INTERVAL_S
            slog(_LOG, logging.WARNING, "store_reenabled", path=self.path,
                 reenables=self.reenables)

    # -- key/value ---------------------------------------------------------

    @_synchronized
    def get(self, namespace, key):
        """The decoded value stored for ``key``, or ``None``.

        A payload that fails to decode (foreign writer, partial row,
        torn write) is treated as a miss — never an exception.
        """
        self._maybe_reenable()
        if self.disabled:
            self.misses += 1
            self._unflushed["misses"] += 1
            return None
        digest = key_digest(namespace, key)
        payload = self._pending.get((namespace, digest))
        if payload is None:
            try:
                with span("store.get", cat="cache", ns=namespace):
                    row = self._run(lambda: self._conn.execute(
                        "SELECT value FROM kv WHERE ns=? AND key=?",
                        (namespace, digest)).fetchone())
            except sqlite3.Error as exc:
                self._fail(exc)
                row = None
            payload = row[0] if row is not None else None
            if payload is not None and maybe_fire("store_torn_write"):
                # A torn write must decode to garbage, never to a wrong
                # value: the trailing 0xff byte is invalid UTF-8, so the
                # decode below fails and the read becomes a miss.
                payload = payload[:len(payload) // 2] + b"\xff"
        if payload is None:
            self.misses += 1
            self._unflushed["misses"] += 1
            return None
        try:
            value = decode_value(payload)
        except (ValueError, KeyError, IndexError, TypeError,
                UnicodeDecodeError):
            self.misses += 1
            self._unflushed["misses"] += 1
            return None
        self.hits += 1
        self._unflushed["hits"] += 1
        # Remember the row for the write-behind last-used refresh: LRU
        # eviction (:meth:`vacuum`) orders by this timestamp.
        self._touched.add((namespace, digest))
        return value

    @_synchronized
    def put(self, namespace, key, value):
        """Buffer one row for the next flush (write-behind)."""
        self._maybe_reenable()
        if self.disabled:
            return
        try:
            payload = encode_value(value)
        except TypeError:
            self.errors += 1
            return
        self._pending[(namespace, key_digest(namespace, key))] = payload
        self._unflushed["writes"] += 1
        if len(self._pending) >= _FLUSH_THRESHOLD:
            self.flush()

    @_synchronized
    def flush(self):
        """Write buffered rows, hit timestamps, and counter deltas in
        one transaction."""
        if self.disabled or self._conn is None:
            return
        deltas = {k: v for k, v in self._unflushed.items() if v}
        if not self._pending and not deltas and not self._touched:
            return
        now = int(time.time())
        rows = [(ns, digest, payload, now)
                for (ns, digest), payload in self._pending.items()]
        touched = [(now, ns, digest)
                   for ns, digest in self._touched
                   if (ns, digest) not in self._pending]
        def write():
            # ``with conn`` is one transaction: a failure rolls it back
            # whole, so a retry after a transient error is idempotent.
            with self._conn:
                if rows:
                    self._conn.executemany(
                        "INSERT OR REPLACE INTO kv(ns, key, value, last_used) "
                        "VALUES (?, ?, ?, ?)", rows)
                if touched:
                    self._conn.executemany(
                        "UPDATE kv SET last_used=? WHERE ns=? AND key=?",
                        touched)
                for name, delta in deltas.items():
                    self._conn.execute(
                        "INSERT INTO counters(name, value) VALUES (?, ?) "
                        "ON CONFLICT(name) DO UPDATE SET "
                        "value = value + excluded.value", (name, delta))

        try:
            with span("store.flush", cat="cache", rows=len(rows),
                      touched=len(touched)):
                self._run(write)
        except sqlite3.Error as exc:
            self._fail(exc)
            return
        self._pending.clear()
        self._touched.clear()
        for name in self._unflushed:
            self._unflushed[name] = 0

    # -- inspection / maintenance -----------------------------------------

    @_synchronized
    def entry_counts(self):
        """``{namespace: row count}`` for the rows on disk."""
        if self.disabled or self._conn is None:
            return {}
        try:
            rows = self._conn.execute(
                "SELECT ns, COUNT(*) FROM kv GROUP BY ns ORDER BY ns"
            ).fetchall()
        except sqlite3.Error as exc:
            self._fail(exc)
            return {}
        return dict(rows)

    @_synchronized
    def cumulative_counters(self):
        """Cross-process ``hits``/``misses``/``writes`` totals (flushed)."""
        totals = {"hits": 0, "misses": 0, "writes": 0}
        if self.disabled or self._conn is None:
            return totals
        try:
            rows = self._conn.execute(
                "SELECT name, value FROM counters").fetchall()
        except sqlite3.Error as exc:
            self._fail(exc)
            return totals
        for name, value in rows:
            totals[name] = value
        return totals

    def stats(self):
        """One dict for ``repro cache stats``: path, sizes, counters."""
        counts = self.entry_counts()
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        return {
            "path": self.path,
            "size_bytes": size,
            "disabled": self.disabled,
            "recreated": self.recreated,
            "entries": sum(counts.values()),
            "namespaces": counts,
            "session": {"hits": self.hits, "misses": self.misses,
                        "pending_writes": len(self._pending),
                        "errors": self.errors, "retries": self.retries,
                        "reenables": self.reenables,
                        "disk_full": self.disk_full},
            "cumulative": self.cumulative_counters(),
        }

    @_synchronized
    def clear(self):
        """Delete every row and counter; returns the rows removed."""
        self._pending.clear()
        self._touched.clear()
        for name in self._unflushed:
            self._unflushed[name] = 0
        if self.disabled or self._conn is None:
            return 0
        try:
            with self._conn:
                removed = self._conn.execute(
                    "SELECT COUNT(*) FROM kv").fetchone()[0]
                self._conn.execute("DELETE FROM kv")
                self._conn.execute("DELETE FROM counters")
        except sqlite3.Error as exc:
            self._fail(exc)
            return 0
        return removed

    @_synchronized
    def vacuum(self, max_entries=None, max_bytes=None):
        """Size-bounded LRU eviction plus an SQLite ``VACUUM``.

        Evicts least-recently-*hit* rows (``last_used`` timestamp, oldest
        first, insertion order as the tie-break) until the store holds at
        most ``max_entries`` rows and occupies at most ``max_bytes`` on
        disk, then compacts the database file so the space is actually
        returned.  Either bound may be ``None``; with both ``None`` only
        the compaction runs.  A bounded call that evicts nothing skips
        the compaction entirely — the auto-vacuum hook in :meth:`close`
        must cost nothing when the store is already within bounds.
        Returns the number of evicted rows; never raises on the counting
        path (failures disable the store like any other SQLite error).
        """
        self.flush()
        if self.disabled or self._conn is None:
            return 0
        removed = 0
        try:
            conn = self._conn
            total = conn.execute("SELECT COUNT(*) FROM kv").fetchone()[0]
            if max_entries is not None and total > max_entries:
                excess = total - max_entries
                with conn:
                    conn.execute(
                        "DELETE FROM kv WHERE rowid IN (SELECT rowid FROM kv "
                        "ORDER BY last_used ASC, rowid ASC LIMIT ?)",
                        (excess,))
                removed += excess
                total -= excess
            compacted = False
            if max_bytes is not None:
                page_size = conn.execute("PRAGMA page_size").fetchone()[0]
                while total > 0:
                    # Page counts only shrink after a VACUUM, so each
                    # round evicts the oldest eighth, compacts, and
                    # re-measures; rounds stop as soon as the file fits.
                    pages = conn.execute("PRAGMA page_count").fetchone()[0]
                    if pages * page_size <= max_bytes:
                        break
                    batch = max(1, total // 8)
                    with conn:
                        conn.execute(
                            "DELETE FROM kv WHERE rowid IN (SELECT rowid "
                            "FROM kv ORDER BY last_used ASC, rowid ASC "
                            "LIMIT ?)", (batch,))
                    removed += batch
                    total -= batch
                    conn.execute("VACUUM")
                    compacted = True
            explicit_compaction = max_entries is None and max_bytes is None
            if (removed or explicit_compaction) and not compacted:
                conn.execute("VACUUM")
        except sqlite3.Error as exc:
            self._fail(exc)
            return removed
        return removed


# -- per-process store registry ----------------------------------------------

_STORES = {}


def open_store(cache_dir=None):
    """The process-wide store for a cache directory.

    One store instance per resolved directory, so the write-behind buffer
    and session counters are shared by every adapter over it.  Never
    raises: a directory that cannot be created or opened yields a
    disabled store whose lookups miss.
    """
    path = os.path.abspath(cache_dir or default_cache_dir())
    store = _STORES.get(path)
    if store is not None and store.pid != os.getpid():
        # Forked child (e.g. a parallel counting worker): SQLite
        # connections must never be used across fork().  Abandon the
        # inherited instance without closing it — its connection and
        # write-behind buffer still belong to the parent — and open a
        # fresh one for this process.
        store = None
    if store is None:
        store = PersistentStore(path)
        _STORES[path] = store
    return store


def close_all_stores():
    """Flush and close every open store (registered at interpreter exit).

    Stores created by another process (inherited over ``fork()``) are
    skipped: their connections and buffers belong to the parent.
    """
    pid = os.getpid()
    for store in list(_STORES.values()):
        if store.pid == pid:
            store.close()
    _STORES.clear()


atexit.register(close_all_stores)
