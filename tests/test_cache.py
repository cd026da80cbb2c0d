"""Tests for the persistent on-disk cache subsystem (``repro.cache``).

Unit coverage of the store (codec, versioned content addressing,
write-behind, corruption recovery, disabled-store fallback) plus the
integration properties the subsystem exists for: a *second process*
running the same sweep is served from disk with bit-identical counts
(asserted through ``repro cache stats``), and a corrupted or unwritable
store degrades to plain recomputation instead of failing the count.
"""

import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.cache import (
    PersistentStore,
    StoreBackedComponentCache,
    decode_value,
    default_cache_dir,
    encode_value,
    key_digest,
    open_store,
)
from repro.cache import store as store_module
from repro.propositional.counter import EngineStats, wmc_cnf
from repro.propositional.cnf import CNF
from repro.weights import WeightPair

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Driver executed in a *separate process*: one weight sweep with
#: ``persist=True`` over the given cache directory, counts printed to
#: stdout.  Two runs of it must produce identical bytes, the second one
#: served from the first one's disk entries.
_SWEEP_DRIVER = """
import sys
from fractions import Fraction
from repro.logic.parser import parse
from repro.logic.syntax import predicates_of
from repro.logic.vocabulary import WeightedVocabulary
from repro.wfomc.solver import wfomc_weight_sweep

formula = parse("forall x, y. (R(x) | S(x, y) | T(y))")
arities = predicates_of(formula)
vocabularies = [
    WeightedVocabulary.from_weights(
        {name: (Fraction(k, 3), 1) for name in arities}, arities)
    for k in range(1, 5)
]
results = wfomc_weight_sweep(formula, 2, vocabularies, method="lineage",
                             persist=True, cache_dir=sys.argv[1])
print(";".join(str(r) for r in results))
"""


def _child_env():
    """This process's environment with the checkout's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_driver(cache_dir, *extra_args):
    result = subprocess.run(
        [sys.executable, "-c", _SWEEP_DRIVER, str(cache_dir), *extra_args],
        capture_output=True, text=True, env=_child_env(), cwd=REPO_ROOT)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def _cache_cli(cache_dir, command):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "cache", command,
         "--cache-dir", str(cache_dir)],
        capture_output=True, text=True, env=_child_env(), cwd=REPO_ROOT)
    return result


def _stats_number(output, name):
    match = re.search(r"^\s*{}\s+(\d+)".format(name), output, re.MULTILINE)
    assert match, "no {!r} line in:\n{}".format(name, output)
    return int(match.group(1))


class TestCodec:
    @pytest.mark.parametrize("value", [
        0,
        -17,
        12345678901234567890123456789,
        Fraction(-3, 7),
        True,
        "label",
        (1, -2, (3, Fraction(1, 2))),
        [True, False, (1,)],
        {(1, 2): Fraction(5, 3), "k": [1, 2]},
        ((), [], {}),
    ])
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_int_values_stay_ints(self):
        # The engine keeps integer-valued counts as machine ints; the
        # codec must not promote them to Fractions.
        assert isinstance(decode_value(encode_value(42)), int)

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            encode_value(0.5)


class TestStore:
    def test_roundtrip_and_cross_instance_visibility(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        key = ((1, -2), ((1, 1), (Fraction(1, 2), 1)))
        store.put("components", key, Fraction(7, 3))
        # Pending (write-behind) entries are visible before the flush.
        assert store.get("components", key) == Fraction(7, 3)
        store.flush()
        second = PersistentStore(str(tmp_path))
        assert second.get("components", key) == Fraction(7, 3)
        assert second.get("components", "missing") is None
        second.close()
        store.close()

    def test_version_tag_invalidates_stale_entries(self, tmp_path, monkeypatch):
        store = PersistentStore(str(tmp_path))
        store.put("components", "key", 1)
        store.flush()
        assert store.get("components", "key") == 1
        # A new engine generation changes the tag: the old row becomes
        # unreachable (self-invalidation), not wrong.
        monkeypatch.setattr(store_module, "ENGINE_TAG", "engine-v99")
        assert store.get("components", "key") is None
        store.close()

    def test_digest_separates_namespaces_and_keys(self):
        assert key_digest("components", "k") != key_digest("polynomials", "k")
        assert key_digest("components", "k") != key_digest("components", "l")
        assert key_digest("components", "k") == key_digest("components", "k")

    def test_corrupted_file_is_recreated(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.put("components", "key", 123)
        store.flush()
        store.close()
        with open(tmp_path / "store.sqlite", "wb") as fh:
            fh.write(b"this is not a sqlite database" * 64)
        for suffix in ("-wal", "-shm"):
            path = str(tmp_path / "store.sqlite") + suffix
            if os.path.exists(path):
                os.unlink(path)
        reopened = PersistentStore(str(tmp_path))
        assert reopened.recreated
        assert not reopened.disabled
        assert reopened.get("components", "key") is None  # data is gone...
        reopened.put("components", "key", 456)  # ...but the store works
        reopened.flush()
        assert reopened.get("components", "key") == 456
        reopened.close()

    def test_unopenable_location_disables_gracefully(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        store = PersistentStore(str(blocker / "sub"))
        assert store.disabled
        store.put("components", "key", 1)  # dropped, no exception
        assert store.get("components", "key") is None
        assert store.stats()["disabled"]
        assert store.clear() == 0

    def test_clear_removes_rows_and_counters(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        store.put("components", "a", 1)
        store.put("polynomials", "b", 2)
        store.flush()
        assert store.clear() == 2
        assert store.get("components", "a") is None
        assert store.cumulative_counters()["writes"] == 0
        store.close()

    def test_forked_child_gets_a_fresh_connection(self, tmp_path):
        # A SQLite connection must never cross fork(): a registry entry
        # created by another process (simulated by faking its pid) is
        # abandoned, not reused or closed.
        parent = open_store(str(tmp_path))
        parent.put("components", "key", 5)
        parent.flush()
        parent.pid -= 1  # pretend this instance belongs to the parent
        child = open_store(str(tmp_path))
        assert child is not parent
        assert child.get("components", "key") == 5  # same file, fresh conn
        child.close()

    def test_default_cache_dir_honors_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/custom/location")
        assert default_cache_dir() == "/custom/location"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir().endswith(os.path.join(".cache", "repro"))


class TestStoreBackedComponentCache:
    def test_reads_through_and_populates_memory(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        cache = StoreBackedComponentCache(store, mem={})
        cache["key"] = 99
        fresh = StoreBackedComponentCache(store, mem={})
        assert len(fresh) == 0
        assert fresh.get("key") == 99  # from the store...
        assert len(fresh) == 1  # ...and now cached in memory
        assert "key" in fresh
        fresh.clear()  # clears memory only
        assert fresh.get("key") == 99
        store.close()

    def test_engine_counts_correctly_through_disk(self, tmp_path):
        clauses = [(1, 2), (-1, 3), (-2, -3), (2, 3)]
        cnf = CNF()
        for v in range(1, 4):
            cnf.var_for(v)
        for c in clauses:
            cnf.add_clause(c)
        pairs = {1: WeightPair(1, 2), 2: WeightPair(Fraction(1, 2), 1),
                 3: WeightPair(1, -1)}
        plain = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                        stats=EngineStats())
        cold = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                       stats=EngineStats(), persist=True,
                       cache_dir=str(tmp_path))
        store = open_store(str(tmp_path))
        store.flush()
        hits_before = store.hits
        warm = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                       stats=EngineStats(), persist=True,
                       cache_dir=str(tmp_path))
        assert plain == cold == warm
        assert store.hits > hits_before  # the warm run read from disk

    def test_bad_cache_dir_falls_back_to_recomputation(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cnf = CNF()
        for v in range(1, 4):
            cnf.var_for(v)
        cnf.add_clause((1, 2))
        cnf.add_clause((-2, 3))
        pairs = {v: WeightPair(1, 1) for v in range(1, 4)}
        got = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                      stats=EngineStats(), persist=True,
                      cache_dir=str(blocker / "nested"))
        assert got == wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                              stats=EngineStats())


class TestCrossProcess:
    def test_second_process_is_served_from_disk(self, tmp_path):
        cache_dir = tmp_path / "store"
        cold = _run_driver(cache_dir)

        stats = _cache_cli(cache_dir, "stats")
        assert stats.returncode == 0
        assert _stats_number(stats.stdout, "entries") > 0
        assert _stats_number(stats.stdout, "writes") > 0
        hits_after_cold = _stats_number(stats.stdout, "hits")

        warm = _run_driver(cache_dir)
        assert warm == cold  # bit-identical counts, fresh process

        stats = _cache_cli(cache_dir, "stats")
        hits_after_warm = _stats_number(stats.stdout, "hits")
        assert hits_after_warm > hits_after_cold  # served from the disk cache

    def test_corrupted_store_falls_back_to_recompute(self, tmp_path):
        cache_dir = tmp_path / "store"
        cold = _run_driver(cache_dir)
        store_file = cache_dir / "store.sqlite"
        assert store_file.exists()
        # Truncate mid-file: the classic partial-write corruption.
        payload = store_file.read_bytes()
        store_file.write_bytes(payload[: max(1, len(payload) // 3)])
        for suffix in ("-wal", "-shm"):
            path = str(store_file) + suffix
            if os.path.exists(path):
                os.unlink(path)
        recovered = _run_driver(cache_dir)
        assert recovered == cold  # graceful fallback: recomputed, identical

    def test_garbage_store_falls_back_to_recompute(self, tmp_path):
        cache_dir = tmp_path / "store"
        cache_dir.mkdir()
        (cache_dir / "store.sqlite").write_bytes(b"\x00garbage" * 512)
        got = _run_driver(cache_dir)
        fresh = _run_driver(tmp_path / "clean")
        assert got == fresh


class TestFO2PersistScope:
    """Persistence is per-call opt-in, but the FO2 structure cache is
    module-global and shared between threads: the store travels down
    each call and is never left on a shared structure."""

    # The top-level ``exists x.`` conjunct keeps a zero-ary Skolem
    # symbol, so a call makes one table call per truth value of it.
    SENTENCE = "(exists x. P(x)) & (forall x. exists y. (R(x, y) | P(x)))"

    def test_store_detaches_on_non_persist_calls(self, tmp_path):
        from repro.logic.parser import parse
        from repro.wfomc import fo2

        fo2.clear_fo2_caches()
        sentence = parse(self.SENTENCE)
        persisted = fo2.wfomc_fo2(sentence, 3, persist=True,
                                  cache_dir=str(tmp_path))
        plain = fo2.wfomc_fo2(sentence, 3)
        assert persisted == plain
        structures = list(fo2._STRUCTURE_CACHE._data.values())
        assert structures
        assert not any(hasattr(s, "store") for s in structures)

    class _OnFirstTick:
        """A budget stand-in that runs ``action`` in another thread at
        its first tick and waits for it: a concurrent call landing in
        the middle of this call's cold cell tables."""

        def __init__(self, action):
            self.action = action

        def tick(self):
            action, self.action = self.action, None
            if action is not None:
                import threading

                thread = threading.Thread(target=action)
                thread.start()
                thread.join(timeout=60)
                assert not thread.is_alive()

    def _interleave(self, tmp_path, persisted_first):
        # The outer call ticks first; the inner one starts at that tick
        # and aborts at its own first tick, after it has set up its
        # store (or lack of one) but before it computes anything.
        from repro.errors import BudgetExceededError
        from repro.logic.parser import parse
        from repro.resilience import Budget
        from repro.wfomc import fo2

        fo2.clear_fo2_caches()
        sentence = parse(self.SENTENCE)
        cache_dir = str(tmp_path)
        persisted = {"persist": True, "cache_dir": cache_dir}
        outer, inner = (persisted, {}) if persisted_first else ({}, persisted)
        aborted = []

        def inner_call():
            cancelled = Budget()
            cancelled.cancel()
            try:
                fo2.wfomc_fo2(sentence, 3, budget=cancelled, **inner)
            except BudgetExceededError:
                aborted.append(True)

        value = fo2.wfomc_fo2(sentence, 3, budget=self._OnFirstTick(
            inner_call), **outer)
        assert aborted == [True]
        assert value == fo2.wfomc_fo2(sentence, 3)
        (structure,) = fo2._STRUCTURE_CACHE._data.values()
        assert len(structure.zero_preds) >= 1  # several tables calls
        store = open_store(cache_dir)
        return [store.get("fo2_tables", (structure.matrix_key, zero_key))
                for zero_key in structure._zero_tables]

    def test_plain_call_never_writes_a_concurrent_calls_store(self, tmp_path):
        rows = self._interleave(tmp_path, persisted_first=False)
        assert rows and all(row is None for row in rows)

    def test_persisted_call_keeps_its_writes(self, tmp_path):
        rows = self._interleave(tmp_path, persisted_first=True)
        assert rows and all(row is not None for row in rows)

    def test_persisted_call_writes_tables_already_in_memory(self, tmp_path):
        # A plain call warms the structure and the decomposition; a later
        # persisted call served from memory must still fill its store,
        # with the same rows a persisted call on cold caches writes.
        from repro.logic.parser import parse
        from repro.wfomc import fo2

        sentence = parse("forall x. exists y. R(x, y)")

        def table_rows(cache_dir):
            (structure,) = fo2._STRUCTURE_CACHE._data.values()
            store = open_store(cache_dir)
            return {zero_key: store.get(
                "fo2_tables", (structure.matrix_key, zero_key))
                for zero_key in structure._zero_tables}

        fo2.clear_fo2_caches()
        cold_dir = str(tmp_path / "cold")
        expected = fo2.wfomc_fo2(sentence, 5, persist=True,
                                 cache_dir=cold_dir)
        cold = table_rows(cold_dir)

        fo2.clear_fo2_caches()
        warm_dir = str(tmp_path / "warm")
        assert fo2.wfomc_fo2(sentence, 5) == expected
        assert fo2.wfomc_fo2(sentence, 5, persist=True,
                             cache_dir=warm_dir) == expected
        warm = table_rows(warm_dir)
        assert cold and all(row is not None for row in cold.values())
        assert warm == cold


class TestWorkersShareTheStore:
    def test_parallel_persist_is_bit_identical(self, tmp_path):
        import random

        from repro.propositional.counter import shutdown_worker_pool

        clauses = []
        rng = random.Random(3)
        for k in range(2):
            base = 7 * k
            for _ in range(16):
                vs = rng.sample(range(base + 1, base + 8), 3)
                clauses.append(tuple(v if rng.random() < 0.5 else -v
                                     for v in vs))
        cnf = CNF()
        for v in range(1, 15):
            cnf.var_for(v)
        for c in clauses:
            cnf.add_clause(c)
        pairs = {v: WeightPair(Fraction(v, 3), 1) for v in range(1, 15)}
        try:
            serial = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                             stats=EngineStats())
            parallel = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                               stats=EngineStats(), workers=2, persist=True,
                               cache_dir=str(tmp_path))
            assert parallel == serial
            store = open_store(str(tmp_path))
            store.flush()
            assert store.stats()["entries"] > 0
        finally:
            shutdown_worker_pool()


class TestVacuum:
    """Size-bounded LRU eviction and the maintenance entry points."""

    def _filled_store(self, tmp_path, rows=40):
        store = PersistentStore(str(tmp_path / "vac-store"))
        for i in range(rows):
            store.put("components", ("row", i), [i, i + 1])
        store.flush()
        # Backdate everything so subsequent hits are strictly newer.
        store._conn.execute("UPDATE kv SET last_used = 1")
        store._conn.commit()
        return store

    def test_lru_eviction_keeps_recently_hit_rows(self, tmp_path):
        store = self._filled_store(tmp_path)
        survivors = (3, 11, 29)
        for i in survivors:
            assert store.get("components", ("row", i)) == [i, i + 1]
        removed = store.vacuum(max_entries=3)
        assert removed == 37
        assert store.entry_counts() == {"components": 3}
        for i in survivors:
            assert store.get("components", ("row", i)) == [i, i + 1]
        assert store.get("components", ("row", 0)) is None
        assert not store.disabled
        store.close()

    def test_max_bytes_bound_shrinks_the_file(self, tmp_path):
        store = PersistentStore(str(tmp_path / "bytes-store"))
        for i in range(300):
            store.put("components", ("big", i), list(range(80)))
        store.flush()
        removed = store.vacuum(max_bytes=65536)
        assert removed > 0
        assert os.path.getsize(store.path) <= 65536
        # The newest rows are the ones that survive.
        remaining = store.entry_counts().get("components", 0)
        assert remaining > 0
        assert store.get("components", ("big", 299)) == list(range(80))
        store.close()

    def test_vacuum_without_bounds_only_compacts(self, tmp_path):
        store = self._filled_store(tmp_path, rows=10)
        assert store.vacuum() == 0
        assert store.entry_counts() == {"components": 10}
        store.close()

    def test_eviction_tracks_disk_hits_through_write_behind(self, tmp_path):
        # A row hit through get() must have its timestamp refreshed by
        # the *next flush*, not immediately — and still survive eviction.
        store = self._filled_store(tmp_path, rows=6)
        assert store.get("components", ("row", 4)) is not None
        assert store._touched  # pending timestamp refresh
        removed = store.vacuum(max_entries=1)  # vacuum flushes first
        assert removed == 5
        assert store.get("components", ("row", 4)) == [4, 5]
        store.close()

    def test_close_auto_vacuums_under_env_bound(self, tmp_path, monkeypatch):
        store = self._filled_store(tmp_path, rows=20)
        path = store.directory
        monkeypatch.setenv(store_module.MAX_ENTRIES_ENV, "5")
        store.close()
        monkeypatch.delenv(store_module.MAX_ENTRIES_ENV)
        reopened = PersistentStore(path)
        assert sum(reopened.entry_counts().values()) == 5
        reopened.close()

    def test_cli_vacuum_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        store = self._filled_store(tmp_path, rows=12)
        directory = store.directory
        store.close()
        assert main(["cache", "vacuum", "--cache-dir", directory,
                     "--max-entries", "4"]) == 0
        out = capsys.readouterr().out
        assert "evicted 8 entries" in out
        reopened = PersistentStore(directory)
        assert sum(reopened.entry_counts().values()) == 4
        reopened.close()


class TestLocalStoreOnly:
    """The store is one SQLite file per directory; nothing in the package
    serves or fetches cache entries over the network."""

    def test_import_loads_no_http_stack(self):
        probe = ("import sys, repro; print(sorted(m for m in ('http.client', "
                 "'http.server', 'socketserver') if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, text=True,
                                env=_child_env(), cwd=REPO_ROOT)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_cache_serve_is_a_usage_error(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["cache", "serve"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
