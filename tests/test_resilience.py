"""Tests for the fault-tolerant execution layer.

Covers :class:`repro.Budget` (units, engine integration, warm-start
bit-identity after an abort), worker-crash supervision of the parallel
counter (retry on a fresh pool, degradation to serial), and the
persistent store's failure handling (busy retry with backoff, disable /
re-enable probing, disk-full degradation, torn-write and runtime
corruption recovery) — all driven by the deterministic fault-injection
plans of :mod:`repro.resilience.faults`.
"""

import time
from fractions import Fraction

import pytest

from repro import Budget, BudgetExceededError, FaultPlan, FaultPlanError
from repro.cli import main
from repro.propositional.cnf import CNF
from repro.propositional.counter import (
    EngineStats,
    reset_engine,
    shutdown_worker_pool,
    wmc_cnf,
)
from repro.resilience import faults
from repro.resilience.faults import clear_plan, install_plan
from repro.weights import WeightPair


@pytest.fixture(autouse=True)
def _no_leftover_plan(monkeypatch):
    # Each test here stages its own targeted fault scenario; an ambient
    # $REPRO_FAULT_PLAN (the CI fault matrix) would perturb the exact
    # retry/counter assertions, so it is neutralized for this module —
    # tests/test_faults.py is the suite that runs under ambient plans.
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    clear_plan()
    yield
    clear_plan()


class FakeClock:
    """A manually advanced monotonic clock for deterministic budgets."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _cnf_from_clauses(clauses, num_vars):
    """A CNF whose variables 1..num_vars are all labeled by themselves."""
    cnf = CNF()
    for v in range(1, num_vars + 1):
        cnf.var_for(v)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


def _multi_component_cnf():
    # Four disjoint components with fractional weights (mirrors
    # tests/test_engine.py): any scheduling or merge nondeterminism
    # shows up as a different Fraction.
    clauses = []
    for k in range(4):
        base = 5 * k
        clauses.append((base + 1, base + 2, -(base + 3)))
        clauses.append((-(base + 1), base + 4))
        clauses.append((base + 2 + k % 2, -(base + 5), base + 1))
        clauses.append((base + 3, base + 5))
    cnf = _cnf_from_clauses(clauses, 20)
    pairs = {v: WeightPair(Fraction(v, 7), Fraction(3, v + 1))
             for v in range(1, 21)}
    return cnf, pairs


class TestBudgetUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(timeout=-1)
        with pytest.raises(ValueError):
            Budget(max_conflicts=-1)
        with pytest.raises(ValueError):
            Budget(max_decisions="many")

    def test_timeout_trips_via_clock(self):
        clock = FakeClock()
        budget = Budget(timeout=5.0, clock=clock)
        budget.check()  # within the deadline
        clock.now = 4.9
        budget.check()
        clock.now = 5.0
        with pytest.raises(BudgetExceededError) as info:
            budget.check()
        assert info.value.reason == "timeout"
        assert info.value.elapsed == 5.0

    def test_first_tick_consults_the_clock(self):
        # timeout=0 must trip on the very first tick, not the 64th.
        budget = Budget(timeout=0, clock=FakeClock())
        with pytest.raises(BudgetExceededError):
            budget.tick()

    def test_spend_caps(self):
        budget = Budget(max_decisions=2, max_conflicts=1, clock=FakeClock())
        budget.spend_decision()
        budget.spend_decision()
        with pytest.raises(BudgetExceededError) as info:
            budget.spend_decision()
        assert info.value.reason == "max_decisions"
        assert info.value.spent == {"decisions": 3, "conflicts": 0}
        budget.spend_conflict()
        with pytest.raises(BudgetExceededError) as info:
            budget.spend_conflict()
        assert info.value.reason == "max_conflicts"

    def test_cancel_and_restart(self):
        clock = FakeClock()
        budget = Budget(timeout=10, clock=clock)
        budget.cancel()
        assert budget.cancelled
        with pytest.raises(BudgetExceededError) as info:
            budget.check()
        assert info.value.reason == "cancelled"
        clock.now = 9.0
        budget.restart()
        assert not budget.cancelled
        assert budget.elapsed() == 0.0
        budget.check()  # fresh deadline

    def test_remaining(self):
        clock = FakeClock()
        budget = Budget(timeout=10, clock=clock)
        clock.now = 4.0
        assert budget.remaining() == 6.0
        assert Budget(clock=clock).remaining() is None


class TestBudgetOnEngine:
    HARD = [  # a 3-CNF block without easy propagations
        (1, 2, 3), (-1, -2, 4), (2, -3, -4), (-2, 3, -4),
        (1, -2, -3), (-1, 2, -4), (3, 4, -1), (-3, -4, 2),
        (5, 6, 7), (-5, -6, 8), (6, -7, -8), (-6, 7, -8),
    ]

    def _run(self, budget=None, cache=None, stats=None):
        cnf = _cnf_from_clauses(self.HARD, 8)
        pairs = {v: WeightPair(Fraction(1, v + 1), Fraction(v, 3))
                 for v in range(1, 9)}
        return wmc_cnf(cnf, pairs.__getitem__,
                       engine_cache={} if cache is None else cache,
                       stats=stats or EngineStats(), budget=budget)

    def test_max_decisions_trips_with_partial_stats(self):
        budget = Budget(max_decisions=1, clock=FakeClock())
        with pytest.raises(BudgetExceededError) as info:
            self._run(budget=budget)
        assert info.value.reason == "max_decisions"
        assert info.value.engine_stats is not None
        assert info.value.engine_stats.decisions >= 1

    def test_timeout_zero_trips_immediately(self):
        with pytest.raises(BudgetExceededError) as info:
            self._run(budget=Budget(timeout=0))
        assert info.value.reason == "timeout"

    def test_generous_budget_changes_nothing(self):
        plain = self._run()
        budgeted = self._run(budget=Budget(timeout=3600, max_decisions=10**9,
                                           max_conflicts=10**9))
        assert budgeted == plain

    def test_warm_start_after_abort_is_bit_identical(self):
        reference = self._run()
        cache = {}
        aborted = 0
        # Abort at a ladder of decision caps, reusing one cache: every
        # abort leaves only completed component values behind, so the
        # final uncapped run warm-starts and matches exactly.
        for cap in (1, 2, 4, 8):
            try:
                self._run(budget=Budget(max_decisions=cap,
                                        clock=FakeClock()), cache=cache)
            except BudgetExceededError:
                aborted += 1
        assert aborted > 0
        value = self._run(cache=cache)
        assert value == reference
        assert (value.numerator, value.denominator) == (
            reference.numerator, reference.denominator)

    def test_mid_count_cancellation_leaves_caches_consistent(self,
                                                             monkeypatch):
        # Satellite: interrupt safety.  A clock-driven interruption
        # mid-count (deadline reached partway through the search) must
        # leave the shared caches consistent: the rerun completes and
        # matches an uninterrupted run bit for bit.
        import repro.resilience.limits as limits

        monkeypatch.setattr(limits, "CHECK_MASK", 1)  # check every 2 ticks
        reference = self._run()
        cache = {}
        clock = FakeClock()
        budget = Budget(timeout=1.0, clock=clock)

        def advancing_clock():
            # Each clock consultation advances time, so the deadline
            # fires a few check points into the run, not on entry.
            clock.now += 0.3
            return clock.now

        budget._clock = advancing_clock
        with pytest.raises(BudgetExceededError) as info:
            self._run(budget=budget, cache=cache)
        assert info.value.reason == "timeout"
        assert budget.ticks > 1  # it got past the first check point
        assert self._run(cache=cache) == reference

    def test_wfomc_timeout_and_warm_retry(self):
        from repro import parse, wfomc
        from repro.grounding.lineage import clear_grounding_caches
        from repro.wfomc.solver import clear_solver_caches

        def cold():
            reset_engine()
            clear_grounding_caches()
            clear_solver_caches()

        formula = parse("forall x, y. (R(x) | S(x, y) | T(y))")
        cold()
        reference = wfomc(formula, 3, method="lineage")
        cold()
        with pytest.raises(BudgetExceededError):
            wfomc(formula, 3, method="lineage", budget=Budget(timeout=0))
        # The in-memory caches only ever hold completed values, so the
        # retry (same process, fresh budget) completes bit-identically.
        assert wfomc(formula, 3, method="lineage") == reference


class TestBudgetOnFO2:
    def test_timeout_trips_inside_the_recursion(self, monkeypatch):
        # The FO2 distribution recursion ticks the budget at every node,
        # so a deadline reached partway through it stops the count.  The
        # cell tables are warm, so every tick comes from the recursion.
        import repro.resilience.limits as limits
        from repro import parse
        from repro.wfomc.fo2 import clear_fo2_caches, wfomc_fo2

        formula = parse("forall x. exists y. (R(x,y) & (S(x) -> ~S(y)))")
        clear_fo2_caches()
        reference = wfomc_fo2(formula, 30)
        monkeypatch.setattr(limits, "CHECK_MASK", 1)  # check every 2 ticks
        clock = FakeClock()
        budget = Budget(timeout=1.0, clock=clock)

        def advancing_clock():
            clock.now += 0.3
            return clock.now

        budget._clock = advancing_clock
        with pytest.raises(BudgetExceededError) as info:
            wfomc_fo2(formula, 30, budget=budget)
        assert info.value.reason == "timeout"
        assert budget.ticks > 1
        assert any(entry.name == "suffix" for entry in info.traceback)
        # The recursion keeps nothing between calls: the retry reuses
        # only the completed cell tables and matches the cold run.
        value = wfomc_fo2(formula, 30)
        assert (value.numerator, value.denominator) == (
            reference.numerator, reference.denominator)


    @pytest.mark.parametrize("trip_at,completed", [(1, 0), (6, 3)])
    def test_cancel_trips_inside_cold_cell_tables(self, tmp_path, trip_at,
                                                  completed):
        # The cell tables tick on entry and once per element-1 cell.  The
        # sentence's first three zero-ary assignments have no valid cell
        # (one tick each); the fourth has 7.  A budget cancelled at tick
        # 1 trips on entry to the first table call, one cancelled at tick
        # 6 at the fourth call's second cell.  Only completed tables are
        # kept in memory and in the store, and the retry is bit-identical
        # to a cold run.
        import itertools

        from repro import parse
        from repro.cache import open_store
        from repro.wfomc import fo2

        class CancelAtTick(Budget):
            def __init__(self, at):
                super().__init__()
                self.at = at

            def tick(self):
                if self.ticks + 1 == self.at:
                    self.cancel()
                super().tick()
                self.check()

        formula = parse("forall x. exists y. (R(x,y) & (S(x) -> ~S(y)))")
        fo2.clear_fo2_caches()
        reference = fo2.wfomc_fo2(formula, 12)
        fo2.clear_fo2_caches()
        cache_dir = str(tmp_path)
        with pytest.raises(BudgetExceededError) as info:
            fo2.wfomc_fo2(formula, 12, persist=True, cache_dir=cache_dir,
                          budget=CancelAtTick(trip_at))
        assert info.value.reason == "cancelled"
        names = [entry.name for entry in info.traceback]
        assert names[names.index("tick") - 1] == "tables"

        (structure,) = fo2._STRUCTURE_CACHE._data.values()
        keys = [tuple(sorted(zip(structure.zero_preds, bits)))
                for bits in itertools.product(
                    (False, True), repeat=len(structure.zero_preds))]
        store = open_store(cache_dir)

        def stored():
            return [key for key in keys if store.get(
                "fo2_tables", (structure.matrix_key, key)) is not None]

        assert list(structure._zero_tables) == keys[:completed]
        assert stored() == keys[:completed]

        value = fo2.wfomc_fo2(formula, 12, persist=True, cache_dir=cache_dir)
        assert (value.numerator, value.denominator) == (
            reference.numerator, reference.denominator)
        assert stored() == keys


class TestWorkerSupervision:
    def _serial(self):
        cnf, pairs = _multi_component_cnf()
        return wmc_cnf(cnf, pairs.__getitem__,
                       engine_cache={}, stats=EngineStats())

    def test_single_crash_is_retried_on_a_fresh_pool(self, tmp_path,
                                                     monkeypatch):
        # One worker hard-exits mid-task (the once-marker keeps it to a
        # single crash across pool generations): the supervisor discards
        # the broken pool, resubmits, and the count is bit-identical.
        marker = tmp_path / "crashed-once"
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           "worker_crash@1:once={}".format(marker))
        shutdown_worker_pool()  # fresh workers that see the plan
        try:
            cnf, pairs = _multi_component_cnf()
            stats = EngineStats()
            value = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                            stats=stats, workers=2)
            assert value == self._serial()
            assert stats.worker_retries == 1
            assert stats.degraded_to_serial == 0
            assert marker.exists()
        finally:
            shutdown_worker_pool()

    def test_persistent_crashes_degrade_to_serial(self, monkeypatch):
        # Every task crashes (regression for the pre-supervision code,
        # which raised BrokenProcessPool to the caller): after one
        # retry the engine serves the components in-process; the count
        # is still bit-identical to a serial run.
        monkeypatch.setenv("REPRO_FAULT_PLAN", "worker_crash~1")
        shutdown_worker_pool()
        try:
            cnf, pairs = _multi_component_cnf()
            stats = EngineStats()
            value = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                            stats=stats, workers=2)
            assert value == self._serial()
            assert stats.worker_retries == 1
            assert stats.degraded_to_serial >= 1
        finally:
            shutdown_worker_pool()

    def test_unpicklable_payload_degrades_to_serial(self, monkeypatch):
        # A payload the pool cannot serialize is not fixable by a pool
        # restart: the supervisor must serve the components in-process
        # instead of raising.  Injected at the submit boundary, so no
        # real worker processes are involved.
        import pickle

        import repro.propositional.counter as counter

        class RefusingPool:
            def submit(self, fn, payload):
                raise pickle.PicklingError("injected unpicklable payload")

        monkeypatch.setattr(counter, "_worker_pool",
                            lambda workers: RefusingPool())
        cnf, pairs = _multi_component_cnf()
        stats = EngineStats()
        value = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                        stats=stats, workers=2)
        assert value == self._serial()
        assert stats.degraded_to_serial >= 1
        assert stats.worker_retries == 0


class TestStoreFaults:
    def _store(self, tmp_path):
        from repro.cache.store import PersistentStore

        store = PersistentStore(str(tmp_path / "store"))
        store.put("ns", ("k",), Fraction(22, 7))
        store.flush()
        assert store.get("ns", ("k",)) == Fraction(22, 7)
        return store

    def test_busy_errors_are_retried(self, tmp_path):
        store = self._store(tmp_path)
        install_plan("store_busy@1,2")
        assert store.get("ns", ("k",)) == Fraction(22, 7)
        assert store.retries == 2
        assert not store.disabled

    def test_retry_exhaustion_disables_then_probe_reenables(self, tmp_path,
                                                            monkeypatch):
        import repro.cache.store as S

        monkeypatch.setattr(S, "_MAX_RETRIES", 2)
        monkeypatch.setattr(S, "_RETRY_BASE_S", 0.0001)
        store = self._store(tmp_path)
        install_plan("store_busy~1")  # every operation stays locked
        assert store.get("ns", ("k",)) is None
        assert store.disabled
        assert store.errors == 1
        assert store._probe_at is not None
        # Too early: still disabled.
        assert store.get("ns", ("k",)) is None
        clear_plan()
        # Force the probe window open: the store reopens and serves.
        store._probe_at = time.monotonic() - 1
        assert store.get("ns", ("k",)) == Fraction(22, 7)
        assert not store.disabled
        assert store.reenables == 1

    def test_disk_full_disables_gracefully(self, tmp_path):
        store = self._store(tmp_path)
        install_plan("store_disk_full@1")
        assert store.get("ns", ("k",)) is None  # a miss, not an exception
        assert store.disabled
        assert store.disk_full == 1
        store.put("ns", ("other",), 1)  # writes are dropped silently
        store.flush()

    def test_torn_write_reads_as_miss_then_recovers(self, tmp_path):
        store = self._store(tmp_path)
        install_plan("store_torn_write@1")
        assert store.get("ns", ("k",)) is None
        clear_plan()
        assert store.get("ns", ("k",)) == Fraction(22, 7)

    def test_runtime_corruption_recreates_once(self, tmp_path):
        store = self._store(tmp_path)
        install_plan("store_corrupt@1")
        assert store.get("ns", ("k",)) is None
        clear_plan()
        assert not store.disabled
        assert store.recreated
        # The recreated store is empty but fully functional.
        store.put("ns", ("k2",), 5)
        store.flush()
        assert store.get("ns", ("k2",)) == 5

    def test_closed_store_never_reenables(self, tmp_path):
        store = self._store(tmp_path)
        store.close()
        assert store.disabled
        store._probe_at = time.monotonic() - 1  # even with an open window
        assert store.get("ns", ("k",)) is None
        assert store.disabled
        assert store.reenables == 0

    def test_counting_with_store_outage_is_bit_identical(self, tmp_path,
                                                         monkeypatch):
        import repro.cache.store as S

        monkeypatch.setattr(S, "_MAX_RETRIES", 1)
        monkeypatch.setattr(S, "_RETRY_BASE_S", 0.0001)
        cnf, pairs = _multi_component_cnf()
        reference = wmc_cnf(cnf, pairs.__getitem__,
                            engine_cache={}, stats=EngineStats())
        install_plan("store_busy~1")
        value = wmc_cnf(cnf, pairs.__getitem__, engine_cache={},
                        stats=EngineStats(), persist=True,
                        cache_dir=str(tmp_path / "flaky"))
        assert value == reference


class TestFaultPlan:
    def test_at_indices(self):
        plan = FaultPlan("store_busy@1,3")
        fires = [plan.should_fire("store_busy") for _ in range(4)]
        assert fires == [True, False, True, False]
        assert plan.stats()["fired"]["store_busy"] == 2

    def test_every_nth(self):
        plan = FaultPlan("worker_crash~2")
        fires = [plan.should_fire("worker_crash") for _ in range(6)]
        assert fires == [False, True, False, True, False, True]

    def test_probability_stream_is_seeded(self):
        a = FaultPlan("seed=7;store_busy?0.5")
        b = FaultPlan("seed=7;store_busy?0.5")
        seq_a = [a.should_fire("store_busy") for _ in range(64)]
        seq_b = [b.should_fire("store_busy") for _ in range(64)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_unlisted_kind_never_fires(self):
        plan = FaultPlan("store_busy@1")
        assert plan.should_fire("worker_crash") is False

    def test_once_marker_is_cross_call_single_shot(self, tmp_path):
        marker = tmp_path / "once"
        plan = FaultPlan("store_busy~1:once={}".format(marker))
        assert plan.should_fire("store_busy") is True
        assert marker.exists()
        assert plan.should_fire("store_busy") is False

    @pytest.mark.parametrize("spec", [
        "", "bogus_kind@1", "store_busy@0", "store_busy~0",
        "store_busy?1.5", "store_busy!3", "seed=x;store_busy@1",
        "store_busy@1 store_busy@2",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(FaultPlanError):
            FaultPlan(spec)

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "store_busy@1")
        installed = install_plan("store_corrupt@1")
        assert faults.active_plan() is installed
        clear_plan()
        assert faults.active_plan().spec == "store_busy@1"

    def test_env_plan_tracks_value_changes(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "store_busy@1")
        assert faults.maybe_fire("store_busy") is True
        monkeypatch.setenv("REPRO_FAULT_PLAN", "store_busy@2")
        # New spec: counters restart, index 1 no longer fires... but 2 does.
        assert faults.maybe_fire("store_busy") is False
        assert faults.maybe_fire("store_busy") is True
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert faults.maybe_fire("store_busy") is False

    def test_store_fault_kinds_parse_and_fire(self):
        plan = FaultPlan("store_busy~2;store_disk_full@1;store_corrupt@2;"
                         "store_torn_write~3")
        assert plan.should_fire("store_disk_full") is True
        assert [plan.should_fire("store_busy") for _ in range(4)] == \
            [False, True, False, True]
        assert plan.should_fire("store_corrupt") is False
        assert plan.should_fire("store_corrupt") is True
        assert [plan.should_fire("store_torn_write") for _ in range(3)] == \
            [False, False, True]

    def test_concurrent_should_fire_counts_exactly(self):
        # The serve daemon hits injection points from executor threads;
        # the schedule must stay deterministic in aggregate: with ~N, the
        # fired count is exactly calls // N no matter the interleaving.
        from concurrent.futures import ThreadPoolExecutor

        plan = FaultPlan("store_busy~3")
        calls = 600
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: plan.should_fire("store_busy"), range(calls)))
        assert sum(results) == calls // 3
        assert plan.stats() == {"spec": "store_busy~3",
                                "calls": {"store_busy": calls},
                                "fired": {"store_busy": calls // 3}}

    def test_env_plan_is_shared_across_threads(self, monkeypatch):
        # Concurrent first lookups must agree on one plan object — two
        # would each keep private counters and double the schedule.
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setenv("REPRO_FAULT_PLAN", "store_disk_full~5")
        faults._ENV_SPEC = faults._ENV_PLAN = None
        with ThreadPoolExecutor(max_workers=8) as pool:
            plans = list(pool.map(lambda _: faults.active_plan(), range(64)))
        assert len({id(p) for p in plans}) == 1
        with ThreadPoolExecutor(max_workers=8) as pool:
            fired = sum(pool.map(
                lambda _: faults.maybe_fire("store_disk_full"), range(100)))
        assert fired == 20


class TestCliExitCodes:
    def test_budget_exceeded_exits_4(self, capsys):
        # Cold caches: a warm in-process result would be served before
        # the first budget check point.
        from repro.grounding.lineage import clear_grounding_caches
        from repro.wfomc.solver import clear_solver_caches

        reset_engine()
        clear_grounding_caches()
        clear_solver_caches()
        code = main(["count", "forall x, y. (R(x) | S(x, y) | T(y))", "3",
                     "--method", "lineage", "--timeout", "0"])
        captured = capsys.readouterr()
        assert code == 4
        assert "budget exceeded (timeout)" in captured.err

    def test_bad_input_exits_3(self, capsys):
        code = main(["count", "forall x. (((", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("repro: ")

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["count"])
        assert info.value.code == 2

    def test_internal_error_exits_70_with_traceback(self, capsys,
                                                    monkeypatch):
        import repro.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("injected internal failure")

        monkeypatch.setattr(cli, "fomc", boom)
        code = main(["count", "exists x. P(x)", "2"])
        captured = capsys.readouterr()
        assert code == 70
        assert "injected internal failure" in captured.err

    def test_budget_flags_do_not_change_the_count(self, capsys):
        def run(*argv):
            code = main(list(argv))
            out = capsys.readouterr().out.strip()
            assert code == 0
            return out

        plain = run("count", "forall x. exists y. R(x, y)", "4")
        bounded = run("count", "forall x. exists y. R(x, y)", "4",
                      "--timeout", "3600", "--max-conflicts", "1000000",
                      "--max-decisions", "1000000")
        assert bounded == plain == str((2 ** 4 - 1) ** 4)
