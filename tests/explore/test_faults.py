"""The fault-injection harness and the recovery paths it drives.

Two layers of coverage: :class:`FaultyTransport` semantics against a
scripted in-memory transport (the plan fires exactly when and where the
script says), then end-to-end recovery runs over a real
``LocalTransport`` asserting the headline criterion — findings are
byte-identical with and without injected faults.

Setup callables live at module level so worker processes can unpickle
them under any start method.
"""

import io
import time
from collections import deque

import pytest

from repro.errors import SymexError
import repro.explore
from repro.explore import (
    Assignment,
    DelayResult,
    FaultPlan,
    FaultyTransport,
    GarbleResult,
    KillWorker,
    LocalTransport,
    ShardScheduler,
    Transport,
)
from repro.explore.shard import MSG_DONE, FrontierControl, run_assignment
from repro.obs.progress import ProgressMeter
from repro.symex.engine import BFS, Engine, EngineConfig
from repro.symex.state import canonical_key


def tree_setup(engine, depth, thresholds=()):
    def program(ctx):
        for i in range(depth):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
        x = ctx.fresh_byte("x")
        for threshold in thresholds:
            ctx.branch(x < threshold)
    return program, None


def _signature(result):
    return [(p.path_id, p.verdict, p.decisions, p.constraints, p.labels)
            for p in result.paths]


def _serial(setup, args):
    engine = Engine(EngineConfig())
    program, observer = setup(engine, *args)
    return engine.explore(program, observer)


# -- FaultyTransport semantics against a scripted inner transport -------------


class _ScriptedTransport(Transport):
    """An in-memory transport: tests enqueue messages, record calls."""

    def __init__(self, workers=2):
        self.workers = workers
        self.inbox = deque()
        self.assigned = []
        self.stopped = False
        self.aborted = False

    @property
    def worker_count(self):
        return self.workers

    def start(self, count, session):
        self.workers = count

    def assign(self, wid, prefixes):
        self.assigned.append((wid, prefixes))

    def recv(self, timeout):
        if self.inbox:
            return self.inbox.popleft()
        return None

    def alive(self, wid):
        return True

    def describe(self, wid):
        return f"scripted worker {wid}"

    def stop(self):
        self.stopped = True

    def abort(self):
        self.aborted = True


class TestFaultyTransportSemantics:
    def test_empty_plan_is_transparent(self):
        inner = _ScriptedTransport()
        faulty = FaultyTransport(inner, FaultPlan())
        inner.inbox.append((MSG_DONE, 0, "payload"))
        faulty.assign(0, Assignment(((),)))
        assert inner.assigned == [(0, Assignment(((),)))]
        assert faulty.recv(0.1) == (MSG_DONE, 0, "payload")
        assert faulty.alive(0)
        assert faulty.injected_kills == 0

    def test_kill_after_zero_results_severs_immediately(self):
        faulty = FaultyTransport(_ScriptedTransport(),
                                 FaultPlan(KillWorker(0, after_results=0)))
        assert not faulty.alive(0)
        assert faulty.alive(1)
        assert faulty.injected_kills == 1
        with pytest.raises(SymexError, match="unreachable"):
            faulty.assign(0, Assignment(((),)))
        assert "severed by fault plan" in faulty.describe(0)

    def test_kill_after_nth_result_lets_earlier_messages_through(self):
        inner = _ScriptedTransport()
        faulty = FaultyTransport(inner,
                                 FaultPlan(KillWorker(0, after_results=1)))
        inner.inbox.append((MSG_DONE, 0, "first"))
        inner.inbox.append((MSG_DONE, 0, "second"))
        assert faulty.recv(0.1) == (MSG_DONE, 0, "first")
        # One message delivered: the kill is due; the second is swallowed.
        assert faulty.recv(0.1) is None
        assert not faulty.alive(0)
        assert faulty.injected_kills == 1

    def test_severed_workers_messages_are_swallowed_not_delivered(self):
        inner = _ScriptedTransport()
        faulty = FaultyTransport(inner, FaultPlan(KillWorker(0)))
        inner.inbox.append((MSG_DONE, 0, "from the dead"))
        inner.inbox.append((MSG_DONE, 1, "alive"))
        assert faulty.recv(0.1) == (MSG_DONE, 1, "alive")

    def test_abort_forwards_to_the_inner_abort(self):
        """Not to the graceful ``stop`` the base class falls back on: a
        recovering run must not wait for a severed-but-alive worker to
        drain."""
        inner = _ScriptedTransport()
        FaultyTransport(inner, FaultPlan(KillWorker(0))).abort()
        assert inner.aborted
        assert not inner.stopped

    def test_a_severed_worker_is_killed_once(self):
        """A second KillWorker entry for a worker already severed never
        fires: nothing replaces a lost worker."""
        faulty = FaultyTransport(
            _ScriptedTransport(), FaultPlan(KillWorker(0, after_results=0),
                                            KillWorker(0, after_results=0)))
        assert not faulty.alive(0)
        assert not faulty.alive(0)
        assert faulty.injected_kills == 1

    def test_delay_result_sleeps_but_delivers(self):
        inner = _ScriptedTransport()
        faulty = FaultyTransport(inner,
                                 FaultPlan(DelayResult(0, nth=1,
                                                       seconds=0.05)))
        inner.inbox.append((MSG_DONE, 0, "slow"))
        before = time.monotonic()
        assert faulty.recv(1.0) == (MSG_DONE, 0, "slow")
        assert time.monotonic() - before >= 0.05
        assert faulty.alive(0)
        assert faulty.injected_kills == 0

    def test_garble_severs_the_stream(self):
        inner = _ScriptedTransport()
        faulty = FaultyTransport(inner, FaultPlan(GarbleResult(0, nth=1)))
        inner.inbox.append((MSG_DONE, 0, "garbled"))
        assert faulty.recv(0.1) is None       # dropped, stream severed
        assert not faulty.alive(0)
        assert faulty.injected_kills == 1

    def test_plan_repr_names_its_faults(self):
        plan = FaultPlan(KillWorker(3), DelayResult(3, nth=2, seconds=0.1))
        assert "KillWorker" in repr(plan)
        assert "DelayResult" in repr(plan)


# -- end-to-end recovery over a real LocalTransport ---------------------------


TREE_ARGS = (4, [30, 200])


def _recover_run(plan, shards=2, seed_factor=2):
    faulty = FaultyTransport(LocalTransport(), plan)
    scheduler = ShardScheduler(tree_setup, TREE_ARGS, shards=shards,
                               seed_factor=seed_factor, transport=faulty)
    return scheduler.run(), faulty


class TestRecoveryParity:
    def test_empty_plan_matches_serial(self):
        """A healthy run through the fault wrapper changes nothing."""
        serial = _serial(tree_setup, TREE_ARGS)
        sharded, faulty = _recover_run(FaultPlan())
        assert _signature(sharded.exploration) == _signature(serial)
        assert sharded.worker_failures == 0
        assert sharded.recovery_seconds == 0.0
        assert faulty.injected_kills == 0

    def test_killed_worker_recovers_byte_identical(self):
        serial = _serial(tree_setup, TREE_ARGS)
        sharded, faulty = _recover_run(
            FaultPlan(KillWorker(0, after_results=0)))
        assert faulty.injected_kills == 1
        assert sharded.worker_failures == 1
        assert sharded.recovery_seconds > 0.0
        assert _signature(sharded.exploration) == _signature(serial)
        assert sharded.exploration.executed == serial.executed

    def test_every_worker_severed_recovers_byte_identical(self):
        serial = _serial(tree_setup, TREE_ARGS)
        sharded, faulty = _recover_run(FaultPlan(KillWorker(0),
                                                 KillWorker(1)))
        assert faulty.injected_kills >= 1
        assert sharded.worker_failures >= 1
        assert _signature(sharded.exploration) == _signature(serial)
        assert sharded.exploration.executed == serial.executed

    def test_recovery_counts_each_cache_lookup_once(self):
        """The in-process walk runs on a fresh engine, as a worker does:
        the coordinator's cache books the seed lookups, the walk's
        outcome books its own, and each side counts exactly what a
        standalone seed and a standalone walk count."""
        engine = Engine(EngineConfig())
        program, _ = tree_setup(engine, *TREE_ARGS)
        seed = engine.explore(program, control=FrontierControl(4), order=BFS)
        walker = Engine(EngineConfig())
        walk = run_assignment(walker, *tree_setup(walker, *TREE_ARGS),
                              sorted(seed.frontier, key=canonical_key))
        seed_lookups = engine.query_cache.stats.queries
        walk_lookups = walker.query_cache.stats.queries
        assert walk.solver_stats.cache_hits + \
            walk.solver_stats.cache_misses == walk_lookups > 0

        scheduler = ShardScheduler(
            tree_setup, TREE_ARGS, shards=2, seed_factor=2,
            transport=FaultyTransport(LocalTransport(),
                                      FaultPlan(KillWorker(0))))
        sharded = scheduler.run()
        assert sharded.worker_failures == 1
        worker = sharded.worker_solver_stats
        assert scheduler.engine.query_cache.stats.queries == seed_lookups
        assert worker.cache_hits + worker.cache_misses == walk_lookups

    def test_recovery_walk_feeds_the_progress_meter(self):
        """After a loss the meter drops the fleet's gauges and counts
        the in-process walk's own executed paths, as a serial run's
        meter does."""
        engine = Engine(EngineConfig())
        program, _ = tree_setup(engine, *TREE_ARGS)
        seed = engine.explore(program, control=FrontierControl(4), order=BFS)
        walker = Engine(EngineConfig())
        walk = run_assignment(walker, *tree_setup(walker, *TREE_ARGS),
                              sorted(seed.frontier, key=canonical_key))

        stream = io.StringIO()
        meter = ProgressMeter(stream=stream)
        scheduler = ShardScheduler(
            tree_setup, TREE_ARGS, shards=2, seed_factor=2,
            transport=FaultyTransport(LocalTransport(),
                                      FaultPlan(KillWorker(0))),
            progress=meter)
        sharded = scheduler.run()
        meter.close()
        assert sharded.worker_failures == 1
        assert meter.coordinator["failures"] == 1
        assert meter.coordinator["paths"] == len(walk.executed) > 1
        assert "workers" not in meter.coordinator
        last = stream.getvalue().splitlines()[-1]
        assert f" paths={len(walk.executed)} " in last
        assert last.endswith(" failures=1")

    def test_garbled_result_recovers_byte_identical(self):
        """A corrupted frame severs the worker; recovery re-runs its
        region and the merge stays canonical."""
        serial = _serial(tree_setup, TREE_ARGS)
        sharded, faulty = _recover_run(FaultPlan(GarbleResult(0, nth=1)))
        assert faulty.injected_kills == 1
        assert sharded.worker_failures == 1
        assert _signature(sharded.exploration) == _signature(serial)

    def test_delayed_result_is_not_a_death(self):
        """A slow message within the grace window must not trigger
        recovery — slow is not dead."""
        serial = _serial(tree_setup, TREE_ARGS)
        sharded, faulty = _recover_run(
            FaultPlan(DelayResult(0, nth=1, seconds=0.2)))
        assert sharded.worker_failures == 0
        assert _signature(sharded.exploration) == _signature(serial)


class TestNoWorkerReplacement:
    @pytest.mark.parametrize(
        "transport", [Transport, LocalTransport, FaultyTransport])
    def test_no_worker_is_ever_replaced(self, transport):
        """A lost worker ends the fleet; nothing respawns it."""
        assert not hasattr(transport, "respawn")

    def test_no_exclusion_or_respawn_exports(self):
        for name in ("ExcludeControl", "RefuseRespawn"):
            assert name not in repro.explore.__all__
            assert not hasattr(repro.explore, name)
