"""Sharded exploration must be byte-identical to the serial engine.

The setup callables live at module level (with picklable args) so the
scheduler can ship them to worker processes under any multiprocessing
start method.
"""

import io
import logging
import os
import signal
from collections import deque

import pytest

from repro.errors import SymexError
from repro.explore import (
    FaultPlan,
    FaultyTransport,
    FrontierControl,
    KillWorker,
    LocalTransport,
    ShardScheduler,
    Transport,
    merge_outcomes,
)
from repro.explore.shard import (
    MSG_DONE,
    ShardOutcome,
    run_assignment,
)
from repro.obs import trace as obs_trace
from repro.obs.progress import ProgressMeter
from repro.symex.engine import BFS, Engine, EngineConfig
from repro.symex.observers import PathObserver
from repro.symex.state import canonical_key


def tree_setup(engine, depth, thresholds=()):
    """A full binary tree (fresh boolean per level) plus an optional
    threshold cascade on a byte, so paths carry real constraints."""
    def program(ctx):
        for i in range(depth):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
        x = ctx.fresh_byte("x")
        for threshold in thresholds:
            ctx.branch(x < threshold)
    return program, None


def skewed_setup(engine, depth):
    """One shallow subtree and one bushy deep one — the load-balancing
    workload: whoever draws a shallow prefix is done with it at once and
    draws the next."""
    def program(ctx):
        if ctx.branch(ctx.fresh_bool("shallow")):
            return  # shallow side: done immediately
        for i in range(depth):
            ctx.branch(ctx.fresh_bool(f"deep{i}"))
    return program, None


def failing_setup(engine, parent_pid):
    """Explodes only inside shard workers (pid differs from coordinator)."""
    def program(ctx):
        for i in range(4):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
        if os.getpid() != parent_pid:
            raise RuntimeError("worker boom")
    return program, None


def dying_setup(engine, parent_pid):
    """Hard-kills the worker process mid-run — no MSG_ERROR possible."""
    def program(ctx):
        for i in range(4):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
        if os.getpid() != parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
    return program, None


def die_once_setup(engine, coordinator_pid, marker):
    """SIGKILLs the first worker process to finish a path — exactly once
    across the whole run, via an O_EXCL marker file — so a recovery run
    sees one real death and the coordinator finishes the walk."""
    def program(ctx):
        for i in range(4):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
        x = ctx.fresh_byte("x")
        ctx.branch(x < 100)
        if os.getpid() != coordinator_pid:
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
    return program, None


def plain_observer_setup(engine):
    program, _ = tree_setup(engine, 4)
    return program, PathObserver()


def _signature(result):
    return [(p.path_id, p.verdict, p.decisions, p.constraints, p.labels)
            for p in result.paths]


def _serial(setup, args):
    engine = Engine(EngineConfig())
    program, observer = setup(engine, *args)
    return engine.explore(program, observer)


class _RecordingLocalTransport(LocalTransport):
    """A real fleet that notes the roots of every assignment it ships."""

    def __init__(self):
        super().__init__()
        self.shipped = []

    def assign(self, wid, assignment):
        self.shipped.append(assignment.roots)
        super().assign(wid, assignment)


class TestShardedParity:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_tree_matches_serial(self, shards):
        args = (4, [30, 80, 200])
        serial = _serial(tree_setup, args)
        sharded = ShardScheduler(tree_setup, args, shards=shards,
                                 seed_factor=2).run()
        assert _signature(sharded.exploration) == _signature(serial)
        assert sharded.exploration.executed == serial.executed
        assert (sharded.exploration.stats.paths_finished
                == serial.stats.paths_finished)
        assert sharded.exploration.stats.forks == serial.stats.forks

    def test_skewed_tree_matches_serial(self):
        """A lopsided tree finishes its prefixes at very different
        times; the output must not change."""
        serial = _serial(skewed_setup, (7,))
        sharded = ShardScheduler(skewed_setup, (7,), shards=2,
                                 seed_factor=1).run()
        assert _signature(sharded.exploration) == _signature(serial)

    def test_fleet_draws_the_frontier_one_prefix_at_a_time(self):
        """Every assignment is one frontier prefix, shipped in canonical
        order, and the prefixes shipped are exactly the seeded frontier."""
        args = (4, [30, 80, 200])
        engine = Engine(EngineConfig())
        program, _ = tree_setup(engine, *args)
        seed = engine.explore(program, control=FrontierControl(4), order=BFS)
        frontier = sorted(seed.frontier, key=canonical_key)
        transport = _RecordingLocalTransport()
        sharded = ShardScheduler(tree_setup, args, shards=2, seed_factor=2,
                                 transport=transport).run()
        assert [len(roots) for roots in transport.shipped] == \
            [1] * len(frontier)
        assert [roots[0] for roots in transport.shipped] == frontier
        assert sharded.steals == 0
        assert _signature(sharded.exploration) == _signature(
            _serial(tree_setup, args))

    @pytest.mark.parametrize("shards", [2, 4])
    def test_worker_solver_queries_repeat_for_a_shard_count(self, shards):
        """A prefix arrives with its ancestors decided and is explored
        whole by one worker, so the solver work of a run does not depend
        on which worker drew which prefix, or when."""
        args = (4, [30, 80, 200])
        counts = set()
        for _ in range(3):
            stats = ShardScheduler(tree_setup, args, shards=shards,
                                   seed_factor=2).run().worker_solver_stats
            counts.add((stats.queries, stats.cache_hits, stats.cache_misses))
        assert len(counts) == 1, counts

    def test_traced_run_assigns_each_prefix_once_and_never_steals(self):
        """The trace shows one ``coordinator.assign`` span and one
        ``worker.assignment`` span per frontier prefix, and no record of
        work moving between workers."""
        args = (4, [30, 80, 200])
        engine = Engine(EngineConfig())
        program, _ = tree_setup(engine, *args)
        seed = engine.explore(program, control=FrontierControl(4), order=BFS)
        tracer = obs_trace.activate()
        try:
            sharded = ShardScheduler(tree_setup, args, shards=2,
                                     seed_factor=2, trace=True).run()
        finally:
            obs_trace.deactivate()
        records = list(tracer.records) + [
            record for deltas in sharded.worker_traces.values()
            for delta in deltas for record in delta.records]
        names = [record["name"] for record in records]
        assert names.count("coordinator.assign") == len(seed.frontier)
        assert names.count("worker.assignment") == len(seed.frontier)
        assert not [name for name in names if "steal" in name]
        assert sharded.steals == 0

    def test_tiny_tree_never_spawns_workers(self):
        """A tree smaller than the frontier target is done at seed time."""
        serial = _serial(tree_setup, (1,))
        sharded = ShardScheduler(tree_setup, (1,), shards=4).run()
        assert _signature(sharded.exploration) == _signature(serial)
        assert sharded.steals == 0

    def test_merged_path_ids_index_every_executed_path(self):
        sharded = ShardScheduler(tree_setup, (4, [100]), shards=2).run()
        executed = sharded.exploration.executed
        paths = sharded.exploration.paths
        assert [path.path_id for path in paths] == list(range(len(executed)))
        assert all(executed[path.path_id][0] == path.decisions
                   for path in paths)


class TestSchedulerValidation:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(SymexError, match=">= 1"):
            ShardScheduler(tree_setup, (2,), shards=0)

    def test_worker_failure_surfaces_with_traceback(self):
        scheduler = ShardScheduler(failing_setup, (os.getpid(),), shards=2,
                                   seed_factor=1)
        with pytest.raises(SymexError, match="boom"):
            scheduler.run()

    def test_observer_without_records_is_accepted(self):
        """An observer needs no sharding support: one that records
        nothing shards like the serial engine, with no records."""
        serial = _serial(plain_observer_setup, ())
        sharded = ShardScheduler(plain_observer_setup, (), shards=2).run()
        assert _signature(sharded.exploration) == _signature(serial)
        assert sharded.exploration.records == serial.records == {}


class TestWorkerLossRecovery:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sigkilled_worker_recovers_byte_identical(self, tmp_path,
                                                      shards):
        """A real SIGKILL (not an injected fault): the coordinator
        aborts the fleet and walks the frontier in-process, and the
        merged result matches the serial engine path-for-path."""
        marker = str(tmp_path / "killed-once")
        args = (os.getpid(), marker)
        serial = _serial(die_once_setup, args)
        scheduler = ShardScheduler(die_once_setup, args, shards=shards,
                                   seed_factor=1)
        sharded = scheduler.run()
        assert os.path.exists(marker), "the kill never fired"
        assert sharded.worker_failures == 1
        assert sharded.recovery_seconds > 0.0
        assert _signature(sharded.exploration) == _signature(serial)
        assert sharded.exploration.executed == serial.executed

    def test_every_worker_sigkilled_recovers_byte_identical(self):
        """Every worker process kills itself on its first path; the
        in-process walk needs none of them."""
        args = (os.getpid(),)
        serial = _serial(dying_setup, args)
        sharded = ShardScheduler(dying_setup, args, shards=2,
                                 seed_factor=1).run()
        assert sharded.worker_failures >= 1
        assert sharded.recovery_seconds > 0.0
        assert _signature(sharded.exploration) == _signature(serial)
        assert sharded.exploration.executed == serial.executed

    def test_fault_free_run_reports_zero_recovery_counters(self):
        sharded = ShardScheduler(tree_setup, (4, [100]), shards=2).run()
        assert sharded.worker_failures == 0
        assert sharded.recovery_seconds == 0.0


class TestMergeSoundness:
    def test_overlapping_outcomes_rejected_by_merge(self):
        engine, other = Engine(EngineConfig()), Engine(EngineConfig())
        full = run_assignment(engine, *tree_setup(engine, 3), [()])
        subtree = run_assignment(other, *tree_setup(other, 3), [(False,)])
        with pytest.raises(SymexError, match="overlap"):
            merge_outcomes([full, subtree])

    def test_frontier_walk_merges_with_seed_into_serial_tree(self):
        """What recovery relies on: the seed outcome plus one walk of
        the whole seeded frontier is exactly the serial tree."""
        engine = Engine(EngineConfig())
        program, _ = tree_setup(engine, 3, [100])
        seed = engine.explore(program, control=FrontierControl(4), order=BFS)
        assert seed.frontier
        seed_outcome = ShardOutcome(executed=seed.executed,
                                    paths=seed.paths, stats=seed.stats)
        walker = Engine(EngineConfig(), query_cache=engine.query_cache)
        walk = run_assignment(walker, *tree_setup(walker, 3, [100]),
                              list(seed.frontier))
        merged, _ = merge_outcomes([seed_outcome, walk])
        serial = _serial(tree_setup, (3, [100]))
        assert _signature(merged) == _signature(serial)
        assert merged.executed == serial.executed


class _InlineTransport(Transport):
    """Runs every assignment synchronously in-process, so a schedule is
    fully deterministic. Two scripted faults:

    * ``unreachable``: assignments to these workers bounce.
    * ``silent``: these workers die on receiving an assignment — no
      DONE, no error frame; ``alive()`` just turns False, like a
      SIGKILL.
    """

    def __init__(self, unreachable=(), silent=()):
        self.unreachable = set(unreachable)
        self.silent = set(silent)
        self.inbox = deque()
        self.ran = []
        self.aborted = False
        self.stopped = False
        self._session = None
        self._alive = {}

    def start(self, count, session):
        self.worker_count = count
        self._session = session
        self._alive = {wid: True for wid in range(count)}

    def assign(self, wid, assignment):
        if wid in self.unreachable:
            raise SymexError(f"shard worker {self.describe(wid)} is "
                             "unreachable")
        if wid in self.silent:
            self._alive[wid] = False
            return
        self.ran.append(wid)
        engine = Engine(self._session.engine_config)
        outcome = run_assignment(engine, *self._session.open(engine),
                                 list(assignment.roots))
        self.inbox.append((MSG_DONE, wid, outcome))

    def recv(self, timeout):
        if self.inbox:
            return self.inbox.popleft()
        return None

    def alive(self, wid):
        return self._alive.get(wid, True)

    def describe(self, wid):
        return f"inline worker {wid}"

    def stop(self):
        self.stopped = True

    def abort(self):
        self.aborted = True


class TestInProcessRecovery:
    ARGS = (4, [100])

    def _run(self, transport):
        return ShardScheduler(tree_setup, self.ARGS, shards=2,
                              seed_factor=2, transport=transport).run()

    def test_kill_after_first_result_matches_serial(self):
        """Worker 0 goes silent once its first one-prefix result is
        delivered, so the next prefix it is handed bounces; the
        in-process walk replaces every shard outcome, so nothing is
        explored twice or lost."""
        faulty = FaultyTransport(_InlineTransport(),
                                 FaultPlan(KillWorker(0, after_results=1)))
        sharded = self._run(faulty)
        assert faulty.injected_kills == 1
        assert sharded.worker_failures == 1
        assert faulty.inner.ran.count(0) == 1
        assert faulty.inner.aborted and not faulty.inner.stopped
        serial = _serial(tree_setup, self.ARGS)
        assert _signature(sharded.exploration) == _signature(serial)
        assert sharded.exploration.executed == serial.executed

    def test_silent_death_mid_assignment_matches_serial(self):
        transport = _InlineTransport(silent={1})
        sharded = self._run(transport)
        assert sharded.worker_failures == 1
        assert transport.aborted and not transport.stopped
        serial = _serial(tree_setup, self.ARGS)
        assert _signature(sharded.exploration) == _signature(serial)
        assert sharded.exploration.executed == serial.executed

    def test_loss_is_logged_naming_the_dead_worker(self, caplog,
                                                   monkeypatch):
        """The run survives the loss, so the log is where it is named:
        ``worker.lost`` names the dead worker and ``worker.recovered``
        carries what the in-process walk cost."""
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        with caplog.at_level(logging.WARNING, logger="repro"):
            sharded = self._run(_InlineTransport(silent={1}))
        assert sharded.worker_failures == 1
        messages = [record.getMessage() for record in caplog.records
                    if record.levelno == logging.WARNING]
        [lost] = [m for m in messages if m.startswith("worker.lost ")]
        assert "inline worker 1" in lost
        [recovered] = [m for m in messages
                       if m.startswith("worker.recovered ")]
        assert "recovery_seconds=" in recovered

    def test_unreachable_worker_finishes_in_process(self):
        transport = _InlineTransport(unreachable={0})
        sharded = self._run(transport)
        assert sharded.worker_failures == 1
        assert sharded.recovery_seconds > 0.0
        assert transport.aborted and not transport.stopped
        serial = _serial(tree_setup, self.ARGS)
        assert _signature(sharded.exploration) == _signature(serial)
        assert sharded.exploration.executed == serial.executed

    def test_progress_follows_the_in_process_walk(self):
        """With ``--progress`` the meter keeps rendering through the
        walk, fed by it rather than by the dead fleet's gauges."""
        stream = io.StringIO()
        meter = ProgressMeter(stream=stream, interval=0.0)
        meter.heartbeat(0, {"paths": 999, "worklist": 5})
        sharded = ShardScheduler(tree_setup, self.ARGS, shards=2,
                                 seed_factor=2,
                                 transport=_InlineTransport(unreachable={0}),
                                 progress=meter).run()
        assert sharded.worker_failures == 1
        lines = stream.getvalue().splitlines()
        assert len(lines) > 1, "the walk never rendered"
        last = lines[-1]
        assert "paths=999" not in last and "paths=0 " not in last
        assert "failures=1" in last
        assert "workers=" not in last

    def test_clean_run_stops_the_fleet_gracefully(self):
        transport = _InlineTransport()
        sharded = self._run(transport)
        assert sharded.worker_failures == 0
        assert transport.stopped and not transport.aborted
        assert sorted(set(transport.ran)) == [0, 1]


class _ScriptedDoneTransport(Transport):
    """Records every assignment in order and answers it with an empty
    ``MSG_DONE``, latest assignment first: the worker that reported last
    keeps reporting first, so which worker draws what is scripted."""

    def __init__(self):
        self.log = []
        self.replies = []

    def assign(self, wid, assignment):
        self.log.append((wid, assignment.roots))
        self.replies.append((MSG_DONE, wid, ShardOutcome()))

    def recv(self, timeout):
        return self.replies.pop() if self.replies else None

    def alive(self, wid):
        return True


class TestAssign:
    def _assign(self, pending, idle):
        transport = _ScriptedDoneTransport()
        scheduler = ShardScheduler(tree_setup, (3,), shards=len(idle),
                                   transport=transport)
        queue = deque(pending)
        idle = set(idle)
        assert scheduler._assign(queue, idle) == []
        assert all(len(roots) == 1 for _wid, roots in transport.log)
        assigned = {wid: roots[0] for wid, roots in transport.log}
        assert len(assigned) == len(transport.log)
        return assigned, idle, queue

    def test_each_idle_worker_draws_one_prefix(self):
        prefixes = sorted([(False, False), (True, False), (False, True),
                           (True, True)], key=canonical_key)
        assigned, idle, queue = self._assign(prefixes, {1, 0})
        assert assigned == {0: prefixes[0], 1: prefixes[1]}
        assert idle == set()
        assert list(queue) == prefixes[2:]

    def test_each_done_draws_the_next_prefix_in_canonical_order(self):
        prefixes = sorted([(True, True), (True, False), (False, True),
                           (False, False, True), (False, False, False)],
                          key=canonical_key)
        transport = _ScriptedDoneTransport()
        scheduler = ShardScheduler(tree_setup, (3,), shards=2,
                                   transport=transport)
        outcomes, dead = scheduler._coordinate(prefixes)
        assert dead == []
        assert len(outcomes) == len(prefixes)
        # Workers 0 and 1 draw the first two; then every DONE (worker 1
        # reports first each time, by the script) draws the next prefix.
        assert transport.log == [(0, (prefixes[0],)), (1, (prefixes[1],))] \
            + [(1, (prefix,)) for prefix in prefixes[2:]]

    def test_surplus_workers_stay_idle(self):
        assigned, idle, _ = self._assign([(False,)], {0, 1, 2})
        assert assigned == {0: (False,)}
        assert idle == {1, 2}
