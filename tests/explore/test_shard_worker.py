"""The shard worker's main loop, driven in-process.

:func:`~repro.explore.shard.shard_worker` normally runs in a forked
process behind :class:`~repro.explore.transport.LocalTransport`. Here it
runs in the test's own thread over plain ``queue.Queue`` objects and a
``threading.Event``, so every message it sends can be inspected in
order, without process scheduling in the way.
"""

import queue
import threading

import pytest

from repro.explore.shard import (
    MSG_DONATE,
    MSG_DONE,
    MSG_ERROR,
    MSG_HEARTBEAT,
    Assignment,
    run_assignment,
    shard_worker,
)
from repro.explore.transport import WorkerSession
from repro.obs import trace as obs_trace
from repro.obs.trace import TraceDelta
from repro.symex.engine import Engine, EngineConfig

TREE_ARGS = (2, (30, 200))


def tree_setup(engine, depth, thresholds=()):
    def program(ctx):
        for i in range(depth):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
        x = ctx.fresh_byte("x")
        for threshold in thresholds:
            ctx.branch(x < threshold)
    return program, None


def steal_once_setup(engine, depth, flag, fired):
    """Raises the steal flag during the first path only."""
    def program(ctx):
        if not fired:
            fired.append(True)
            flag.set()
        for i in range(depth):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
    return program, None


def failing_setup(engine):
    raise RuntimeError("setup exploded")


def _serial(setup=tree_setup, args=TREE_ARGS, roots=None):
    engine = Engine(EngineConfig())
    program, observer = setup(engine, *args)
    return engine.explore(program, observer, roots=roots)


def _within(prefix, root):
    """True when ``prefix`` lies inside ``root``'s subtree."""
    return prefix[:len(root)] == root


def _decisions(paths):
    return sorted(p.decisions for p in paths)


def _run(tasks, session=None, worker_id=0, steal_flag=None):
    """Feed ``tasks`` (then the shutdown sentinel) to one worker loop;
    return every message it sent, in order."""
    session = session or WorkerSession(setup=tree_setup,
                                       setup_args=TREE_ARGS)
    task_queue, result_queue = queue.Queue(), queue.Queue()
    for task in tasks:
        task_queue.put(task)
    task_queue.put(None)
    shard_worker(worker_id, session, task_queue, result_queue,
                 steal_flag or threading.Event())
    messages = []
    while not result_queue.empty():
        messages.append(result_queue.get_nowait())
    return messages


def _outcomes(messages):
    return [payload for kind, _, payload in messages if kind == MSG_DONE]


@pytest.fixture
def no_tracer_left_behind():
    """A traced session activates the process-global tracer; a real
    worker process exits with it, an in-process test must not."""
    yield
    obs_trace.deactivate()


class TestTasks:
    def test_sentinel_alone_sends_nothing(self):
        assert _run([]) == []

    def test_done_message_is_tagged_with_the_worker_id(self):
        [(kind, wid, outcome)] = _run([Assignment(((),))], worker_id=7)
        assert (kind, wid) == (MSG_DONE, 7)
        assert _decisions(outcome.paths) == _decisions(_serial().paths)

    @pytest.mark.parametrize("roots", [
        ((True,), (False,)),
        ((True, True), (True, False), (False,)),
        ((False, True),),
    ], ids=["halves", "uneven", "one-quarter"])
    def test_explores_exactly_the_subtrees_of_its_roots(self, roots):
        [outcome] = _outcomes(_run([Assignment(roots)]))
        assert outcome.paths
        for path in outcome.paths:
            assert any(_within(path.decisions, root) for root in roots)
        assert _decisions(outcome.paths) == _decisions(
            _serial(roots=list(roots)).paths)

    def test_an_assignment_is_just_its_roots(self):
        with pytest.raises(TypeError):
            Assignment(((),), ((True, False),))

    def test_one_done_message_per_assignment_in_order(self):
        roots = [((True,),), ((False,),)]
        outcomes = _outcomes(_run([Assignment(r) for r in roots]))
        assert len(outcomes) == 2
        for outcome, (root,) in zip(outcomes, roots):
            assert all(_within(p.decisions, root) for p in outcome.paths)

    def test_bare_prefix_list_is_not_a_task(self):
        """``Assignment`` is the only task type."""
        [(kind, _, payload)] = _run([[()]])
        assert kind == MSG_ERROR
        assert "roots" in payload


class TestFailures:
    def test_setup_exception_travels_back_as_a_traceback(self):
        session = WorkerSession(setup=failing_setup)
        [(kind, wid, payload)] = _run([Assignment(((),))], session,
                                      worker_id=2)
        assert (kind, wid) == (MSG_ERROR, 2)
        assert payload.startswith("Traceback")
        assert "setup exploded" in payload

    def test_error_ends_the_loop(self):
        """A worker that reported an error serves nothing more: the
        coordinator aborts the run on MSG_ERROR anyway."""
        session = WorkerSession(setup=failing_setup)
        messages = _run([Assignment(((),)), Assignment(((),))], session)
        assert [kind for kind, _, _ in messages] == [MSG_ERROR]


class TestStealing:
    def test_stale_steal_flag_is_cleared_at_assignment_start(self):
        flag = threading.Event()
        flag.set()
        messages = _run([Assignment(((),))], steal_flag=flag)
        assert [kind for kind, _, _ in messages] == [MSG_DONE]

    def test_steal_request_donates_then_finishes_the_rest(self):
        flag, fired = threading.Event(), []
        session = WorkerSession(setup=steal_once_setup,
                                setup_args=(3, flag, fired))
        messages = _run([Assignment(((),))], session, steal_flag=flag)
        assert [kind for kind, _, _ in messages] == [MSG_DONATE, MSG_DONE]
        share, outcome = messages[0][2], messages[1][2]
        assert share
        donated = _serial(steal_once_setup, (3, threading.Event(), [True]),
                          roots=list(share)).paths
        full = _serial(steal_once_setup, (3, threading.Event(), [True]))
        assert _decisions(outcome.paths + donated) == _decisions(full.paths)
        assert not flag.is_set()


class TestWarmCache:
    def test_engine_persists_across_assignments(self):
        first, second = _outcomes(_run([Assignment(((),)),
                                        Assignment(((),))]))
        assert first.solver_stats.cache_misses > 0
        assert second.solver_stats.cache_misses == 0
        assert second.solver_stats.cache_hits > 0
        assert _decisions(second.paths) == _decisions(first.paths)

    def test_first_assignment_starts_from_an_empty_cache(self):
        """Nothing preloads the worker's cache: its first assignment
        books exactly the hits and misses a fresh engine books on the
        same roots."""
        roots = ((True,), (False,))
        [outcome] = _outcomes(_run([Assignment(roots)]))
        fresh = run_assignment(Engine(EngineConfig()), tree_setup,
                               TREE_ARGS, list(roots))
        assert outcome.solver_stats.cache_misses > 0
        assert (outcome.solver_stats.cache_hits,
                outcome.solver_stats.cache_misses) == (
            fresh.solver_stats.cache_hits, fresh.solver_stats.cache_misses)


class TestObservation:
    def test_untraced_session_ships_no_trace(self):
        [outcome] = _outcomes(_run([Assignment(((),))]))
        assert outcome.trace is None

    def test_traced_session_ships_a_worker_trace_delta(
            self, no_tracer_left_behind):
        session = WorkerSession(setup=tree_setup, setup_args=TREE_ARGS,
                                trace=True)
        [outcome] = _outcomes(_run([Assignment(((),))], session))
        assert isinstance(outcome.trace, TraceDelta)
        assert outcome.trace.source == "worker"
        names = {record["name"] for record in outcome.trace.records}
        assert "worker.assignment" in names
        assert "solver.cache" in names

    def test_no_heartbeats_by_default(self):
        messages = _run([Assignment(((),))])
        assert MSG_HEARTBEAT not in {kind for kind, _, _ in messages}

    def test_heartbeats_carry_gauges_across_assignments(self):
        session = WorkerSession(setup=tree_setup, setup_args=TREE_ARGS,
                                heartbeat_interval=1e-9)
        messages = _run([Assignment(((),)), Assignment(((),))], session)
        beats = [payload for kind, _, payload in messages
                 if kind == MSG_HEARTBEAT]
        paths = len(_serial().paths)
        assert [beat["paths"] for beat in beats] == list(
            range(1, 2 * paths + 1))
        assert {"worklist", "cache_hits", "cache_misses"} <= set(beats[0])
        assert [kind for kind, _, _ in messages][-1] == MSG_DONE
