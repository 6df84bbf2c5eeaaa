"""The shard worker's main loop, driven in-process.

:func:`~repro.explore.shard.shard_worker` normally runs in a forked
process behind :class:`~repro.explore.transport.LocalTransport`. Here it
runs in the test's own thread over plain ``queue.Queue`` objects, so
every message it sends can be inspected in
order, without process scheduling in the way.
"""

import queue

import pytest

from repro.achilles.server_analysis import _shard_setup
from repro.explore.shard import (
    MSG_DONE,
    MSG_ERROR,
    MSG_HEARTBEAT,
    Assignment,
    FrontierControl,
    run_assignment,
    shard_worker,
)
from repro.explore.transport import WorkerSession
from repro.obs import trace as obs_trace
from repro.obs.trace import TraceDelta
from repro.symex.engine import BFS, Engine, EngineConfig
from repro.symex.observers import ObserverDelta
from repro.symex.state import canonical_key

TREE_ARGS = (2, (30, 200))


def tree_setup(engine, depth, thresholds=()):
    def program(ctx):
        for i in range(depth):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
        x = ctx.fresh_byte("x")
        for threshold in thresholds:
            ctx.branch(x < threshold)
    return program, None


def failing_setup(engine):
    raise RuntimeError("setup exploded")


def counting_setup(engine, calls, depth):
    """``tree_setup`` that notes every call in ``calls``."""
    calls.append(engine)
    return tree_setup(engine, depth)


class _AskedEngine:
    """Stands between an observer and its engine, recording the path
    condition of every feasibility question the observer poses."""

    def __init__(self, engine):
        self.engine = engine
        self.asked = []

    def feasibility(self, prefix, probe=()):
        self.asked.append(prefix)
        return self.engine.feasibility(prefix, probe)

    def __getattr__(self, name):
        return getattr(self.engine, name)


def recording_setup(engine, sink, *args):
    """The Trojan search's shard setup, with the observer's engine
    questions recorded and the observer appended to ``sink``."""
    program, observer = _shard_setup(engine, *args)
    observer._engine = _AskedEngine(engine)
    sink.append(observer)
    return program, observer


class _SnapshotQueue(queue.Queue):
    """A result queue that also notes ``probe()`` as each message is
    sent, so per-assignment state of the worker can be read back."""

    def __init__(self, probe):
        super().__init__()
        self.probe = probe
        self.seen = []

    def put(self, item, *args, **kwargs):
        self.seen.append(self.probe())
        super().put(item, *args, **kwargs)


def _serial(setup=tree_setup, args=TREE_ARGS, roots=None):
    engine = Engine(EngineConfig())
    program, observer = setup(engine, *args)
    return engine.explore(program, observer, roots=roots)


def _within(prefix, root):
    """True when ``prefix`` lies inside ``root``'s subtree."""
    return prefix[:len(root)] == root


def _decisions(paths):
    return sorted(p.decisions for p in paths)


def _run(tasks, session=None, worker_id=0, result_queue=None):
    """Feed ``tasks`` (then the shutdown sentinel) to one worker loop;
    return every message it sent, in order."""
    session = session or WorkerSession(setup=tree_setup,
                                       setup_args=TREE_ARGS)
    task_queue = queue.Queue()
    result_queue = result_queue or queue.Queue()
    for task in tasks:
        task_queue.put(task)
    task_queue.put(None)
    shard_worker(worker_id, session, task_queue, result_queue)
    messages = []
    while not result_queue.empty():
        messages.append(result_queue.get_nowait())
    return messages


def _outcomes(messages):
    return [payload for kind, _, payload in messages if kind == MSG_DONE]


@pytest.fixture(scope="module")
def toy_args():
    """``_shard_setup`` arguments for the toy system's Trojan search."""
    from repro.achilles import Achilles, AchillesConfig
    from repro.systems.toy import TOY_LAYOUT, toy_client, toy_server

    achilles = Achilles(AchillesConfig(layout=TOY_LAYOUT))
    predicates = achilles.extract_clients({"toy": toy_client})
    return (toy_server, predicates, achilles.server_msg, None, "msg", True)


def _toy_seed(toy_args):
    """The coordinator's seed phase on the toy search: its observer,
    delta and canonically sorted frontier."""
    engine = Engine(EngineConfig())
    program, observer = _shard_setup(engine, *toy_args)
    seed = engine.explore(program, observer, control=FrontierControl(4),
                          order=BFS)
    return observer, observer.delta(), sorted(seed.frontier,
                                              key=canonical_key)


def _witnesses(delta):
    """``(decisions, witness)`` per finding of a delta — what a finding
    says, without the clock it was made at."""
    return [(record.finding.decisions, record.finding.witness)
            for _, record in delta.per_path if record.finding is not None]


def _memo_prefixes(memo):
    """The path condition of every non-root node of an exported trie."""
    prefixes = [()]
    for parent, constraint, *_ in memo[1:]:
        prefixes.append(prefixes[parent] + (constraint,))
    return set(prefixes[1:])


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

    def test_setup_failure_is_reported_before_any_assignment(self):
        """Setup runs when the session opens, so a broken setup is
        reported even to a worker that is only ever told to stop."""
        [(kind, _, payload)] = _run([], WorkerSession(setup=failing_setup))
        assert kind == MSG_ERROR
        assert "setup exploded" in payload

    def test_error_ends_the_loop(self):
        """A worker that reported an error serves nothing more: the
        coordinator aborts the run on MSG_ERROR anyway."""
        session = WorkerSession(setup=failing_setup)
        messages = _run([Assignment(((),)), Assignment(((),))], session)
        assert [kind for kind, _, _ in messages] == [MSG_ERROR]


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
        engine = Engine(EngineConfig())
        fresh = run_assignment(engine, *tree_setup(engine, *TREE_ARGS),
                               list(roots))
        assert outcome.solver_stats.cache_misses > 0
        assert (outcome.solver_stats.cache_hits,
                outcome.solver_stats.cache_misses) == (
            fresh.solver_stats.cache_hits, fresh.solver_stats.cache_misses)


class TestOneObserverPerSession:
    def test_setup_runs_once_per_session(self):
        calls = []
        session = WorkerSession(setup=counting_setup, setup_args=(calls, 2))
        roots = [((True,),), ((False,),), ((),)]
        outcomes = _outcomes(_run([Assignment(r) for r in roots], session))
        assert len(outcomes) == 3
        assert len(calls) == 1

    def test_decided_prefixes_are_not_asked_again(self, toy_args):
        """A second assignment over the prefixes the first one decided
        is answered from the session observer's trie: the observer asks
        its engine nothing, and finds the same."""
        sink = []
        session = WorkerSession(setup=recording_setup,
                                setup_args=(sink, *toy_args))
        results = _SnapshotQueue(
            lambda: sum(len(observer._engine.asked) for observer in sink))
        first, second = _outcomes(_run(
            [Assignment(((),)), Assignment(((),))], session,
            result_queue=results))
        asked_first, asked_both = results.seen
        assert asked_first > 0
        assert _witnesses(first.delta)
        assert asked_both == asked_first
        assert second.executed == first.executed
        assert _witnesses(second.delta) == _witnesses(first.delta)

    def test_each_delta_holds_only_its_own_paths(self, toy_args):
        serial = Engine(EngineConfig())
        program, observer = _shard_setup(serial, *toy_args)
        serial.explore(program, observer)

        _, seed_delta, frontier = _toy_seed(toy_args)
        half = len(frontier) // 2
        outcomes = _outcomes(_run(
            [Assignment(tuple(frontier[:half])),
             Assignment(tuple(frontier[half:]))],
            WorkerSession(setup=_shard_setup, setup_args=toy_args)))
        for outcome in outcomes:
            own = [decisions for decisions, _ in outcome.executed]
            assert [d for d, _ in outcome.delta.per_path] == own
            assert outcome.delta.counters["paths_seen"] == len(own)
        merged = ObserverDelta.merge(
            [seed_delta] + [outcome.delta for outcome in outcomes])
        assert merged.counters == {"paths_seen": observer.paths_seen,
                                   "paths_pruned": observer.paths_pruned}
        assert _witnesses(merged) == [(f.decisions, f.witness)
                                      for f in observer.findings]

    def test_seeded_trie_spares_the_worker_every_seeded_prefix(
            self, toy_args):
        coordinator, _, frontier = _toy_seed(toy_args)
        memo = coordinator.export_memo()
        seeded = _memo_prefixes(memo)
        assert seeded

        def walk(observer_memo):
            sink = []
            session = WorkerSession(setup=recording_setup,
                                    setup_args=(sink, *toy_args),
                                    observer_memo=observer_memo)
            [outcome] = _outcomes(_run([Assignment(tuple(frontier))],
                                       session))
            return outcome, set(sink[0]._engine.asked)

        adopted, asked = walk(memo)
        cold, asked_cold = walk(None)
        assert not asked & seeded
        assert asked_cold & seeded, "a cold worker decides them itself"
        assert adopted.executed == cold.executed
        assert _witnesses(adopted.delta) == _witnesses(cold.delta)


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
