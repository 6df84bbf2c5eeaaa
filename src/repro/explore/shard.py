"""Shard-side primitives: exploration controls and the worker main loop.

A *shard* is one local worker process owning a private engine (and
therefore a private solver pipeline). It is driven by the coordinator
through a task queue, a shared result queue and a steal flag — see the
package docstring for the protocol, :mod:`repro.explore.transport` for
the process plumbing and :mod:`repro.explore.scheduler` for the
coordinator side.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import trace as obs_trace
from repro.obs.trace import TraceDelta
from repro.solver.solver import SolverStats
from repro.symex.engine import Engine, ExploreControl
from repro.symex.observers import ObserverDelta
from repro.symex.state import PathResult

#: A worker setup callable: ``setup(engine, *args) -> (program, observer)``.
#: It runs once per worker session inside the worker process (and once on
#: the coordinator for the seed phase, and once for a recovery walk), so
#: it must be picklable under the ``spawn`` start method — a module-level
#: function plus picklable args.
ShardSetup = Callable

#: Decision prefix identifying an unexplored subtree.
Prefix = tuple[bool, ...]

# result-queue message kinds (worker -> coordinator)
MSG_DONE = "done"
MSG_DONATE = "donate"
MSG_ERROR = "error"
MSG_HEARTBEAT = "heartbeat"


@dataclass(frozen=True)
class Assignment:
    """One unit of work shipped to a shard worker.

    Attributes:
        roots: decision prefixes whose subtrees the worker explores to
            exhaustion.
    """

    roots: tuple[Prefix, ...]


@dataclass
class ShardOutcome:
    """Everything one exploration (seed phase or worker assignment) produced.

    Attributes:
        executed: ``(decisions, verdict)`` per executed path, local
            execution order — the renumbering record.
        paths: the finished :class:`PathResult` list (local path ids).
        stats: this exploration's counters.
        solver_stats: the engine's solver counters accumulated during
            this exploration only (reset per assignment, so the
            coordinator folds exact deltas).
        delta: the observer's findings for this exploration alone (its
            drained :meth:`~repro.symex.observers.PathObserver.delta`),
            or None when the run had no observer.
        trace: the worker tracer's span records for this assignment
            (:class:`~repro.obs.trace.TraceDelta`), or None when tracing
            was off. Purely observational — stripped by the coordinator
            before merge, never part of the determinism contract.
    """

    executed: list[tuple[Prefix, str]] = field(default_factory=list)
    paths: list[PathResult] = field(default_factory=list)
    stats: object = None
    solver_stats: SolverStats = field(default_factory=SolverStats)
    delta: ObserverDelta | None = None
    trace: TraceDelta | None = None


class FrontierControl(ExploreControl):
    """Stop exploring once the worklist holds ``target`` fork prefixes.

    The coordinator's seed phase runs under this control: the worklist
    left behind is the frontier that gets partitioned across shards.
    """

    def __init__(self, target: int):
        self.target = max(1, target)

    def checkpoint(self, worklist: deque) -> bool:
        return len(worklist) < self.target


class StealControl(ExploreControl):
    """Donate worklist entries when the coordinator requests a steal.

    ``flag`` is a :class:`multiprocessing.Event` the coordinator sets;
    at the next between-paths checkpoint the worker pops the shallowest
    half of its worklist (the oldest forks — for DFS those are the
    biggest unexplored subtrees) and hands it to ``donate``. An empty
    donation is still sent so the coordinator knows this worker had
    nothing to give and can ask another.
    """

    def __init__(self, flag, donate: Callable[[list[Prefix]], None]):
        self.flag = flag
        self.donate = donate

    def checkpoint(self, worklist: deque) -> bool:
        if self.flag.is_set():
            self.flag.clear()
            share = [worklist.popleft() for _ in range(len(worklist) // 2)]
            self.donate(share)
        return True


class HeartbeatControl(ExploreControl):
    """Emit periodic liveness gauges between paths (``--progress``).

    At each between-paths checkpoint, once ``interval`` seconds have
    elapsed since the last beat, ``emit`` receives a plain dict of
    gauges: cumulative paths popped, current worklist depth, and (with
    an engine attached) the private query cache's hit/miss counters —
    enough for the coordinator to derive paths/sec and hit rates.
    Purely observational: it never touches the worklist and always
    returns True, so findings are unchanged by its presence.

    Chains ``inner``, so one long-lived heartbeat (its counters span
    assignments) wraps the worker's steal control. With a zero
    interval it beats at every checkpoint: that is how in-process walks
    (serial runs, worker-loss recovery) feed the ``--progress`` meter.
    """

    def __init__(self, interval: float, emit: Callable[[dict], None],
                 engine: Engine | None = None,
                 inner: ExploreControl | None = None,
                 clock=time.monotonic):
        self.interval = interval
        self.emit = emit
        self.engine = engine
        self.inner = inner
        self.clock = clock
        self.paths = 0
        self.sent = 0
        self._last = clock()

    def checkpoint(self, worklist: deque) -> bool:
        self.paths += 1
        now = self.clock()
        if now - self._last >= self.interval:
            self._last = now
            payload = {"paths": self.paths, "worklist": len(worklist)}
            if self.engine is not None:
                stats = self.engine.query_cache.stats
                payload["cache_hits"] = stats.hits
                payload["cache_misses"] = stats.misses
            self.sent += 1
            self.emit(payload)
        if self.inner is not None:
            return self.inner.checkpoint(worklist)
        return True


def run_assignment(engine: Engine, program, observer,
                   prefixes: list[Prefix],
                   control: ExploreControl | None = None) -> ShardOutcome:
    """Explore ``prefixes`` to exhaustion on ``engine``; return the outcome.

    ``program`` and ``observer`` are the session's pair, built once on
    ``engine`` and kept across assignments along with the engine's warm
    canonical cache and frame stack, and the observer's per-prefix memo.
    The observer's delta drains, so the outcome carries exactly this
    assignment's findings; solver counters are reset first so it also
    ships an exact per-assignment solver delta.
    """
    engine.solver.stats = SolverStats()
    result = engine.explore(program, observer, roots=prefixes,
                            control=control)
    delta = None
    if observer is not None:
        delta = observer.delta()
    return ShardOutcome(executed=result.executed, paths=result.paths,
                        stats=result.stats, solver_stats=engine.solver.stats,
                        delta=delta)


def shard_worker(worker_id: int, session, task_queue, result_queue,
                 steal_flag) -> None:
    """Worker process main loop (one per shard).

    ``task_queue`` yields the next :class:`Assignment` (None shuts the
    loop down), ``result_queue`` carries ``(kind, worker_id, payload)``
    messages back to the coordinator, and ``steal_flag`` is the
    ``multiprocessing.Event`` the coordinator raises to ask for a
    donation. The engine starts with an empty query cache; it and the
    session's ``(program, observer)`` pair, built once before the first
    assignment with the coordinator's seeded observer memo adopted
    (:meth:`WorkerSession.open`), persist across assignments, so the
    canonical cache, the frame stack and the observer's per-prefix
    answers stay warm. Any exception is reported as an
    :data:`MSG_ERROR` message instead of dying silently.

    Args:
        session: a :class:`~repro.explore.transport.WorkerSession`.
    """
    def put_message(kind, payload):
        result_queue.put((kind, worker_id, payload))

    try:
        engine = Engine(session.engine_config)
        program, observer = session.open(engine)
        tracer = None
        if session.trace:
            # A forked worker inherits the coordinator's tracer binding;
            # replace it with a fresh worker-sourced one.
            obs_trace.deactivate()
            tracer = obs_trace.activate(source="worker")
        control = StealControl(
            steal_flag, lambda share: put_message(MSG_DONATE, share))
        if session.heartbeat_interval:
            control = HeartbeatControl(
                session.heartbeat_interval,
                lambda payload: put_message(MSG_HEARTBEAT, payload),
                engine=engine, inner=control)
        while True:
            assignment = task_queue.get()
            if assignment is None:
                return
            # A steal request that raced a previous DONE must not leak
            # into this assignment.
            steal_flag.clear()
            roots = list(assignment.roots)
            if tracer is None:
                outcome = run_assignment(engine, program, observer, roots,
                                         control)
            else:
                with tracer.span("worker.assignment", roots=len(roots)):
                    outcome = run_assignment(engine, program, observer,
                                             roots, control)
                outcome.trace = tracer.take_delta()
            put_message(MSG_DONE, outcome)
    except Exception:  # pragma: no cover - exercised via scheduler tests
        put_message(MSG_ERROR, traceback.format_exc())
