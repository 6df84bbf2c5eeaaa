"""Shard-side primitives: exploration controls and the worker main loop.

A *shard* is one local worker process owning a private engine (and
therefore a private solver pipeline). It is driven by the coordinator
through a task queue and a shared result queue — see the package
docstring for the protocol, :mod:`repro.explore.transport` for
the process plumbing and :mod:`repro.explore.scheduler` for the
coordinator side.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import trace as obs_trace
from repro.obs.trace import TraceDelta
from repro.solver.solver import SolverStats
from repro.symex.engine import Engine, ExploreControl
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
MSG_ERROR = "error"
MSG_HEARTBEAT = "heartbeat"


@dataclass(frozen=True)
class Assignment:
    """One unit of work shipped to a shard worker.

    Attributes:
        roots: decision prefixes whose subtrees the worker explores to
            exhaustion. The coordinator sends one frontier prefix per
            assignment.
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
        records: the observer's record per executed path of this
            exploration, keyed by decision vector (see
            :attr:`~repro.symex.engine.ExplorationResult.records`); empty
            when the run had no observer.
        trace: the worker tracer's span records for this assignment
            (:class:`~repro.obs.trace.TraceDelta`), or None when tracing
            was off. Purely observational — stripped by the coordinator
            before merge, never part of the determinism contract.
    """

    executed: list[tuple[Prefix, str]] = field(default_factory=list)
    paths: list[PathResult] = field(default_factory=list)
    stats: object = None
    solver_stats: SolverStats = field(default_factory=SolverStats)
    records: dict[Prefix, object] = field(default_factory=dict)
    trace: TraceDelta | None = None


class FrontierControl(ExploreControl):
    """Stop exploring once the worklist holds ``target`` fork prefixes.

    The coordinator's seed phase runs under this control: the worklist
    left behind is the frontier the shard workers draw from.
    """

    def __init__(self, target: int):
        self.target = max(1, target)

    def checkpoint(self, pending: int) -> bool:
        return pending < self.target


class HeartbeatControl(ExploreControl):
    """Emit periodic liveness gauges between paths (``--progress``).

    At each between-paths checkpoint, once ``interval`` seconds have
    elapsed since the last beat, ``emit`` receives a plain dict of
    gauges: cumulative paths popped, current worklist depth, and (with
    an engine attached) the private query cache's hit/miss counters —
    enough for the coordinator to derive paths/sec and hit rates.
    Purely observational: it always returns True, so findings are
    unchanged by its presence.

    A worker keeps one heartbeat for its whole session, so its counters
    span assignments. With a zero interval it beats at every checkpoint:
    that is how in-process walks (serial runs, worker-loss recovery) feed
    the ``--progress`` meter.
    """

    def __init__(self, interval: float, emit: Callable[[dict], None],
                 engine: Engine | None = None, clock=time.monotonic):
        self.interval = interval
        self.emit = emit
        self.engine = engine
        self.clock = clock
        self.paths = 0
        self.sent = 0
        self._last = clock()

    def checkpoint(self, pending: int) -> bool:
        self.paths += 1
        now = self.clock()
        if now - self._last >= self.interval:
            self._last = now
            payload = {"paths": self.paths, "worklist": pending}
            if self.engine is not None:
                stats = self.engine.query_cache.stats
                payload["cache_hits"] = stats.hits
                payload["cache_misses"] = stats.misses
            self.sent += 1
            self.emit(payload)
        return True


def run_assignment(engine: Engine, program, observer,
                   prefixes: list[Prefix],
                   control: ExploreControl | None = None) -> ShardOutcome:
    """Explore ``prefixes`` to exhaustion on ``engine``; return the outcome.

    ``program`` and ``observer`` are the session's pair, built once on
    ``engine`` and kept across assignments along with the engine's warm
    canonical cache and frame stack, and the observer's per-prefix memo.
    The outcome's observer records come from this exploration alone;
    solver counters are reset first so it also ships an exact
    per-assignment solver delta.
    """
    engine.solver.stats = SolverStats()
    result = engine.explore(program, observer, roots=prefixes,
                            control=control)
    return ShardOutcome(executed=result.executed, paths=result.paths,
                        stats=result.stats, solver_stats=engine.solver.stats,
                        records=result.records)


def shard_worker(worker_id: int, session, task_queue, result_queue) -> None:
    """Worker process main loop (one per shard).

    ``task_queue`` yields the next :class:`Assignment` (None shuts the
    loop down) and ``result_queue`` carries ``(kind, worker_id,
    payload)`` messages back to the coordinator. The engine starts with an empty query cache; it and the
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
        control = None
        if session.heartbeat_interval:
            control = HeartbeatControl(
                session.heartbeat_interval,
                lambda payload: put_message(MSG_HEARTBEAT, payload),
                engine=engine)
        while True:
            assignment = task_queue.get()
            if assignment is None:
                return
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
