"""The coordinator: seeds shards, hands out the frontier, merges outcomes.

:class:`ShardScheduler` owns the whole sharded run. It explores the top
of the tree in-process to grow a frontier of fork prefixes, then hands
that frontier out one prefix per assignment, in canonical order: each
idle worker gets the next pending prefix, and every result a worker
reports earns it the next one, until the frontier drains. Which worker
explores which prefix depends on timing, but no prefix is ever split or
moved, so every worker's solver work depends only on the prefixes it
drew. Outcomes merge deterministically regardless of this scheduling —
see :mod:`repro.explore.merge`.

The workers are ``multiprocessing`` processes on this machine
(:class:`~repro.explore.transport.LocalTransport`). The scheduler speaks
only the :class:`~repro.explore.transport.Transport` interface, so a
fault-injecting wrapper or a scripted test transport can stand in for
the real one.

Worker loss is a policy decision (``on_worker_loss``): the default
``"fail"`` raises a :class:`SymexError` naming the dead worker and its
assignment; ``"recover"`` tears the fleet down, drops every shard
outcome received so far and walks the whole seeded frontier in-process.
Because every path replays from the root and the merge renumbers
canonically, that walk yields byte-identical findings — recovery costs
wall clock, never correctness. A loss costs the fleet's time up to it
plus one serial walk of the frontier, and nothing tracks who explored
what. On the FSP subset in ``benchmarks/bench_transport.py`` (2-core
host), a loss before or after a worker's first result finishes in about
the serial time: a worker's first result is one frontier prefix, so
little fleet work is lost with it.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.errors import SymexError
from repro.explore.merge import merge_outcomes
from repro.explore.shard import (
    MSG_DONE,
    MSG_ERROR,
    MSG_HEARTBEAT,
    Assignment,
    FrontierControl,
    HeartbeatControl,
    Prefix,
    ShardOutcome,
    ShardSetup,
    run_assignment,
)
from repro.obs import trace as obs_trace
from repro.obs.log import get_logger, log_event
from repro.explore.transport import LocalTransport, Transport, WorkerSession
from repro.solver.solver import SolverStats
from repro.symex.engine import BFS, Engine, EngineConfig, ExplorationResult
from repro.symex.observers import PathObserver
from repro.symex.state import canonical_key

#: Frontier prefixes harvested per shard before workers start. Workers
#: draw them one at a time, so a few per worker is what lets a worker
#: that drew a small subtree take another instead of going idle.
DEFAULT_SEED_FACTOR = 4

#: Coordinator poll interval while waiting on worker messages (seconds).
_POLL_SECONDS = 0.02

#: Consecutive empty polls with a non-responding worker before the death
#: verdict — grace for a just-dead worker's last in-flight message.
_DEATH_GRACE_POLLS = 5

#: Seconds between worker liveness-gauge heartbeats when tracing or
#: ``--progress`` turns them on.
DEFAULT_HEARTBEAT_SECONDS = 0.25

_log = get_logger("explore")


@dataclass
class ShardedExploration:
    """Result of one sharded exploration run.

    Attributes:
        exploration: deterministic merged result (canonical path ids,
            summed counters, ``stats.elapsed_seconds`` = coordinator
            wall clock for the whole run).
        observer: the coordinator's observer, with findings restored
            from the canonical merge of every shard's delta (None when
            the run had no observer).
        path_ids: decision vector -> canonical path id for every
            executed path.
        worker_solver_stats: solver counters accumulated inside shard
            workers, folded in canonical order (coordinator-side solver
            work stays on the coordinator engine's own stats).
        shards: worker count the run was configured with.
        steals: always 0. The coordinator moves no work between
            workers; the field stays only because the repository's
            benchmark reads it.
        worker_failures: workers found dead during the run (0 on a
            fault-free run; only ever non-zero with
            ``on_worker_loss="recover"`` — a death under ``"fail"``
            raises instead).
        recovery_seconds: wall clock from the loss's detection to the
            end of the in-process walk that replaced the fleet.
        worker_traces: per-worker :class:`~repro.obs.trace.TraceDelta`
            lists (in per-worker arrival order) collected from traced
            result frames — empty unless the run traced. Observational
            only; stripped from outcomes before the deterministic merge.
    """

    exploration: ExplorationResult
    observer: PathObserver | None
    path_ids: dict[Prefix, int]
    worker_solver_stats: SolverStats
    shards: int
    steals: int = 0
    worker_failures: int = 0
    recovery_seconds: float = 0.0
    worker_traces: dict[int, list] = field(default_factory=dict)


class ShardScheduler:
    """Decision-prefix sharded exploration across a worker fleet.

    Args:
        setup: module-level callable building one shard's program and
            observer: ``setup(engine, *setup_args) -> (program,
            observer)``. Runs once on the coordinator engine (seed
            phase), once per worker session (the pair serves every
            assignment of that worker) and once for a recovery walk.
            The observer may be None (plain exploration); otherwise it
            must be delta-capable (:meth:`PathObserver.delta`). An
            observer that exports a memo after the seed phase
            (:meth:`PathObserver.export_memo`) has it adopted by every
            worker's and the recovery walk's observer.
        setup_args: picklable arguments for ``setup``.
        shards: worker count (>= 1).
        engine: coordinator engine for the seed phase; defaults to a
            fresh ``Engine(engine_config)``. Its query cache is used
            only above the frontier — workers (and a recovery walk)
            build private engines, with empty caches, from
            ``engine_config``.
        engine_config: exploration limits for workers (defaults to the
            coordinator engine's config). Note the ``max_paths`` cap
            applies per assignment in a sharded run, which means per
            frontier prefix (plus once to the seed phase); byte parity
            with the serial engine is only guaranteed for runs that
            drain the tree below the cap.
        seed_factor: frontier prefixes to grow per shard before the
            workers start.
        transport: the :class:`~repro.explore.transport.Transport`
            to drive the workers through; None (the default) means a
            fresh :class:`~repro.explore.transport.LocalTransport`.
            Tests pass fault-injecting or scripted transports here.
        on_worker_loss: ``"fail"`` (default) raises on a silently dead
            worker, naming the lost assignment. ``"recover"`` aborts the
            fleet and explores the whole seeded frontier in-process;
            findings stay byte-identical either way. A worker that
            reports a Python exception (``MSG_ERROR``) always fails the
            run — the bug is deterministic, re-running it would just
            crash again.
        trace: ship tracing-enabled sessions to the workers; their span
            deltas come home on result frames and land in
            :attr:`ShardedExploration.worker_traces`. Purely
            observational — findings are byte-identical either way.
        progress: an optional :class:`~repro.obs.progress.ProgressMeter`
            fed from heartbeats and coordinator state (the ``--progress``
            status line).

    Workers send liveness-gauge heartbeats every
    :data:`DEFAULT_HEARTBEAT_SECONDS` when tracing or a progress meter
    is on, and none otherwise.
    """

    def __init__(self, setup: ShardSetup, setup_args: tuple = (), *,
                 shards: int = 2, engine: Engine | None = None,
                 engine_config: EngineConfig | None = None,
                 seed_factor: int = DEFAULT_SEED_FACTOR,
                 transport: Transport | None = None,
                 on_worker_loss: str = "fail",
                 trace: bool = False,
                 progress=None):
        if shards < 1:
            raise SymexError(f"shard count must be >= 1, got {shards}")
        if on_worker_loss not in ("fail", "recover"):
            raise SymexError(
                f"on_worker_loss must be 'fail' or 'recover', "
                f"got {on_worker_loss!r}")
        self.setup = setup
        self.setup_args = tuple(setup_args)
        self.shards = shards
        self.engine = engine or Engine(engine_config)
        self.engine_config = engine_config or self.engine.config
        self.seed_factor = max(1, seed_factor)
        self.transport = (LocalTransport() if transport is None
                          else transport)
        self.on_worker_loss = on_worker_loss
        self.trace = trace
        self.heartbeat_interval = (DEFAULT_HEARTBEAT_SECONDS
                                   if (trace or progress is not None)
                                   else 0.0)
        self.progress = progress
        self._worker_failures = 0
        self._recovery_seconds = 0.0
        self._worker_traces: dict[int, list] = {}

    # -- observability seams -------------------------------------------------

    @staticmethod
    def _span(name: str, **attrs):
        tracer = obs_trace.active
        if tracer is None:
            return nullcontext()
        return tracer.span(name, **attrs)

    @staticmethod
    def _event(name: str, **attrs) -> None:
        tracer = obs_trace.active
        if tracer is not None:
            tracer.event(name, **attrs)

    # -- phases --------------------------------------------------------------

    def run(self) -> ShardedExploration:
        """Seed, fan out until the frontier drains, merge."""
        started = time.perf_counter()
        self._worker_failures = 0
        self._recovery_seconds = 0.0
        self._worker_traces = {}
        program, observer = self.setup(self.engine, *self.setup_args)
        outcomes, frontier = self._seed(program, observer)
        if frontier:
            memo = observer.export_memo() if observer is not None else None
            outcomes.extend(self._fan_out(frontier, memo))

        with self._span("coordinator.merge", outcomes=len(outcomes)):
            merged = merge_outcomes(outcomes)
        merged.exploration.stats.elapsed_seconds = (
            time.perf_counter() - started)
        if observer is not None and merged.delta is not None:
            observer.restore(merged.delta, merged.path_ids)
        return ShardedExploration(
            exploration=merged.exploration, observer=observer,
            path_ids=merged.path_ids,
            worker_solver_stats=merged.solver_stats, shards=self.shards,
            worker_failures=self._worker_failures,
            recovery_seconds=self._recovery_seconds,
            worker_traces=self._worker_traces)

    def _seed(self, program, observer):
        """Seed phase: explore the tree top, harvest the frontier."""
        # Seed breadth-first regardless of the configured order: a DFS
        # worklist only ever holds one open sibling per level (too narrow
        # a frontier on deep trees), while BFS's worklist is the breadth
        # frontier itself. The explored tree is order-invariant, so the
        # canonical merge still reproduces the configured-order output.
        with self._span("coordinator.seed",
                        target=self.shards * self.seed_factor):
            seed = self.engine.explore(
                program, observer,
                control=FrontierControl(self.shards * self.seed_factor),
                order=BFS)
        seed_delta = None
        if observer is not None:
            seed_delta = observer.delta()
            if seed_delta is None:
                raise SymexError(
                    f"{type(observer).__name__} is not delta-capable: "
                    "sharded exploration needs PathObserver.delta() to "
                    "return an ObserverDelta")
        # Coordinator solver work is already booked on self.engine's own
        # stats; the seed outcome ships an empty delta so it is not
        # double-counted by the merge.
        seed_outcome = ShardOutcome(executed=seed.executed, paths=seed.paths,
                                    stats=seed.stats, delta=seed_delta)
        return [seed_outcome], sorted(seed.frontier, key=canonical_key)

    # -- worker fleet --------------------------------------------------------

    def _fan_out(self, frontier: list[Prefix],
                 memo: object) -> list[ShardOutcome]:
        """Explore the frontier on the fleet, one prefix per assignment.

        ``memo`` is the seeded observer memo every worker starts from.
        """
        session = WorkerSession(
            setup=self.setup, setup_args=self.setup_args,
            engine_config=self.engine_config, observer_memo=memo,
            trace=self.trace, heartbeat_interval=self.heartbeat_interval)
        self.transport.start(self.shards, session)
        try:
            outcomes, dead = self._coordinate(frontier)
        except BaseException:
            # Aborting (coordinator crash, ^C): every in-flight
            # assignment is doomed anyway, so don't grant the graceful
            # drain window — tear the fleet down immediately.
            self.transport.abort()
            raise
        if dead:
            outcomes = [self._recover(dead, frontier, session)]
        else:
            self.transport.stop()
        return outcomes

    def _coordinate(self, frontier: list[Prefix],
                    ) -> tuple[list[ShardOutcome], list[int]]:
        """Run the fleet until the frontier is drained or a worker is lost.

        Returns the shard outcomes and the workers found dead (empty on a
        clean run). A loss under ``"fail"`` raises here, while the dead
        workers can still be described.
        """
        transport = self.transport
        pending: deque[Prefix] = deque(frontier)
        idle = set(range(self.shards))
        # The prefix each busy worker holds — what the fail-mode error
        # names when a worker dies.
        assigned: dict[int, Prefix] = {}
        outcomes: list[ShardOutcome] = []
        dead_polls = 0
        dead = self._assign(pending, idle, assigned)

        while not dead and (len(idle) < self.shards or pending):
            if self.progress is not None:
                self.progress.maybe_render(
                    workers=self.shards, busy=self.shards - len(idle),
                    pending=len(pending))
            message = transport.recv(_POLL_SECONDS)
            if message is None:
                # Liveness: a worker that died without reporting (OOM
                # kill, hard crash — MSG_ERROR only covers Python
                # exceptions) would leave this loop polling
                # forever. A few empty polls of grace let a just-dead
                # worker's last in-flight message drain first.
                silent = [wid for wid in range(self.shards)
                          if wid not in idle and not transport.alive(wid)]
                dead_polls = dead_polls + 1 if silent else 0
                if dead_polls >= _DEATH_GRACE_POLLS:
                    dead = silent
                    break
                continue
            dead_polls = 0
            kind, wid, payload = message
            if kind == MSG_HEARTBEAT:
                # Live gauges only: consumed for progress/trace, never
                # merged — losing or reordering heartbeats cannot change
                # the run's output.
                self._note_heartbeat(wid, payload)
                continue
            if kind == MSG_DONE:
                trace_delta = getattr(payload, "trace", None)
                if trace_delta is not None:
                    # Observational payload: collect per worker (arrival
                    # order per worker is deterministic — result frames
                    # are FIFO) and strip before the merge.
                    self._worker_traces.setdefault(wid, []).append(
                        trace_delta)
                    payload.trace = None
                outcomes.append(payload)
                idle.add(wid)
                assigned.pop(wid, None)
                dead = self._assign(pending, idle, assigned)
            elif kind == MSG_ERROR:
                raise SymexError(
                    f"shard worker {transport.describe(wid)} failed:\n"
                    f"{payload}")
            else:  # pragma: no cover - internal protocol
                raise SymexError(f"unknown shard message kind {kind!r}")

        if dead:
            log_event(_log, logging.WARNING, "worker.lost",
                      workers=",".join(self._describe_safe(w) for w in dead),
                      policy=self.on_worker_loss)
            if self.on_worker_loss == "fail":
                raise SymexError(self._death_report(dead, assigned))
        return outcomes, dead

    def _note_heartbeat(self, wid: int, payload) -> None:
        """Feed a worker heartbeat to the progress meter and the trace."""
        if self.progress is not None:
            self.progress.heartbeat(wid, payload)
        self._event("worker.heartbeat", wid=wid, **payload)

    # -- recovery ------------------------------------------------------------

    def _recover(self, dead: list[int], frontier: list[Prefix],
                 session: WorkerSession) -> ShardOutcome:
        """Replace the fleet with one in-process walk of the frontier.

        The walk opens the fleet's ``session`` on a fresh engine, so its
        observer starts from the seeded memo as a worker's does. The
        returned outcome stands in for every shard outcome received so
        far, and the worker trace deltas are dropped with them, so the
        report and the trace count exactly the seed phase plus this walk.
        """
        started = time.perf_counter()
        self._worker_failures = len(dead)
        self.transport.abort()
        self._worker_traces = {}
        with self._span("coordinator.recover", workers=len(dead),
                        roots=len(frontier)):
            engine = Engine(self.engine_config)
            control = None
            meter = self.progress
            if meter is not None:
                meter.fleet_lost(len(dead))
                control = HeartbeatControl(
                    0.0, lambda beat: meter.maybe_render(**beat),
                    engine=engine)
            program, observer = session.open(engine)
            outcome = run_assignment(engine, program, observer, frontier,
                                     control=control)
        self._recovery_seconds = time.perf_counter() - started
        log_event(_log, logging.WARNING, "worker.recovered",
                  workers=len(dead), roots=len(frontier),
                  recovery_seconds=self._recovery_seconds)
        return outcome

    def _describe_safe(self, wid: int) -> str:
        """``transport.describe`` that cannot fail on a dying worker
        (loss logs race worker death)."""
        try:
            return self.transport.describe(wid)
        except Exception:  # pragma: no cover - transport-specific races
            return f"worker {wid}"

    def _death_report(self, dead: list[int],
                      assigned: dict[int, Prefix]) -> str:
        """Name the dead workers and the prefixes that died with them."""
        lines = []
        for wid in dead:
            rendered = "".join("T" if d else "F" for d in assigned[wid])
            lines.append(f"  {self.transport.describe(wid)} holding prefix "
                         f"[{rendered or '<root>'}]")
        detail = "\n".join(lines)
        return ("shard worker(s) died without reporting a result "
                f"(killed? out of memory?); the lost assignment(s):\n"
                f"{detail}\n"
                "sharded exploration cannot complete "
                "(on_worker_loss='recover' finishes the walk in-process "
                "instead)")

    # -- dispatch ------------------------------------------------------------

    def _assign(self, pending: deque, idle: set[int],
                assigned: dict[int, Prefix]) -> list[int]:
        """Give each idle worker the next pending prefix, in queue order.

        Returns the worker whose assignment could not be delivered, or
        an empty list. Under ``on_worker_loss="fail"`` the transport
        error propagates instead.
        """
        for wid in sorted(idle)[:len(pending)]:
            prefix = pending.popleft()
            idle.discard(wid)
            assigned[wid] = prefix
            try:
                with self._span("coordinator.assign", wid=wid):
                    self.transport.assign(wid, Assignment(roots=(prefix,)))
            except SymexError:
                if self.on_worker_loss == "fail":
                    raise
                return [wid]
        return []
