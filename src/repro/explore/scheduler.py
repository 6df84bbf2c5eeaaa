"""The coordinator: seeds shards, brokers stealing, merges outcomes.

:class:`ShardScheduler` owns the whole sharded run. It explores the top
of the tree in-process to grow a frontier of fork prefixes, partitions
that frontier across ``shards`` workers, then sits in a message loop
re-balancing work: a worker that drains its prefixes goes idle, and the
coordinator raises the steal flag of a loaded worker, whose next
checkpoint donates the shallowest half of its worklist back for
reassignment. Outcomes merge deterministically regardless of any of this
scheduling — see :mod:`repro.explore.merge`.

The workers are ``multiprocessing`` processes on this machine
(:class:`~repro.explore.transport.LocalTransport`). The scheduler speaks
only the :class:`~repro.explore.transport.Transport` interface, so a
fault-injecting wrapper or a scripted test transport can stand in for
the real one.

Worker loss is a policy decision (``on_worker_loss``): the default
``"fail"`` raises a :class:`SymexError` naming the dead worker and its
assignment; ``"recover"`` discards the dead worker's partial results,
reclaims its decision prefixes (minus the subtrees it had already
donated — those live on elsewhere), and reassigns them to a respawned
replacement or the surviving workers. Because every path replays from
the root and the merge renumbers canonically, a re-run assignment yields
byte-identical findings — recovery costs wall clock, never correctness.
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
    MSG_DONATE,
    MSG_DONE,
    MSG_ERROR,
    MSG_HEARTBEAT,
    Assignment,
    FrontierControl,
    Prefix,
    ShardOutcome,
    ShardSetup,
    extends,
)
from repro.obs import trace as obs_trace
from repro.obs.log import get_logger, log_event
from repro.explore.transport import LocalTransport, Transport, WorkerSession
from repro.solver.solver import SolverStats
from repro.symex.engine import BFS, Engine, EngineConfig, ExplorationResult
from repro.symex.observers import PathObserver
from repro.symex.state import canonical_key

#: Frontier prefixes harvested per shard before workers start; a few
#: subtrees per worker gives the first round of load balancing for free.
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
        steals: successful (non-empty) worklist donations brokered by
            the coordinator — a load-balancing diagnostic, not part of
            the deterministic output.
        cache_entries_shipped: feasibility entries in the query-cache
            snapshot shipped to each worker at fan-out (0 when shipping
            was disabled or the run never fanned out).
        worker_failures: workers declared dead during the run (0 on a
            fault-free run; only ever non-zero with
            ``on_worker_loss="recover"`` — a death under ``"fail"``
            raises instead).
        prefixes_reassigned: decision prefixes reclaimed from dead
            workers and re-run elsewhere.
        recovery_seconds: wall clock spent inside recovery (reclaiming,
            respawning, re-dispatching) — the overhead a fault cost.
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
    cache_entries_shipped: int = 0
    worker_failures: int = 0
    prefixes_reassigned: int = 0
    recovery_seconds: float = 0.0
    worker_traces: dict[int, list] = field(default_factory=dict)


@dataclass
class _Booking:
    """Coordinator-side record of one outstanding assignment.

    ``exclude`` grows as the holder donates: a donated subtree belongs
    to whoever the coordinator reassigns it to, so if the holder dies
    its region is re-run *minus* every donation.
    """

    roots: list[Prefix]
    exclude: list[Prefix] = field(default_factory=list)


class ShardScheduler:
    """Decision-prefix sharded exploration across a worker fleet.

    Args:
        setup: module-level callable building one shard's program and
            observer: ``setup(engine, *setup_args) -> (program,
            observer)``. Runs once on the coordinator engine (seed
            phase) and once per assignment inside each worker. The
            observer may be None (plain exploration); otherwise it must
            be delta-capable (:meth:`PathObserver.delta`).
        setup_args: picklable arguments for ``setup``.
        shards: worker count (>= 1).
        engine: coordinator engine for the seed phase; defaults to a
            fresh ``Engine(engine_config)``. Its query cache is used
            only above the frontier — workers build private engines
            from ``engine_config``.
        engine_config: exploration limits for workers (defaults to the
            coordinator engine's config). Note the ``max_paths`` cap
            degrades to per-worker granularity in a sharded run; byte
            parity with the serial engine is only guaranteed for runs
            that drain the tree below the cap.
        seed_factor: frontier prefixes to grow per shard before
            partitioning.
        transport: the :class:`~repro.explore.transport.Transport`
            to drive the workers through; None (the default) means a
            fresh :class:`~repro.explore.transport.LocalTransport`.
            Tests pass fault-injecting or scripted transports here.
        ship_cache: ship a read-only snapshot of the coordinator
            engine's canonical query cache (phase-1 + seed-phase
            feasibility answers) to every worker at fan-out, so shards
            do not re-solve queries a sibling phase already answered.
            Sound (booleans are pure functions of the canonical query);
            disable only to measure the overhead it removes.
        on_worker_loss: ``"fail"`` (default) raises on a silently dead
            worker, naming the lost assignment — exactly the
            pre-recovery semantics. ``"recover"`` reclaims the dead
            worker's prefixes and reassigns them (to a respawned
            replacement when the transport can provide one, else to the
            survivors); findings stay byte-identical either way. A
            worker that reports a Python exception (``MSG_ERROR``)
            always fails the run — the bug is deterministic, re-running
            it would just crash again.
        max_worker_retries: respawn attempts per worker slot across the
            run before that slot is written off and its work spread over
            the survivors. The run only fails when no worker is left.
        trace: ship tracing-enabled sessions to the workers; their span
            deltas come home on result frames and land in
            :attr:`ShardedExploration.worker_traces`. Purely
            observational — findings are byte-identical either way.
        heartbeat_interval: seconds between worker liveness-gauge
            heartbeats; 0 disables them. Tracing or an attached progress
            meter defaults this to :data:`DEFAULT_HEARTBEAT_SECONDS`.
        progress: an optional :class:`~repro.obs.progress.ProgressMeter`
            fed from heartbeats and coordinator state (the ``--progress``
            status line).
    """

    def __init__(self, setup: ShardSetup, setup_args: tuple = (), *,
                 shards: int = 2, engine: Engine | None = None,
                 engine_config: EngineConfig | None = None,
                 seed_factor: int = DEFAULT_SEED_FACTOR,
                 transport: Transport | None = None,
                 ship_cache: bool = True,
                 on_worker_loss: str = "fail",
                 max_worker_retries: int = 2,
                 trace: bool = False,
                 heartbeat_interval: float | None = None,
                 progress=None):
        if shards < 1:
            raise SymexError(f"shard count must be >= 1, got {shards}")
        if on_worker_loss not in ("fail", "recover"):
            raise SymexError(
                f"on_worker_loss must be 'fail' or 'recover', "
                f"got {on_worker_loss!r}")
        if max_worker_retries < 0:
            raise SymexError(
                f"max_worker_retries must be >= 0, got {max_worker_retries}")
        self.setup = setup
        self.setup_args = tuple(setup_args)
        self.shards = shards
        self.engine = engine or Engine(engine_config)
        self.engine_config = engine_config or self.engine.config
        self.seed_factor = max(1, seed_factor)
        self.transport = (LocalTransport() if transport is None
                          else transport)
        self.ship_cache = ship_cache
        self.on_worker_loss = on_worker_loss
        self.max_worker_retries = max_worker_retries
        self.trace = trace
        if heartbeat_interval is None:
            heartbeat_interval = (DEFAULT_HEARTBEAT_SECONDS
                                  if (trace or progress is not None) else 0.0)
        self.heartbeat_interval = heartbeat_interval
        self.progress = progress
        self._worker_failures = 0
        self._prefixes_reassigned = 0
        self._recovery_seconds = 0.0
        self._worker_traces: dict[int, list] = {}
        self._fleet_gauges: dict[int, dict] = {}

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
        """Seed, fan out, steal until drained, merge."""
        started = time.perf_counter()
        self._worker_failures = 0
        self._prefixes_reassigned = 0
        self._recovery_seconds = 0.0
        self._worker_traces = {}
        self._fleet_gauges = {}
        program, observer = self.setup(self.engine, *self.setup_args)
        outcomes, entries = self._seed(program, observer)
        steals = 0
        shipped = 0
        if entries:
            shard_outcomes, steals, shipped = self._fan_out(entries)
            outcomes.extend(shard_outcomes)

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
            steals=steals, cache_entries_shipped=shipped,
            worker_failures=self._worker_failures,
            prefixes_reassigned=self._prefixes_reassigned,
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
        frontier = sorted(seed.frontier, key=canonical_key)
        return [seed_outcome], [(prefix, ()) for prefix in frontier]

    # -- worker fleet --------------------------------------------------------

    def _fan_out(self, entries: list[tuple[Prefix, tuple[Prefix, ...]]],
                 ) -> tuple[list[ShardOutcome], int, int]:
        """Partition pending entries across the fleet; broker steals."""
        snapshot = (self.engine.query_cache.snapshot()
                    if self.ship_cache else None)
        session = WorkerSession(
            setup=self.setup, setup_args=self.setup_args,
            engine_config=self.engine_config, cache_snapshot=snapshot,
            trace=self.trace,
            heartbeat_interval=self.heartbeat_interval)
        self.transport.start(self.shards, session)
        try:
            outcomes, steals = self._coordinate(entries)
        except BaseException:
            # Aborting (coordinator crash, ^C): every in-flight
            # assignment is doomed anyway, so don't grant the graceful
            # drain window — tear the fleet down immediately.
            self.transport.abort()
            raise
        self.transport.stop()
        return outcomes, steals, len(snapshot or ())

    def _coordinate(self, entries) -> tuple[list[ShardOutcome], int]:
        transport = self.transport
        # Pending work is (root prefix, exclusions) — exclusions are
        # non-empty for work reclaimed from a dead worker whose region
        # had donated subtrees carved out.
        pending: deque[tuple[Prefix, tuple[Prefix, ...]]] = deque(entries)
        active = set(range(self.shards))
        idle = set(active)
        steal_pending: set[int] = set()
        # Outstanding assignment per busy worker — what recovery reclaims
        # (and what the fail-mode error names) when a worker dies.
        assigned: dict[int, _Booking] = {}
        retries = {wid: 0 for wid in active}
        outcomes: list[ShardOutcome] = []
        steals = 0
        dead_polls = 0
        self._dispatch(pending, idle, active, assigned, steal_pending,
                       retries)

        while len(idle) < len(active) or pending:
            if not active:
                raise SymexError(
                    "all shard workers were lost and none could be "
                    f"respawned within max_worker_retries="
                    f"{self.max_worker_retries}; sharded exploration "
                    "cannot complete")
            if self.progress is not None:
                self.progress.maybe_render(
                    workers=len(active), busy=len(active) - len(idle),
                    pending=len(pending), steals=steals,
                    failures=self._worker_failures)
            message = transport.recv(_POLL_SECONDS)
            if message is None:
                # Liveness: a worker that died without reporting (OOM
                # kill, hard crash — MSG_ERROR only covers Python
                # exceptions) would leave this loop polling
                # forever. A few empty polls of grace let a just-dead
                # worker's last in-flight message drain first.
                dead = [wid for wid in sorted(active)
                        if wid not in idle and not transport.alive(wid)]
                if dead:
                    dead_polls += 1
                    if dead_polls >= _DEATH_GRACE_POLLS:
                        dead_polls = 0
                        log_event(_log, logging.WARNING, "worker.lost",
                                  workers=",".join(
                                      self._describe_safe(w)
                                      for w in dead),
                                  policy=self.on_worker_loss)
                        if self.on_worker_loss == "fail":
                            raise SymexError(
                                self._death_report(dead, assigned))
                        for wid in dead:
                            self._recover(wid, pending, idle, active,
                                          assigned, steal_pending, retries)
                        self._dispatch(pending, idle, active, assigned,
                                       steal_pending, retries)
                else:
                    dead_polls = 0
                self._request_steal(idle, active, steal_pending)
                continue
            dead_polls = 0
            kind, wid, payload = message
            if wid not in active:
                # A worker slot already written off; its reclaimed work
                # runs elsewhere, so folding this message in too would
                # double-count.
                continue
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
                steal_pending.discard(wid)
                transport.acknowledge_done(wid)
                if pending:
                    self._dispatch(pending, idle, active, assigned,
                                   steal_pending, retries)
                else:
                    self._request_steal(idle, active, steal_pending)
            elif kind == MSG_DONATE:
                steal_pending.discard(wid)
                if payload:
                    steals += 1
                    booking = assigned.get(wid)
                    donor_exclude = tuple(booking.exclude) if booking else ()
                    for prefix in payload:
                        # The donor's standing exclusions that fall inside
                        # this donated subtree travel with it.
                        pending.append((prefix, tuple(
                            d for d in donor_exclude
                            if extends(d, prefix) and d != prefix)))
                    if booking is not None:
                        # Donated subtrees leave the donor's region: if it
                        # dies later, they must not be re-run with it.
                        booking.exclude.extend(payload)
                self._dispatch(pending, idle, active, assigned,
                               steal_pending, retries)
            elif kind == MSG_ERROR:
                raise SymexError(
                    f"shard worker {transport.describe(wid)} failed:\n"
                    f"{payload}")
            else:  # pragma: no cover - internal protocol
                raise SymexError(f"unknown shard message kind {kind!r}")
        return outcomes, steals

    def _note_heartbeat(self, wid: int, payload) -> None:
        """Fold a worker heartbeat into the live fleet gauges."""
        if not isinstance(payload, dict):  # pragma: no cover - defensive
            return
        self._fleet_gauges[wid] = payload
        if self.progress is not None:
            self.progress.heartbeat(wid, payload)
        self._event("worker.heartbeat", wid=wid, **payload)

    # -- recovery ------------------------------------------------------------

    def _recover(self, wid: int, pending: deque, idle: set[int],
                 active: set[int], assigned: dict[int, _Booking],
                 steal_pending: set[int], retries: dict[int, int]) -> None:
        """Reclaim a dead worker's region; respawn or retire the slot.

        The dead worker's partial results never reached the outcome list
        (a worker reports one ``MSG_DONE`` per assignment, at the end),
        so discarding means simply re-running its booking — roots minus
        the subtrees it donated, which other workers own now.
        """
        with self._span("coordinator.recover", wid=wid):
            self._recover_inner(wid, pending, idle, active, assigned,
                                steal_pending, retries)

    def _recover_inner(self, wid: int, pending: deque, idle: set[int],
                       active: set[int], assigned: dict[int, _Booking],
                       steal_pending: set[int],
                       retries: dict[int, int]) -> None:
        recovery_started = time.perf_counter()
        self._worker_failures += 1
        steal_pending.discard(wid)
        idle.discard(wid)
        booking = assigned.pop(wid, None)
        if booking is not None:
            for root in booking.roots:
                if any(extends(root, d) for d in booking.exclude):
                    # The root itself was donated away (StealControl
                    # hands out the shallowest worklist entries, which
                    # can be untouched roots of a multi-root
                    # assignment): its subtree already belongs to
                    # whoever received the donation, so requeueing it
                    # here would explore it twice and the merge would
                    # reject the overlap.
                    continue
                self._prefixes_reassigned += 1
                pending.append((root, tuple(
                    d for d in booking.exclude
                    if extends(d, root) and d != root)))
        revived = False
        while retries[wid] < self.max_worker_retries:
            retries[wid] += 1
            if self.transport.respawn(wid):
                revived = True
                break
        if revived:
            idle.add(wid)
        else:
            active.discard(wid)
        elapsed = time.perf_counter() - recovery_started
        self._recovery_seconds += elapsed
        log_event(_log, logging.WARNING, "worker.recovered",
                  worker=self._describe_safe(wid),
                  prefixes_reclaimed=len(booking.roots) if booking else 0,
                  respawned=revived, recovery_seconds=elapsed)

    def _describe_safe(self, wid: int) -> str:
        """``transport.describe`` that cannot fail on a torn-down or
        never-started worker slot (recovery logs race worker death)."""
        try:
            return self.transport.describe(wid)
        except Exception:  # pragma: no cover - transport-specific races
            return f"worker {wid}"

    def _death_report(self, dead: list[int],
                      assigned: dict[int, _Booking]) -> str:
        """Name the dead workers and the assignments that died with them."""
        lines = []
        for wid in dead:
            booking = assigned.get(wid)
            prefixes = booking.roots if booking else []
            rendered = ", ".join(
                "".join("T" if d else "F" for d in p) or "<root>"
                for p in prefixes[:4])
            more = len(prefixes) - 4
            lines.append(
                f"  {self.transport.describe(wid)} holding "
                f"{len(prefixes)} prefix(es) "
                f"[{rendered}{f', +{more} more' if more > 0 else ''}]")
        detail = "\n".join(lines)
        return ("shard worker(s) died without reporting a result "
                f"(killed? out of memory?); the lost assignment(s):\n"
                f"{detail}\n"
                "sharded exploration cannot complete "
                "(on_worker_loss='recover' reassigns instead)")

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, pending: deque, idle: set[int], active: set[int],
                  assigned: dict[int, _Booking], steal_pending: set[int],
                  retries: dict[int, int]) -> None:
        """Assign pending work; under ``"recover"``, a worker that turns
        out unreachable at assign time is treated exactly like a
        liveness-poll death (its booking reclaimed, slot respawned or
        retired) and dispatching continues on whoever is left."""
        while True:
            failed = self._assign(pending, idle, assigned)
            if not failed:
                return
            for wid in failed:
                self._recover(wid, pending, idle, active, assigned,
                              steal_pending, retries)

    def _assign(self, pending: deque, idle: set[int],
                assigned: dict[int, _Booking]) -> list[int]:
        """Split the pending work evenly across the idle workers.

        Returns the workers whose assignment could not be delivered
        (always empty under ``on_worker_loss="fail"`` — the transport
        error propagates instead).
        """
        failed: list[int] = []
        while pending and (idle - set(failed)):
            takers = sorted(idle - set(failed))[:len(pending)]
            base, extra = divmod(len(pending), len(takers))
            for position, wid in enumerate(takers):
                if not pending:
                    break
                size = base + (1 if position < extra else 0)
                booking = self._take_batch(pending, size)
                if booking is None:
                    continue
                idle.discard(wid)
                assigned[wid] = booking
                try:
                    with self._span("coordinator.assign", wid=wid,
                                    roots=len(booking.roots)):
                        self.transport.assign(wid, Assignment(
                            roots=tuple(booking.roots),
                            exclude=tuple(booking.exclude)))
                except SymexError:
                    if self.on_worker_loss == "fail":
                        raise
                    failed.append(wid)
        return failed

    @staticmethod
    def _take_batch(pending: deque, size: int) -> _Booking | None:
        """Pop up to ``size`` compatible pending entries into one booking.

        A batch ships one merged exclusion list, so entries are only
        batched together when no root of the batch falls inside another
        entry's exclusions (the worker's exclusion filter would silently
        drop that root). Incompatible entries are deferred, keeping
        their queue order; a single entry is always self-consistent
        (its exclusions are strict descendants of its own root), so
        dispatch always makes progress.

        Duplicate roots are collapsed: an entry whose root is already
        covered by an accepted root (and not carved back out by the
        batch exclusions) would seed the worker's worklist twice and
        yield duplicate paths inside one outcome, so it is dropped —
        keeping its exclusions, which mark subtrees owned elsewhere.
        Defense in depth against any double-enqueued reclaim.
        """
        if size <= 0:
            return None
        roots: list[Prefix] = []
        exclude: list[Prefix] = []
        deferred: list[tuple[Prefix, tuple[Prefix, ...]]] = []
        for _ in range(len(pending)):
            if len(roots) >= size:
                break
            root, root_exclude = pending.popleft()
            if (any(extends(root, r) for r in roots)
                    and not any(extends(root, d) for d in exclude)):
                exclude.extend(
                    d for d in root_exclude if d not in exclude)
                continue
            candidate_roots = roots + [root]
            candidate_exclude = exclude + [
                d for d in root_exclude if d not in exclude]
            if (any(extends(r, d) for r in candidate_roots
                    for d in candidate_exclude)
                    or any(extends(r, root) for r in roots)):
                # An exclusion swallowing a batch root, or a candidate
                # containing an accepted root: either would corrupt the
                # worker's worklist — defer to a later batch.
                deferred.append((root, root_exclude))
                continue
            roots = candidate_roots
            exclude = candidate_exclude
        pending.extendleft(reversed(deferred))
        if not roots:
            return None
        return _Booking(roots=roots, exclude=exclude)

    def _request_steal(self, idle: set[int], active: set[int],
                       steal_pending: set[int]) -> None:
        """Raise one loaded worker's steal flag when someone is idle."""
        if not idle:
            return
        busy = [wid for wid in sorted(active)
                if wid not in idle and wid not in steal_pending]
        if busy:
            target = busy[0]
            steal_pending.add(target)
            self._event("coordinator.steal", wid=target)
            self.transport.request_steal(target)
