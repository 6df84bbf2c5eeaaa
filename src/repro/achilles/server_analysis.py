"""Phase 2: server exploration with incremental Trojan search (§3.2-§3.3).

The server runs on an unconstrained symbolic message. A
:class:`TrojanSearchObserver` rides along with the engine and, at every
appended constraint:

1. re-checks which client path predicates can still trigger the path
   (``pathS ∧ pathC_i`` satisfiable) and drops the rest — plus, for
   single-field constraints, everything the ``differentFrom`` matrix says
   cannot add new values for that field;
2. checks whether the path can still be triggered by *any* Trojan message
   (``pathS ∧ ⋀ negate(pathC_live)``) and prunes the path when it cannot —
   dropped predicates are implicitly-true negations and are omitted from
   the query, which is what keeps it small (§3.3, Figure 11).

A path that reaches an accept marker therefore *has* Trojan messages by
construction; the observer records a finding for it, with the symbolic
expression and a concrete witness, in the per-path record it hands the
engine (:attr:`~repro.symex.engine.ExplorationResult.records`).

Both questions are asked once per fresh prefix, and the observer's
prefix trie decides most of them without the engine: a model its parent
kept that satisfies the appended constraint proves SAT, and the
constraint being false over a predicate's own propagated intervals
proves that predicate dead (:meth:`TrojanSearchObserver._decide`). What
is left is posed to the engine's main frame stack.

Each optimization can be disabled individually (the §6.4 ablation), and
:func:`a_posteriori_search` implements the paper's non-optimized
comparison point: explore the server with vanilla symbolic execution
first, difference the predicates afterwards.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.achilles.client_analysis import ClientPredicateSet
from repro.achilles.negate import single_field_of
from repro.achilles.report import AchillesReport, TrojanFinding
from repro.errors import AchillesError
from repro.explore.shard import HeartbeatControl
from repro.obs import trace as obs_trace
from repro.obs.progress import ProgressMeter
from repro.obs.trace import (
    TRACE_FILE_NAME,
    merge_traces,
    metrics_record,
    write_trace,
)
from repro.solver.ast import Expr
from repro.solver.cache import QueryCache
from repro.solver.evalmodel import extend_model
from repro.solver.propagate import Domains, fixpoint, refutes
from repro.symex.context import ExecutionContext
from repro.symex.engine import DFS, Engine, EngineConfig, ExplorationResult
from repro.symex.observers import PathObserver
from repro.symex.state import ACCEPTED, PathResult

if TYPE_CHECKING:  # core.py imports this module
    from repro.achilles.core import AchillesConfig

#: A server node program as Achilles drives it: the engine hands it the
#: execution context plus the unconstrained symbolic message byte vector.
ServerProgram = Callable[[ExecutionContext, tuple[Expr, ...]], None]


@dataclass
class OptimizationFlags:
    """Feature switches for the §3.3 optimizations (§6.4 ablation).

    Attributes:
        incremental_drop: track per-path live predicate lists, dropping
            predicates whose combination with the path became unsat.
        use_different_from: on a single-field drop, also drop everything
            the ``differentFrom`` matrix proves redundant.
        prune_unreachable: abandon server paths whose Trojan query is
            unsat ("as soon as an execution path cannot be triggered by
            any Trojan messages, it is dropped from the exploration").
    """

    incremental_drop: bool = True
    use_different_from: bool = True
    prune_unreachable: bool = True

    @classmethod
    def all_off(cls) -> "OptimizationFlags":
        return cls(False, False, False)


class _PrefixNode:
    """What the observer answered for one path-condition prefix.

    Nodes form a trie rooted at the empty path condition; a child is keyed
    by the constraint appended to its parent's prefix (hash-consed, so the
    lookup is an identity compare). ``live`` is the live predicate set
    after that constraint's drop step; ``trojan`` is the Trojan-feasible
    bit of the prefix, or None when no hook computed it (pruning off, or
    the root).

    The node also keeps the satisfying models it learned: ``models[i]``
    satisfies ``pathS ∧ pathC_i`` for live predicate ``i``, and
    ``trojan_model`` the prefix's Trojan query. A model is kept only where
    one was found (a cache hit brings none) and may be shared with the
    parent and siblings, so it is never mutated.
    """

    __slots__ = ("live", "trojan", "children", "models", "trojan_model")

    def __init__(self, live: frozenset[int], trojan: bool | None = None,
                 models: dict[int, dict[Expr, int]] | None = None,
                 trojan_model: dict[Expr, int] | None = None):
        self.live = live
        self.trojan = trojan
        self.children: dict[Expr, _PrefixNode] = {}
        self.models = models or {}
        self.trojan_model = trojan_model


@dataclass
class _PathSlot:
    """Per-path search state (lives in ``PathState.observer_slot``)."""

    node: _PrefixNode
    samples: list[tuple[int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class _TrojanPathRecord:
    """What the observer records for one executed path (picklable): the
    ``(path-condition length, live predicates)`` sample of each
    constraint, and the path's finding, if any. The finding's
    ``server_path_id`` is local to the exploration that made it;
    :func:`search_server` renumbers it."""

    samples: tuple[tuple[int, int], ...]
    finding: TrojanFinding | None


class TrojanSearchObserver(PathObserver):
    """The Achilles plugin: incremental Trojan search during exploration.

    The engine forks by re-execution, so every path replays its forked
    prefix from the root. The observer memoizes its state per prefix in a
    trie of :class:`_PrefixNode` (live predicate set and Trojan-feasible
    bit): a replayed constraint costs one dict lookup and never reaches
    the engine, the query cache or the solver. Only the first visit of a
    prefix poses questions, and most of those the trie answers itself
    (:meth:`_decide`). A child's query is its parent's plus one
    constraint ``c``, over a live set that can only shrink, so:

    * **inheritance** — a model the parent kept for the same predicate
      (or for its Trojan query) that satisfies ``c`` proves the child
      query SAT, and the child keeps that model in turn (KLEE's
      counterexample cache, along the prefix trie);
    * **interval refutation** — ``c`` evaluated over the propagation
      fixpoint of ``pathC_i`` alone, computed once per predicate, being
      false everywhere proves ``pathS ∧ pathC_i`` UNSAT;
    * the rest goes to :meth:`Engine.feasibility` on the engine's main
      frame stack, which hands its model back for the children.

    An accepting path's witness is solved when the path ends
    (:meth:`Engine.solve`), never taken from an inherited model, so a
    finding is the same whichever way each question was answered.
    ``answered`` counts the answers by kind and source
    (``"drop.inherited"``, ``"drop.refuted"``, ``"drop.engine"``,
    ``"trojan.inherited"``, ``"trojan.engine"``).

    The observer keeps no findings itself: :meth:`on_path_end` returns
    each path's :class:`_TrojanPathRecord`, which the engine keeps in
    :attr:`ExplorationResult.records` and a shard worker ships home with
    its outcome. That is what lets the sharded exploration layer run one
    private instance per shard worker. A worker keeps its instance for
    the whole session, and the trie the coordinator's seed phase built
    travels to every worker (:meth:`export_memo` / :meth:`adopt_memo`),
    so no prefix is decided twice in one process. All of this is sound
    because every hook's answer is a pure function of the path's
    constraint sequence.

    ``elapsed_seconds`` of a finding counts from the first path of the
    :meth:`Engine.explore` call that made it — in a shard worker, from
    the start of the assignment.
    """

    def __init__(self, engine: Engine, clients: ClientPredicateSet,
                 server_msg: tuple[Expr, ...],
                 flags: OptimizationFlags | None = None):
        self._engine = engine
        self._clients = clients
        self._server_msg = server_msg
        self._flags = flags or OptimizationFlags()
        self._combined = [p.combined(server_msg) for p in clients.predicates]
        self._negation_exprs = [n.expr for n in clients.negations]
        # Per predicate, the propagation fixpoint of its combined
        # conjuncts alone (None: unsat alone), for interval refutation.
        self._domains: list[Domains | None] = (
            [fixpoint(combined) for combined in self._combined]
            if self._flags.incremental_drop else [])
        self.answered: Counter[str] = Counter()
        self._root = _PrefixNode(frozenset(range(len(clients.predicates))))
        # Findings' clock: set by the first path of each explore() call.
        self._started = 0.0

    # -- engine hooks ---------------------------------------------------------------

    def on_path_start(self, ctx: ExecutionContext) -> None:
        if ctx.path_id == 0:
            self._started = time.perf_counter()
        ctx.state.observer_slot = _PathSlot(node=self._root)

    def on_constraint(self, ctx: ExecutionContext, constraint: Expr) -> bool:
        slot: _PathSlot = ctx.state.observer_slot
        node = slot.node.children.get(constraint)
        if node is None:
            node = self._extend(ctx, constraint, slot.node)
        slot.node = node
        slot.samples.append((len(ctx.state.constraints), len(node.live)))
        return node.trojan is not False

    def on_path_end(self, ctx: ExecutionContext,
                    result: PathResult) -> _TrojanPathRecord:
        slot: _PathSlot = ctx.state.observer_slot
        finding = None
        if result.verdict == ACCEPTED:
            finding = self._finding(result, slot.node)
        return _TrojanPathRecord(samples=tuple(slot.samples),
                                 finding=finding)

    def _finding(self, result: PathResult,
                 node: _PrefixNode) -> TrojanFinding | None:
        pc = result.constraints
        feasible = node.trojan
        if feasible is None:
            feasible = self._trojan_feasible(pc, node.live)
        if not feasible:
            return None  # accepting, but only by non-Trojan messages
        negation = self._negation_query(node.live)
        model = self._engine.solve(pc + negation)
        if model is None:  # pragma: no cover - guarded by trojan_feasible
            return None
        return TrojanFinding(
            server_path_id=result.path_id,
            decisions=result.decisions,
            path_condition=pc,
            negation=negation,
            witness=bytes(model.get(var, 0) for var in self._server_msg),
            live_predicates=tuple(sorted(node.live)),
            elapsed_seconds=time.perf_counter() - self._started,
            labels=result.labels,
        )

    # -- sharded exploration -------------------------------------------------------

    def export_memo(self) -> list[tuple]:
        """The prefix trie as a flat, picklable list (see base class).

        One ``(parent, constraint, live, trojan, models, trojan_model)``
        row per node in preorder; ``parent`` indexes an earlier row (-1
        and no constraint for the root). Flat rather than nested, so
        pickling it does not recurse once per trie level. Rows share the
        nodes' models, which are never mutated.
        """
        rows: list[tuple] = []
        stack = [(-1, None, self._root)]
        while stack:
            parent, constraint, node = stack.pop()
            rows.append((parent, constraint, node.live, node.trojan,
                         node.models, node.trojan_model))
            index = len(rows) - 1
            stack.extend((index, key, child)
                         for key, child in node.children.items())
        return rows

    def adopt_memo(self, memo: list[tuple]) -> None:
        """Replace the trie with one :meth:`export_memo` produced for the
        same predicates, message and flags."""
        nodes: list[_PrefixNode] = []
        for parent, constraint, live, trojan, models, trojan_model in memo:
            node = _PrefixNode(live, trojan, models, trojan_model)
            if parent < 0:
                self._root = node
            else:
                nodes[parent].children[constraint] = node
            nodes.append(node)

    # -- search internals --------------------------------------------------------------

    def _extend(self, ctx: ExecutionContext, constraint: Expr,
                parent: _PrefixNode) -> _PrefixNode:
        """First visit of ``parent``'s prefix plus ``constraint``: run the
        drop step and the Trojan query, and record the child node."""
        pc = tuple(ctx.state.constraints)
        live, models = parent.live, {}
        if self._flags.incremental_drop:
            live, models = self._drop_dead_predicates(pc, constraint, parent)
        trojan = trojan_model = None
        if self._flags.prune_unreachable:
            trojan, trojan_model = self._decide(
                "trojan", pc, self._negation_query(live), parent.trojan_model)
        node = parent.children[constraint] = _PrefixNode(
            live, trojan, models, trojan_model)
        return node

    def _drop_dead_predicates(self, pc: tuple[Expr, ...], constraint: Expr,
                              parent: _PrefixNode
                              ) -> tuple[frozenset[int],
                                         dict[int, dict[Expr, int]]]:
        # The ``pathS ∧ pathC_i`` re-checks for all live predicates, in
        # index order; returns the kept set and the models learned.
        models: dict[int, dict[Expr, int]] = {}
        dropped_now = []
        for index in sorted(parent.live):
            feasible, model = self._decide(
                "drop", pc, self._combined[index], parent.models.get(index),
                index)
            if not feasible:
                dropped_now.append(index)
            elif model is not None:
                models[index] = model
        if not dropped_now:
            return parent.live, models
        kept = set(parent.live).difference(dropped_now)
        if self._flags.use_different_from:
            constraint_field = single_field_of(
                constraint, self._server_msg, self._clients.layout)
            if constraint_field is not None:
                # Only entries about still-kept predicates can change the
                # live set, so only those are looked up (and computed).
                for index in dropped_now:
                    kept.difference_update(
                        self._clients.different_from.droppable_with(
                            index, constraint_field, kept))
        return frozenset(kept), {index: model
                                 for index, model in models.items()
                                 if index in kept}

    def _decide(self, kind: str, pc: tuple[Expr, ...],
                probe: tuple[Expr, ...], model: dict[Expr, int] | None,
                predicate: int | None = None
                ) -> tuple[bool, dict[Expr, int] | None]:
        """Feasibility of ``pc + probe``, with a model to keep (or None).

        ``model``, when given, satisfies ``pc[:-1] + probe`` (or a
        superset of ``probe``, for the Trojan query of a shrunk live set).
        ``predicate`` names the client predicate whose conjuncts ``probe``
        is; its propagation fixpoint may refute the appended constraint.
        """
        constraint = pc[-1]
        if model is not None:
            model = extend_model(model, constraint)
            if model is not None:
                self.answered[kind + ".inherited"] += 1
                return True, model
        if predicate is not None and refutes(self._domains[predicate],
                                             constraint):
            self.answered[kind + ".refuted"] += 1
            return False, None
        self.answered[kind + ".engine"] += 1
        return self._engine.feasibility(pc, probe)

    def _negation_query(self, live: frozenset[int]) -> tuple[Expr, ...]:
        """Negations of the live predicates; dropped ones are implicit."""
        if self._flags.incremental_drop:
            indices = sorted(live)
        else:
            indices = range(len(self._negation_exprs))
        return tuple(self._negation_exprs[i] for i in indices)

    def _trojan_feasible(self, pc: tuple[Expr, ...],
                         live: frozenset[int]) -> bool:
        return self._engine.is_feasible(pc + self._negation_query(live))


def _shard_setup(engine: Engine, server, clients: ClientPredicateSet,
                 server_msg: tuple[Expr, ...],
                 flags: OptimizationFlags | None, msg_name: str):
    """Build one shard's (program, observer) pair on its private engine.

    Module-level (and its args picklable) so the shard scheduler can ship
    it to worker processes under any multiprocessing start method.
    """
    observer = TrojanSearchObserver(engine, clients, server_msg, flags)

    def program(ctx: ExecutionContext) -> None:
        wire = tuple(ctx.fresh_bytes(msg_name, len(server_msg)))
        server(ctx, wire)

    return program, observer


def search_server(server, clients: ClientPredicateSet,
                  server_msg: tuple[Expr, ...],
                  config: AchillesConfig | None = None, *,
                  query_cache: QueryCache | None = None,
                  ) -> tuple[AchillesReport, ExplorationResult]:
    """Explore a server program under the incremental Trojan search.

    Args:
        server: callable ``server(ctx, msg)`` receiving the symbolic
            message byte vector.
        clients: preprocessed ``PC``.
        server_msg: message variables (must match what the wrapped
            program will receive — see :func:`wrap_server`).
        config: the run's :class:`~repro.achilles.core.AchillesConfig`;
            this reads its ``server_engine``, ``optimizations``,
            ``msg_name`` and the distribution and observability settings
            described there. None runs one serial in-process walk with
            the defaults.
        query_cache: shared canonical query cache (the orchestrator passes
            the phase-1 cache here so cross-phase queries hit).

    Serial, sharded and recovered runs build the report one way: from
    the exploration's observer records (findings and predicate samples,
    in path order) and its counters (``server_paths_pruned`` is
    ``stats.paths_pruned``). With ``shards > 1`` every solver counter —
    queries, frames, propagation time and the query-cache hits and
    misses — is the coordinator's own plus the sum over the shard
    workers' private engines.

    Returns:
        The (partially filled) report and the raw exploration result; the
        orchestrator merges in client stats and timings.
    """
    if config is None:
        from repro.achilles.core import AchillesConfig

        config = AchillesConfig(layout=clients.layout)
    shards = config.shards
    engine = Engine(config.server_engine, query_cache=query_cache)
    if shards > 1 and engine.config.search_order != DFS:
        # The sharded merge renumbers paths in canonical prefix order,
        # which reproduces DFS completion order exactly — a serial BFS
        # run orders findings differently, so the byte-parity promise
        # cannot be kept for it. Fail loudly instead of quietly
        # reordering.
        raise AchillesError(
            f"sharded exploration requires the default {DFS!r} search "
            f"order (got {engine.config.search_order!r}): findings are "
            "only byte-identical across shard counts for DFS runs")

    tracer = None
    if config.trace_dir is not None:
        # Clear any tracer a failed earlier run left behind, then own a
        # fresh coordinator-sourced one for exactly this search.
        obs_trace.deactivate()
        tracer = obs_trace.activate(source="coordinator")
    meter = ProgressMeter() if config.progress else None

    started = time.perf_counter()
    shard_stats = None
    sharded = None
    try:
        if shards > 1:
            from repro.explore import ShardScheduler

            scheduler = ShardScheduler(
                _shard_setup,
                (server, clients, server_msg, config.optimizations,
                 config.msg_name),
                shards=shards, engine=engine,
                transport=config.transport,
                trace=tracer is not None, progress=meter)
            sharded = scheduler.run()
            exploration = sharded.exploration
            shard_stats = sharded.worker_solver_stats
        else:
            program, observer = _shard_setup(engine, server, clients,
                                             server_msg,
                                             config.optimizations,
                                             config.msg_name)
            control = None
            if meter is not None:
                control = HeartbeatControl(
                    0.0, lambda beat: meter.maybe_render(**beat),
                    engine=engine)
            if tracer is None:
                exploration = engine.explore(program, observer,
                                             control=control)
            else:
                with tracer.span("coordinator.explore", shards=1):
                    exploration = engine.explore(program, observer,
                                                 control=control)
    except BaseException:
        if tracer is not None:
            obs_trace.deactivate()
        raise
    elapsed = time.perf_counter() - started

    findings, samples = _observed(exploration)
    cache_stats = engine.query_cache.stats
    report = AchillesReport(
        findings=findings,
        client_predicate_count=len(clients),
        predicate_samples=samples,
        server_paths_explored=len(exploration.paths),
        server_paths_pruned=exploration.stats.paths_pruned,
        solver_queries=engine.solver.stats.queries,
        cache_hits=cache_stats.hits,
        cache_misses=cache_stats.misses,
        frames_reused=engine.solver.stats.frames_reused,
        propagation_seconds=engine.solver.stats.propagation_seconds,
        shards=shards,
    )
    if shard_stats is not None:
        report.solver_queries += shard_stats.queries
        report.cache_hits += shard_stats.cache_hits
        report.cache_misses += shard_stats.cache_misses
        report.frames_reused += shard_stats.frames_reused
        report.propagation_seconds += shard_stats.propagation_seconds
        report.worker_failures = sharded.worker_failures
        report.recovery_seconds = sharded.recovery_seconds
    report.timings.server_analysis = elapsed
    if meter is not None:
        if sharded is not None:
            meter.note(failures=report.worker_failures)
        meter.close()
    if tracer is not None:
        obs_trace.deactivate()
        worker_deltas = sharded.worker_traces if sharded is not None else None
        _write_run_trace(tracer, config.trace_dir, worker_deltas, report)
    return report, exploration


def _observed(exploration: ExplorationResult
              ) -> tuple[list[TrojanFinding], list[tuple[int, int]]]:
    """The findings and predicate samples of an exploration's observer
    records, in path order; a finding's ``server_path_id`` is its path's
    index in ``exploration.executed``."""
    findings: list[TrojanFinding] = []
    samples: list[tuple[int, int]] = []
    for path_id, (decisions, _verdict) in enumerate(exploration.executed):
        record = exploration.records[decisions]
        samples.extend(record.samples)
        if record.finding is not None:
            findings.append(replace(record.finding, server_path_id=path_id))
    return findings, samples


def _write_run_trace(tracer, trace_dir, worker_deltas, report) -> None:
    """Finalize one search's trace: fold worker metrics and run-level
    counters into the coordinator registry, merge coordinator records
    with the per-worker deltas deterministically, and write the JSON
    Lines file with a metrics trailer record."""
    registry = tracer.metrics
    for deltas in (worker_deltas or {}).values():
        for delta in deltas:
            if delta.metrics:
                registry.absorb(delta.metrics)
    run_counters = {
        "cache.hits": report.cache_hits,
        "cache.misses": report.cache_misses,
        "solver.queries": report.solver_queries,
        "solver.frames_reused": report.frames_reused,
        "run.worker_failures": report.worker_failures,
    }
    for name, value in run_counters.items():
        if value:
            registry.add(name, value)
    if report.recovery_seconds:
        registry.gauge("run.recovery_seconds").set(report.recovery_seconds)
    tracer.flush_aggregates()
    merged = merge_traces(tracer.records, worker_deltas)
    merged.append(metrics_record(registry.snapshot()))
    write_trace(Path(trace_dir) / TRACE_FILE_NAME, merged)


def a_posteriori_search(server, clients: ClientPredicateSet,
                        server_msg: tuple[Expr, ...],
                        engine_config: EngineConfig | None = None,
                        msg_name: str = "msg",
                        query_cache: QueryCache | None = None,
                        ) -> AchillesReport:
    """The §6.4 non-optimized baseline: explore first, difference after.

    Runs vanilla symbolic execution of the server (no per-path predicate
    tracking, no pruning), then solves every accepting path against the
    full conjunction of all client negations, in path order.
    """
    engine = Engine(engine_config or EngineConfig(), query_cache=query_cache)

    def program(ctx: ExecutionContext) -> None:
        wire = tuple(ctx.fresh_bytes(msg_name, len(server_msg)))
        server(ctx, wire)

    started = time.perf_counter()
    exploration = engine.explore(program)
    negations = tuple(n.expr for n in clients.negations)
    report = AchillesReport(
        client_predicate_count=len(clients),
        server_paths_explored=len(exploration.paths),
    )
    for path in exploration.accepting:
        model = engine.solve(path.constraints + negations)
        if model is None:
            continue
        witness = bytes(model.get(var, 0) for var in server_msg)
        report.findings.append(TrojanFinding(
            server_path_id=path.path_id,
            decisions=path.decisions,
            path_condition=path.constraints,
            negation=negations,
            witness=witness,
            live_predicates=tuple(range(len(clients))),
            elapsed_seconds=time.perf_counter() - started,
            labels=path.labels,
        ))
    report.timings.server_analysis = time.perf_counter() - started
    report.solver_queries = engine.solver.stats.queries
    report.cache_hits = engine.query_cache.stats.hits
    report.cache_misses = engine.query_cache.stats.misses
    report.frames_reused = engine.solver.stats.frames_reused
    report.propagation_seconds = engine.solver.stats.propagation_seconds
    return report
