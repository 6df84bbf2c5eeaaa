"""The symbolic execution engine (re-execution forking).

This is the repo's substitute for the S2E platform: it systematically
enumerates the feasible paths of a deterministic node program. Forking works
by *re-execution*: when a branch is feasible both ways, the engine records
the unexplored direction as a decision-prefix and later re-runs the program
from scratch, replaying the prefix. Re-execution keeps the engine tiny and
correct at the cost of repeated work; solver queries are memoized so replays
are cheap.

Solver queries flow through a layered pipeline — canonicalize → query
cache → incremental frame stack → propagation → full search:

* the canonical :class:`~repro.solver.cache.QueryCache` answers *identical*
  queries (replays, reordered conjuncts, commuted operands all land on the
  same entry; one shared cache lets several engines — e.g. the two
  Achilles phases — reuse each other's answers);
* cache misses go to an :class:`~repro.solver.incremental.IncrementalSolver`
  whose push/pop assertion stack is kept aligned with the decision prefix
  being explored: the common prefix of consecutive queries keeps its
  propagation fixpoint (``frames_reused`` in ``SolverStats``), only the
  differing suffix is re-propagated, and most answers resolve from the
  propagated domains without the from-scratch search. Branch checks,
  the Trojan search's residual ``prefix + probe`` checks and witness
  models all share this one stack, posed in query order.

:meth:`Engine.feasibility` hands back the deciding stack's model with
the answer, so a caller walking a prefix trie can keep it and decide a
child query by evaluating the appended constraint (the Trojan observer
does; see :mod:`repro.achilles.server_analysis`).

Every query is answered in-process, in the order it is posed. To spread
a search over cores, shard the path tree (:mod:`repro.explore`):
each shard runs a private engine.

The engine is deliberately policy-free. Accept/reject classification
defaults follow the paper (§5.1): a server path that sent a reply is
*accepting*, a path that fell back to waiting for input is *rejecting* —
with explicit ``ctx.accept()`` / ``ctx.reject()`` markers taking priority.
Achilles attaches a :class:`~repro.symex.observers.PathObserver` to inject
its incremental Trojan search.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ExplorationLimit, PathDropped, PathInfeasible, SymexError
from repro.obs import trace as obs_trace
from repro.solver import ast
from repro.solver.ast import Expr
from repro.solver.cache import QueryCache
from repro.solver.incremental import IncrementalSolver
from repro.solver.solver import SatResult, Solver
from repro.solver.walk import collect_vars_all
from repro.symex import state as st
from repro.symex.context import ExecutionContext, _PathTerminated
from repro.symex.observers import PathObserver
from repro.symex.state import PathResult, PathState, finalize

NodeProgram = Callable[[ExecutionContext], None]
VerdictPolicy = Callable[[PathState], str]


def server_verdict(state: PathState) -> str:
    """Paper default (§5.1): replying is accepting, returning is rejecting."""
    return st.ACCEPTED if state.sends else st.REJECTED


def client_verdict(state: PathState) -> str:
    """Clients are not classified; finished paths are simply complete."""
    return st.COMPLETED


#: Search orders for the exploration worklist.
DFS = "dfs"
BFS = "bfs"


@dataclass
class EngineConfig:
    """Exploration limits and policies.

    Attributes:
        max_paths: hard cap on completed paths (fork bookkeeping keeps
            going until the worklist drains or this cap is hit).
        max_branches_per_path: per-path symbolic branch budget; exceeding
            it terminates the path with the ``limit`` verdict.
        default_verdict: classification applied when a program returns
            without an explicit accept/reject marker.
        search_order: :data:`DFS` explores the most recent fork first
            (deep paths complete early — the default, matching the
            incremental-discovery behaviour of Figure 10); :data:`BFS`
            drains forks in creation order (shallow coverage first).
        incremental: route cache misses through the push/pop assertion
            stack (:class:`~repro.solver.incremental.IncrementalSolver`)
            so prefix-sharing queries reuse propagation; disable for the
            from-scratch baseline (answers are identical either way).
    """

    max_paths: int = 20_000
    max_branches_per_path: int = 400
    default_verdict: VerdictPolicy = server_verdict
    search_order: str = DFS
    incremental: bool = True


@dataclass
class ExplorationStats:
    """Counters for one exploration run."""

    paths_finished: int = 0
    paths_infeasible: int = 0
    paths_dropped: int = 0
    paths_pruned: int = 0
    paths_limited: int = 0
    forks: int = 0
    elapsed_seconds: float = 0.0

    def merge(self, other: "ExplorationStats") -> "ExplorationStats":
        """Fold another run's counters into this one (returns self).

        ``elapsed_seconds`` is summed like the rest: for sharded runs it
        becomes aggregate CPU-time across shards, and the scheduler
        overwrites it with the coordinator's wall clock afterwards.
        """
        self.paths_finished += other.paths_finished
        self.paths_infeasible += other.paths_infeasible
        self.paths_dropped += other.paths_dropped
        self.paths_pruned += other.paths_pruned
        self.paths_limited += other.paths_limited
        self.forks += other.forks
        self.elapsed_seconds += other.elapsed_seconds
        return self


class ExploreControl:
    """Hook consulted between paths; lets a caller watch a run or stop it.

    The sharded exploration layer (:mod:`repro.explore`) uses this to
    grow a frontier (seeding) and to send heartbeats. The engine calls
    :meth:`checkpoint` with the number of pending worklist entries
    before popping each schedule; returning False stops the run, and the
    worklist left behind is published as
    :attr:`ExplorationResult.frontier`.
    """

    def checkpoint(self, pending: int) -> bool:
        """Return False to stop exploring."""
        return True


@dataclass
class ExplorationResult:
    """All finished paths of one exploration plus counters.

    Attributes:
        paths: finished paths, in completion order.
        stats: exploration counters.
        executed: ``(decisions, verdict)`` for *every* executed path in
            execution order — including infeasible/dropped/pruned paths
            that never reach ``paths``. Execution order is also path-id
            order, so this is the record the sharded merge uses to
            renumber paths canonically.
        frontier: worklist entries left unexplored when an
            :class:`ExploreControl` stopped the run early (empty for a
            drained exploration). Each entry is a decision prefix that
            can be handed to another engine as a ``roots`` element.
        records: decisions -> the record the observer returned from
            :meth:`~repro.symex.observers.PathObserver.on_path_end`, for
            every executed path it returned one for, in ``executed``
            order.
    """

    paths: list[PathResult]
    stats: ExplorationStats
    executed: list[tuple[tuple[bool, ...], str]] = field(default_factory=list)
    frontier: tuple[tuple[bool, ...], ...] = ()
    records: dict[tuple[bool, ...], object] = field(default_factory=dict)

    @property
    def accepting(self) -> list[PathResult]:
        return [p for p in self.paths if p.verdict == st.ACCEPTED]

    @property
    def rejecting(self) -> list[PathResult]:
        return [p for p in self.paths if p.verdict == st.REJECTED]

    @property
    def completed(self) -> list[PathResult]:
        return [p for p in self.paths if p.verdict == st.COMPLETED]


class Engine:
    """Symbolic execution engine over deterministic node programs.

    Args:
        config: exploration limits and policies.
        solver: satisfiability backend (a fresh one per engine by default).
        query_cache: canonical query cache consulted before every solver
            call. Pass a shared instance to let several engines (e.g. the
            two Achilles phases) reuse each other's answers; by default
            each engine gets a private cache.
    """

    def __init__(self, config: EngineConfig | None = None,
                 solver: Solver | None = None,
                 query_cache: QueryCache | None = None):
        self.config = config or EngineConfig()
        self.solver = solver or Solver()
        # Explicit None check: an empty QueryCache is falsy (len() == 0),
        # and a shared-but-still-empty cache must not be replaced.
        self.query_cache = QueryCache() if query_cache is None else query_cache
        # The incremental layer shares the engine's solver so fallback
        # checks and frame/fast-path counters land on one SolverStats.
        self.incremental = (IncrementalSolver(solver=self.solver)
                            if self.config.incremental else None)
        self._stats: ExplorationStats | None = None

    # -- services used by ExecutionContext ------------------------------------

    def _check(self, constraints: tuple[Expr, ...]) -> SatResult:
        """Decide a cache-missed query via the incremental frame stack.

        The stack is aligned with ``constraints``: frames matching the
        common prefix of the previous query keep their propagation
        fixpoint, only the differing suffix is pushed. With the layer
        disabled this is a plain from-scratch check.
        """
        if self.incremental is None:
            return self.solver.check(constraints)
        return self.incremental.check(constraints)

    def is_feasible(self, constraints: tuple[Expr, ...]) -> bool:
        """Satisfiability of a path condition, memoized canonically."""
        return self.feasibility(tuple(constraints))[0]

    def feasibility(self, prefix: tuple[Expr, ...],
                    probe: tuple[Expr, ...] = ()
                    ) -> tuple[bool, dict[Expr, int] | None]:
        """Memoized feasibility of ``prefix + probe``, with its model.

        The model is the one the deciding stack verified (a fresh dict
        the caller may keep); it is None on UNSAT and on a cache hit,
        since the cache stores only the boolean. It is no witness:
        witnesses come from :meth:`solve`, whose models are cached.
        """
        tracer = obs_trace.active
        if tracer is None:
            return self._feasibility(prefix + probe)
        with tracer.span("solver.cache"):
            return self._feasibility(prefix + probe)

    def _feasibility(self, constraints: tuple[Expr, ...]
                     ) -> tuple[bool, dict[Expr, int] | None]:
        cache = self.query_cache
        key = cache.key(constraints)
        cached = cache.get_feasible(key)
        if cached is not None:
            self.solver.stats.cache_hits += 1
            return cached, None
        self.solver.stats.cache_misses += 1
        if cache.is_trivially_unsat(key):
            feasible, model = False, None
        else:
            result = self._check(constraints)
            feasible, model = result.is_sat, result.model
        cache.put_feasible(key, feasible)
        return feasible, model

    def probe_feasible_batch(self, prefix: tuple[Expr, ...],
                             probes: list[tuple[Expr, ...]]) -> list[bool]:
        """Feasibility of ``prefix + probe`` for every probe, in order.

        Each probe is one :meth:`feasibility` call: memoized canonically,
        and a miss is decided on the main stack as ``prefix + probe``,
        so the prefix frames are reused from probe to probe.
        """
        return [self.feasibility(prefix, probe)[0] for probe in probes]

    def branch_feasibility(self, pc: tuple[Expr, ...],
                           condition: Expr) -> tuple[bool, bool]:
        """Feasibility of both directions of a branch on ``condition``.

        Posed as two push/pop probes against the shared ``pc`` prefix:
        the incremental layer keeps the prefix frames' propagation and
        only the final conjunct differs between the two probes.
        """
        return (self.is_feasible(pc + (condition,)),
                self.is_feasible(pc + (ast.not_(condition),)))

    def solve(self, constraints: tuple[Expr, ...]) -> dict[Expr, int] | None:
        """Model for a path condition (None when unsat), memoized canonically.

        Always returns a fresh dict — the cached entry stays immutable so
        callers (and other engines sharing the cache) cannot corrupt it.
        """
        cache = self.query_cache
        key = cache.key(constraints)
        hit, model = cache.get_model(key)
        if hit:
            self.solver.stats.cache_hits += 1
            # The entry may come from a canonically-equal variant whose
            # simplification dropped some of this query's variables; they
            # are unconstrained, so 0 completes the (copied) model.
            return self._complete_model(model, constraints)
        self.solver.stats.cache_misses += 1
        if cache.is_trivially_unsat(key):
            model = None
        else:
            result = self._check(constraints)
            model = dict(result.model) if result.is_sat else None
        cache.put_model(key, model)
        return dict(model) if model is not None else None

    @staticmethod
    def _complete_model(model: dict[Expr, int] | None,
                        query: tuple[Expr, ...]) -> dict[Expr, int] | None:
        """Copy a cached model, defaulting this query's missing variables."""
        if model is None:
            return None
        completed = dict(model)
        for var in collect_vars_all(query):
            completed.setdefault(var, 0)
        return completed

    def note_fork(self) -> None:
        if self._stats is not None:
            self._stats.forks += 1

    # -- exploration ---------------------------------------------------------------

    def explore(self, program: NodeProgram,
                observer: PathObserver | None = None, *,
                roots: "Sequence[tuple[bool, ...]] | None" = None,
                control: ExploreControl | None = None,
                order: str | None = None) -> ExplorationResult:
        """Run ``program`` over every feasible path (depth-first).

        Args:
            program: deterministic node program (see
                :mod:`repro.symex.context` for the determinism contract).
            observer: optional hook object; defaults to a no-op observer.
            roots: decision prefixes to seed the worklist with (default:
                the empty prefix, i.e. the whole tree). A prefix exported
                from another engine's :attr:`ExplorationResult.frontier`
                replays deterministically here — scheduled branches take
                the recorded direction without new solver checks — so the
                subtree below it is explored exactly as the exporting run
                would have.
            control: optional :class:`ExploreControl` consulted between
                paths; it may stop the run early, leaving the rest of
                the worklist (subtrees to explore elsewhere) in
                :attr:`ExplorationResult.frontier`.
            order: worklist order override for this run only (the
                explored tree — and with it every per-path output — is
                order-invariant; only completion sequence and worklist
                shape change). The shard scheduler seeds breadth-first
                this way: a DFS worklist stays as narrow as the tree is
                deep, while BFS widens with the tree's breadth, which is
                what a frontier needs.
        """
        order = order or self.config.search_order
        if order not in (DFS, BFS):
            raise SymexError(f"unknown search order {order!r}")
        observer = observer or PathObserver()
        stats = ExplorationStats()
        self._stats = stats
        results: list[PathResult] = []
        executed: list[tuple[tuple[bool, ...], str]] = []
        records: dict[tuple[bool, ...], object] = {}
        # deque: BFS pops from the left in O(1) where list.pop(0) is O(n).
        worklist: deque[tuple[bool, ...]] = deque(
            [()] if roots is None else [tuple(r) for r in roots])
        next_path_id = 0
        started = time.perf_counter()

        while worklist and (stats.paths_finished + stats.paths_limited
                            < self.config.max_paths):
            if control is not None and not control.checkpoint(len(worklist)):
                break
            if order == DFS:
                schedule = worklist.pop()
            else:
                schedule = worklist.popleft()
            state = PathState(path_id=next_path_id)
            next_path_id += 1
            ctx = ExecutionContext(self, state, schedule, observer, worklist)
            observer.on_path_start(ctx)
            verdict = self._run_one(program, ctx, state)
            result = finalize(state, verdict)
            executed.append((result.decisions, verdict))

            if verdict == st.INFEASIBLE:
                stats.paths_infeasible += 1
            elif verdict == st.DROPPED:
                stats.paths_dropped += 1
            elif verdict == st.PRUNED:
                stats.paths_pruned += 1
            elif verdict == st.LIMIT:
                stats.paths_limited += 1
                results.append(result)
            else:
                stats.paths_finished += 1
                results.append(result)
            record = observer.on_path_end(ctx, result)
            if record is not None:
                records[result.decisions] = record

        stats.elapsed_seconds = time.perf_counter() - started
        self._stats = None
        return ExplorationResult(paths=results, stats=stats,
                                 executed=executed, frontier=tuple(worklist),
                                 records=records)

    def _run_one(self, program: NodeProgram, ctx: ExecutionContext,
                 state: PathState) -> str:
        try:
            program(ctx)
        except _PathTerminated as terminated:
            return terminated.verdict
        except PathInfeasible:
            return st.INFEASIBLE
        except PathDropped:
            return st.DROPPED
        except ExplorationLimit:
            return st.LIMIT
        return state.verdict or self.config.default_verdict(state)

