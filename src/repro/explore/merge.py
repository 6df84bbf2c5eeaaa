"""Deterministic merge of shard outcomes.

Which worker explores which frontier prefix is timing-dependent, but
the *explored tree* is not — so the merge reduces everything to canonical prefix order and
the result is a pure function of the tree: identical at any shard count,
and (for DFS-ordered runs) identical to the plain serial engine.

Three reductions happen here:

* **Paths** — every executed path (finished or not) is ranked by
  :func:`repro.symex.state.canonical_key` of its decision vector; ranks
  become the merged path ids. For the default DFS search order this
  reproduces the serial engine's ids exactly, because canonical order
  *is* DFS completion order.
* **Counters** — :class:`ExplorationStats` and worker-side
  :class:`SolverStats` fold in canonical outcome order (a fixed order,
  so float accumulation never depends on arrival order; the integer
  totals are partition-invariant, the float ones vary run-to-run exactly
  as wall clock does).
* **Observer findings** — the per-shard
  :class:`~repro.symex.observers.ObserverDelta` snapshots merge via
  :meth:`ObserverDelta.merge` (canonical per-path order, summed
  counters), ready for :meth:`PathObserver.restore`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import SymexError
from repro.explore.shard import Prefix, ShardOutcome
from repro.solver.solver import SolverStats
from repro.symex.engine import ExplorationResult, ExplorationStats
from repro.symex.observers import ObserverDelta
from repro.symex.state import canonical_key


@dataclass
class MergedExploration:
    """The deterministic reduction of all shard outcomes.

    Attributes:
        exploration: merged result — paths renumbered and sorted in
            canonical prefix order, counters summed
            (``stats.elapsed_seconds`` is aggregate shard CPU time until
            the scheduler overwrites it with coordinator wall clock).
        path_ids: decision vector -> canonical path id, covering every
            executed path (observers translate recorded ids through it).
        solver_stats: shard-side solver counters folded in canonical
            outcome order (the coordinator's own engine keeps its
            counters on its ``Solver`` as usual).
        delta: merged observer findings, or None for observer-less runs.
    """

    exploration: ExplorationResult
    path_ids: dict[Prefix, int]
    solver_stats: SolverStats
    delta: ObserverDelta | None


def merge_outcomes(outcomes: list[ShardOutcome]) -> MergedExploration:
    """Fold shard outcomes into one canonical exploration result."""
    # Fix the fold order first: outcomes sorted by the canonical rank of
    # their first executed path (empty outcomes last). Every per-outcome
    # aggregate below folds in this order.
    ordered = sorted(
        outcomes,
        key=lambda o: canonical_key(o.executed[0][0]) if o.executed else (2,))

    executed: list[tuple[Prefix, str]] = []
    for outcome in ordered:
        executed.extend(outcome.executed)
    executed.sort(key=lambda entry: canonical_key(entry[0]))
    path_ids = {decisions: rank
                for rank, (decisions, _verdict) in enumerate(executed)}
    if len(path_ids) != len(executed):
        raise SymexError(
            "shard outcomes overlap: the same decision vector was executed "
            "by two shards — prefixes must partition the tree")

    paths = [replace(path, path_id=path_ids[path.decisions])
             for outcome in ordered for path in outcome.paths]
    paths.sort(key=lambda path: path.path_id)

    stats = ExplorationStats()
    solver_stats = SolverStats()
    deltas: list[ObserverDelta] = []
    for outcome in ordered:
        if outcome.stats is not None:
            stats.merge(outcome.stats)
        solver_stats += outcome.solver_stats
        if outcome.delta is not None:
            deltas.append(outcome.delta)

    merged_delta = ObserverDelta.merge(deltas) if deltas else None
    exploration = ExplorationResult(paths=paths, stats=stats,
                                    executed=executed, frontier=())
    return MergedExploration(exploration=exploration, path_ids=path_ids,
                             solver_stats=solver_stats, delta=merged_delta)
