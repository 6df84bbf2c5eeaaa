"""Observer hooks into the symbolic execution engine.

The paper implements Achilles as S2E plugins that watch the server's
exploration and prune states that can no longer accept a Trojan message
(§3.2, Figure 7). :class:`PathObserver` is the equivalent extension point
here: the engine consults it at every branch and constraint append, and the
Achilles server analysis implements its incremental search on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.solver.ast import Expr
from repro.symex.state import canonical_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.symex.context import ExecutionContext
    from repro.symex.state import PathResult


@dataclass
class ObserverDelta:
    """Serializable reduction of one observer's findings.

    The sharded exploration layer (:mod:`repro.explore`) runs a private
    observer instance inside every shard worker, kept for the worker's
    whole session; a delta is what ships back to the coordinator after
    each assignment (:meth:`PathObserver.delta` drains the instance, so
    each delta covers that assignment's paths alone). It carries one
    entry per executed path —
    keyed by the path's decision vector, with an observer-defined
    picklable payload — plus whole-run counters, so the coordinator can
    rebuild the merged observer state in canonical path order regardless
    of which shard explored what (or in what order results arrived).
    """

    #: ``(decisions, payload)`` per executed path; payload semantics are
    #: owned by the observer class that produced the delta.
    per_path: list[tuple[tuple[bool, ...], object]] = field(
        default_factory=list)
    #: Additive whole-run counters (e.g. ``paths_seen``).
    counters: dict[str, int] = field(default_factory=dict)

    @classmethod
    def merge(cls, deltas: "list[ObserverDelta]") -> "ObserverDelta":
        """Combine shard deltas deterministically.

        Per-path entries are sorted by :func:`canonical_key` of their
        decision vector (paths of one exploration are prefix-free, so the
        key is total) and counters are summed — the result is a pure
        function of the explored tree, independent of shard count,
        stealing decisions and arrival order.
        """
        merged = cls()
        for delta in deltas:
            merged.per_path.extend(delta.per_path)
            for name, value in delta.counters.items():
                merged.counters[name] = merged.counters.get(name, 0) + value
        merged.per_path.sort(key=lambda entry: canonical_key(entry[0]))
        return merged


class PathObserver:
    """Default no-op observer; subclass and override what you need.

    All hooks run during *every* execution of a path, including scheduled
    replays of a forked prefix — implementations must therefore be
    deterministic functions of the constraint sequence. That also makes
    the state after a prefix memoizable per prefix, which is the intended
    way to keep replays cheap: a replayed constraint can restore its
    answer without re-posing any query (see
    :class:`~repro.achilles.server_analysis.TrojanSearchObserver`).
    """

    def on_path_start(self, ctx: "ExecutionContext") -> None:
        """Called before the node program starts executing a path."""

    def on_branch(self, ctx: "ExecutionContext", condition: Expr,
                  feasible_true: bool, feasible_false: bool) -> tuple[bool, bool]:
        """Called at a new symbolic branch point.

        Args:
            condition: the branch condition.
            feasible_true/feasible_false: solver feasibility of each side
                under the current path condition.

        Returns:
            The (possibly narrowed) pair of directions to explore. Returning
            ``(False, False)`` abandons the path entirely — this is how
            Achilles prunes server states that no Trojan message can reach.
        """
        return feasible_true, feasible_false

    def on_constraint(self, ctx: "ExecutionContext", constraint: Expr) -> bool:
        """Called after a constraint is appended (branch or assumption).

        Returns:
            False to abandon the path (treated like a prune), True to keep
            exploring.
        """
        return True

    def on_path_end(self, ctx: "ExecutionContext", result: "PathResult") -> None:
        """Called once the path has terminated with a verdict."""

    # -- sharded exploration protocol ---------------------------------------
    #
    # Observers that support decision-prefix sharding additionally
    # implement the pair below: delta() drains what this instance found
    # since its last delta() into a picklable ObserverDelta, and
    # restore() rebuilds the instance from a canonical merge of shard
    # deltas. The base class opts out (delta() -> None), which the
    # scheduler rejects when an observer is attached.
    #
    # A shard worker keeps one observer for its whole session, so a
    # second, optional pair lets an observer's per-prefix memo travel:
    # export_memo() after the coordinator's seed phase, adopt_memo() in
    # each worker (and in a recovery walk) before it explores anything.
    # The base class has no memo to share.

    def delta(self) -> ObserverDelta | None:
        """Drain the findings made since the last call, or None when not
        delta-capable.

        The returned delta covers exactly the paths executed since the
        previous ``delta()`` (or since construction); the instance then
        forgets those findings and counters, while any per-prefix memo
        stays, so one instance can serve many explorations whose deltas
        never double-count a path.
        """
        return None

    def export_memo(self) -> object | None:
        """Picklable copy of the per-prefix memo, or None (the default:
        nothing to share)."""
        return None

    def adopt_memo(self, memo: object) -> None:
        """Start from a memo another instance of the same configuration
        exported; called before this instance explores anything. The
        default ignores it."""

    def restore(self, delta: ObserverDelta,
                path_ids: dict[tuple[bool, ...], int]) -> None:
        """Replace this observer's findings with a merged delta's.

        Args:
            delta: canonical merge of all shard deltas (including this
                instance's own, if it explored anything).
            path_ids: decision vector -> renumbered path id, from the
                deterministic merge; implementations must translate any
                recorded path ids through it.
        """
