"""Observer hooks into the symbolic execution engine.

The paper implements Achilles as S2E plugins that watch the server's
exploration and prune states that can no longer accept a Trojan message
(§3.2, Figure 7). :class:`PathObserver` is the equivalent extension point
here: the engine consults it at every constraint append, and the Achilles
server analysis implements its incremental search on top of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.solver.ast import Expr

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.symex.context import ExecutionContext
    from repro.symex.state import PathResult


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

    def on_constraint(self, ctx: "ExecutionContext", constraint: Expr) -> bool:
        """Called after a constraint is appended (branch or assumption).

        Returns:
            False to abandon the path (treated like a prune), True to keep
            exploring.
        """
        return True

    def on_path_end(self, ctx: "ExecutionContext",
                    result: "PathResult") -> object | None:
        """Called once the path has terminated with a verdict.

        Returns the observer's record of the path, or None (the default:
        nothing to record). A record must be picklable: the engine keeps
        it in :attr:`~repro.symex.engine.ExplorationResult.records` under
        the path's decision vector, and in a sharded run it travels home
        with the rest of the shard's outcome.
        """
        return None

    # -- sharded exploration ------------------------------------------------
    #
    # A shard worker keeps one observer for its whole session, so an
    # optional pair lets an observer's per-prefix memo travel:
    # export_memo() after the coordinator's seed phase, adopt_memo() in
    # each worker (and in a recovery walk) before it explores anything.
    # The base class has no memo to share.

    def export_memo(self) -> object | None:
        """Picklable copy of the per-prefix memo, or None (the default:
        nothing to share)."""
        return None

    def adopt_memo(self, memo: object) -> None:
        """Start from a memo another instance of the same configuration
        exported; called before this instance explores anything. The
        default ignores it."""
