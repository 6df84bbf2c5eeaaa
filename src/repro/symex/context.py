"""Execution context handed to node programs under symbolic execution.

A *node program* is a deterministic Python callable ``program(ctx)`` that
expresses a distributed-system node against this context API instead of
real I/O:

* symbolic inputs come from :meth:`ExecutionContext.fresh_bytes` /
  :meth:`fresh_bitvec` (the paper's intercepted ``read`` system calls),
* control flow on symbolic data goes through :meth:`branch`,
* network output goes through :meth:`send` (captured, not transmitted),
* path classification uses :meth:`accept` / :meth:`reject`
  (the paper's ``mark_accept`` / ``mark_reject`` annotations).

Determinism is a hard requirement: the engine forks by *re-executing* the
program with a recorded decision prefix, so two runs with the same branch
decisions must perform identical sequences of context calls.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence, TYPE_CHECKING

from repro.errors import ExplorationLimit, PathDropped, PathInfeasible, SymexError
from repro.solver import ast
from repro.solver.ast import Expr
from repro.solver.evalmodel import evaluate
from repro.solver.sorts import BOOL
from repro.symex import state as path_state
from repro.symex.state import PathState, SentMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.symex.engine import Engine
    from repro.symex.observers import PathObserver


class _PathTerminated(Exception):
    """Internal control-flow signal carrying the path's final verdict."""

    def __init__(self, verdict: str):
        super().__init__(verdict)
        self.verdict = verdict


class ExecutionContext:
    """API surface a node program uses while being symbolically executed."""

    def __init__(self, engine: "Engine", state: PathState,
                 schedule: tuple[bool, ...], observer: "PathObserver",
                 pending: "deque[tuple[bool, ...]]"):
        self._engine = engine
        self._state = state
        self._schedule = schedule
        self._observer = observer
        self._pending = pending

    # -- inspection ---------------------------------------------------------

    @property
    def state(self) -> PathState:
        return self._state

    @property
    def path_condition(self) -> tuple[Expr, ...]:
        """The constraints accumulated so far on this path."""
        return tuple(self._state.constraints)

    @property
    def path_id(self) -> int:
        return self._state.path_id

    # -- symbolic inputs ------------------------------------------------------

    def fresh_bitvec(self, name: str, width: int) -> Expr:
        """A fresh symbolic bitvector input (paper: ``make_symbolic``)."""
        return ast.bv_var(self._state.fresh_name(name), width)

    def fresh_byte(self, name: str) -> Expr:
        return self.fresh_bitvec(name, 8)

    def fresh_bytes(self, name: str, count: int) -> list[Expr]:
        """``count`` fresh symbolic bytes named ``name[i]``."""
        base = self._state.fresh_name(name)
        return [ast.bv_var(f"{base}[{i}]", 8) for i in range(count)]

    def fresh_bool(self, name: str) -> Expr:
        return ast.bool_var(self._state.fresh_name(name))

    # -- control flow ----------------------------------------------------------

    def branch(self, condition) -> bool:
        """Follow a two-way branch on ``condition``; forks if both sides hold.

        Accepts a Python bool (no fork) or a boolean expression. Returns the
        concrete direction this execution follows.
        """
        if isinstance(condition, bool):
            return condition
        if not isinstance(condition, Expr) or condition.sort != BOOL:
            raise SymexError("branch() requires a bool or boolean expression")
        if condition.is_true:
            return True
        if condition.is_false:
            return False

        state = self._state
        if state.branch_count >= self._engine.config.max_branches_per_path:
            raise ExplorationLimit(
                f"path exceeded {self._engine.config.max_branches_per_path} branches")

        if state.branch_count < len(self._schedule):
            direction = self._schedule[state.branch_count]
            self._take(condition, direction)
            return direction

        # Both directions probe as push/pop against the shared pc prefix:
        # the engine's incremental frame stack keeps the prefix propagation
        # and swaps only the final conjunct between the two queries.
        pc = tuple(state.constraints)
        feasible_true, feasible_false = self._engine.branch_feasibility(
            pc, condition)
        if feasible_true and feasible_false:
            self._engine.note_fork()
            self._pending.append(tuple(state.decisions) + (False,))
        if feasible_true:
            self._take(condition, True)
            return True
        if feasible_false:
            self._take(condition, False)
            return False
        raise PathInfeasible("no feasible branch direction")

    def _take(self, condition: Expr, direction: bool) -> None:
        state = self._state
        constraint = condition if direction else ast.not_(condition)
        state.decisions.append(direction)
        state.branch_count += 1
        state.constraints.append(constraint)
        if not self._observer.on_constraint(self, constraint):
            raise _PathTerminated(path_state.PRUNED)

    def assume(self, condition) -> None:
        """Constrain the path; abandons it if the constraint is unsatisfiable."""
        if isinstance(condition, bool):
            if not condition:
                raise PathInfeasible("concrete assumption is false")
            return
        if not isinstance(condition, Expr) or condition.sort != BOOL:
            raise SymexError("assume() requires a bool or boolean expression")
        if condition.is_true:
            return
        state = self._state
        if condition.is_false or not self._engine.is_feasible(
                tuple(state.constraints) + (condition,)):
            raise PathInfeasible("assumption unsatisfiable on this path")
        state.constraints.append(condition)
        if not self._observer.on_constraint(self, condition):
            raise _PathTerminated(path_state.PRUNED)

    def drop_path(self) -> None:
        """Abandon the current path (paper: ``drop_path`` annotation)."""
        raise PathDropped("path dropped by annotation")

    def concretize(self, expr: Expr) -> int:
        """Pin ``expr`` to one concrete value consistent with the path."""
        result = self._engine.solve(tuple(self._state.constraints))
        if result is None:
            raise PathInfeasible("cannot concretize on infeasible path")
        model = dict(result)
        for var in ast_collect(expr):
            model.setdefault(var, 0)
        value = evaluate(expr, model)
        self.assume(expr.eq(value) if expr.sort != BOOL else
                    (expr if value else ast.not_(expr)))
        return value

    # -- network and classification ----------------------------------------------

    def send(self, destination: str, payload: Sequence[Expr | int]) -> None:
        """Capture an outgoing message (one expression per wire byte)."""
        wire: list[Expr] = []
        for item in payload:
            if isinstance(item, int):
                wire.append(ast.bv_const(item, 8))
            elif isinstance(item, Expr) and item.sort != BOOL and item.width == 8:
                wire.append(item)
            else:
                raise SymexError("send() payload items must be bytes "
                                 "(ints or 8-bit expressions)")
        self._state.sends.append(SentMessage(destination, tuple(wire)))

    def accept(self, label: str | None = None) -> None:
        """Terminate the path as *accepting* (paper: ``mark_accept``)."""
        if label is not None:
            self._state.labels.append(label)
        raise _PathTerminated(path_state.ACCEPTED)

    def reject(self, label: str | None = None) -> None:
        """Terminate the path as *rejecting* (paper: ``mark_reject``)."""
        if label is not None:
            self._state.labels.append(label)
        raise _PathTerminated(path_state.REJECTED)

    def label(self, tag: str) -> None:
        """Record a free-form mark on the path (kept in the result)."""
        self._state.labels.append(tag)


def ast_collect(expr: Expr):
    from repro.solver.walk import collect_vars

    return collect_vars(expr)
