"""The ``differentFrom`` matrix (§3.3).

``differentFrom[i][j][field] = TRUE`` means predicate *i* admits at least
one message whose ``field`` value no message of predicate *j* can carry.
It is consulted during the server exploration: when a *single-field*
server constraint kills predicate *i*, every live predicate *j* with
``differentFrom[j][i][field] = FALSE`` offers no additional values for
that field and is dropped without a solver call.

The matrix is only defined for fields that are *independent* in both
predicates (no shared constraints or data flow with other fields) —
dependent fields could smuggle cross-field information past the argument
above.

The paper precomputes every entry. The search reads only the entries
``(j, i, field)`` of predicates *j* still live when *i* dies, a third of
the matrix on FSP, so entries are computed on first lookup and memoised
instead. Each entry poses the query the eager build posed,
``i_pred.combined(server_msg) + (negation_j,)``, on a per-row
:class:`~repro.solver.incremental.IncrementalSolver` holding row *i*'s
prefix: the prefix propagates once per row, and each entry costs one
push/pop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.achilles.mask import FieldMask
from repro.achilles.negate import PredicateNegation, negate_predicate
from repro.achilles.predicates import ClientPathPredicate
from repro.obs import trace as obs_trace
from repro.solver.ast import Expr
from repro.solver.incremental import IncrementalSolver
from repro.solver.solver import Solver


@dataclass
class DifferenceStats:
    """Counters of the entries computed so far."""

    entries_true: int = 0
    entries_false: int = 0

    @property
    def entries_computed(self) -> int:
        return self.entries_true + self.entries_false


class DifferentFrom:
    """Pairwise field-difference information, computed on demand.

    Args:
        predicates: the client predicate list ``PC`` (indices must match
            :attr:`ClientPathPredicate.index`).
        server_msg: the server message byte variables (shared frame for
            all combination queries).
        mask: fields hidden from analysis have no entries (``negations``
            must have been computed under the same mask).
        solver: backend of the row stacks; entry queries count on its
            :class:`~repro.solver.solver.SolverStats`.
        negations: ``negate(pathC_j)`` per predicate, as pre-processing
            computed them; when omitted they are computed here through
            the negate operator.
    """

    def __init__(self, predicates: list[ClientPathPredicate],
                 server_msg: tuple[Expr, ...],
                 mask: FieldMask | None = None,
                 solver: Solver | None = None,
                 negations: Sequence[PredicateNegation] | None = None):
        self._predicates = predicates
        self._server_msg = server_msg
        self._mask = mask or FieldMask.none()
        self._solver = solver or Solver()
        if negations is None:
            negations = [negate_predicate(pred, server_msg, self._mask,
                                          self._solver)
                         for pred in predicates]
        # Surviving per-(predicate, field) negation expressions; a hidden
        # field, or one whose negation was abandoned or discarded, has no
        # key.
        self._negations: dict[tuple[int, str], Expr] = {
            (negation.pred_index, disjunct.field): disjunct.expr
            for negation in negations for disjunct in negation.disjuncts}
        self._independent: dict[tuple[int, str], bool] = {}
        self._table: dict[tuple[int, int, str], bool] = {}
        self._rows: dict[int, tuple[tuple[Expr, ...], IncrementalSolver]] = {}
        self.stats = DifferenceStats()

    # -- queries -------------------------------------------------------------------

    def different(self, i: int, j: int, field: str) -> bool:
        """``differentFrom[i][j][field]``, computed on first lookup.

        Entries without a probe (hidden or dependent fields, abandoned
        negations) are True — "assume they might differ", which disables
        the shortcut and is always sound.
        """
        if i == j:
            return False
        entry = self._table.get((i, j, field))
        if entry is None:
            entry = self._table[(i, j, field)] = self._compute(i, j, field)
        return entry

    def droppable_with(self, i: int, field: str,
                       among: Iterable[int]) -> list[int]:
        """The j in ``among`` that can be dropped when i is killed by a
        ``field`` constraint.

        These are the j with ``differentFrom[j][i][field] = FALSE``: every
        field value of j is also a field value of i.
        """
        return [j for j in sorted(among)
                if j != i and not self.different(j, i, field)]

    # -- pickling ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Ship the memo table; drop the row stacks and their solver.

        Sharded exploration ships the whole :class:`ClientPredicateSet`
        (this matrix included) to worker processes, which compute the
        entries they need on stacks of their own.
        """
        state = self.__dict__.copy()
        del state["_rows"], state["_solver"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _rows={}, _solver=Solver())

    # -- entries -------------------------------------------------------------------

    def _compute(self, i: int, j: int, field: str) -> bool:
        negation_j = self._negations.get((j, field))
        if (negation_j is None or not self._is_independent(i, field)
                or not self._is_independent(j, field)):
            return True
        prefix, stack = self._row(i)
        tracer = obs_trace.active
        if tracer is None:
            entry = stack.check(prefix + (negation_j,)).is_sat
        else:
            with tracer.span("achilles.different_from"):
                entry = stack.check(prefix + (negation_j,)).is_sat
        if entry:
            self.stats.entries_true += 1
        else:
            self.stats.entries_false += 1
        return entry

    def _is_independent(self, index: int, field: str) -> bool:
        independent = self._independent.get((index, field))
        if independent is None:
            independent = self._independent[(index, field)] = (
                self._predicates[index].field_is_independent(field))
        return independent

    def _row(self, i: int) -> tuple[tuple[Expr, ...], IncrementalSolver]:
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = (
                self._predicates[i].combined(self._server_msg),
                IncrementalSolver(solver=self._solver))
        return row
