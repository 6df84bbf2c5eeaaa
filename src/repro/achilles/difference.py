"""The ``differentFrom`` matrix (§3.3).

``differentFrom[i][j][field] = TRUE`` means predicate *i* admits at least
one message whose ``field`` value no message of predicate *j* can carry.
The matrix is precomputed once (the paper's pre-processing phase) by
running the per-field negate operator between every pair of predicates,
and consulted during the server exploration: when a *single-field* server
constraint kills predicate *i*, every predicate *j* with
``differentFrom[j][i][field] = FALSE`` offers no additional values for
that field and is dropped without a solver call.

The matrix is only defined for fields that are *independent* in both
predicates (no shared constraints or data flow with other fields) —
dependent fields could smuggle cross-field information past the argument
above.

Every entry is an independent query (the paper notes the precompute is
trivially parallelizable), so the matrix is built through the batched
:class:`~repro.solver.service.SolverService` as a single probe batch in
row-major order: each row poses the fixed ``i_pred.combined(server_msg)``
prefix plus one negation per (j, field) pair. The probes ride the
service's shared incremental frame stack, so a row's prefix propagates
once, shared with the negate operator's overlap probes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.achilles.mask import FieldMask
from repro.achilles.negate import negate_predicate
from repro.achilles.predicates import ClientPathPredicate
from repro.solver.ast import Expr
from repro.solver.service import SolverService
from repro.solver.solver import Solver

#: Per-(predicate index, field) surviving negation expression (None when
#: the negation was abandoned or discarded by the §4.1 overlap check).
FieldNegations = dict[tuple[int, str], Expr | None]


@dataclass
class DifferenceStats:
    """Counters from one matrix precomputation."""

    pairs_checked: int = 0
    solver_queries: int = 0
    entries_true: int = 0
    entries_false: int = 0
    fields_skipped_dependent: int = 0


class DifferentFrom:
    """Precomputed pairwise field-difference information.

    Args:
        predicates: the client predicate list ``PC`` (indices must match
            :attr:`ClientPathPredicate.index`).
        server_msg: the server message byte variables (shared frame for
            all combination queries).
        mask: fields hidden from analysis are skipped here too.
        solver: fallback solver when no service is given (a serial
            service is built around it).
        service: batched solver dispatch; pass the run's shared instance
            so matrix probes reuse its frame stack.
        field_negations: per-(predicate, field) negation expressions
            already computed by the pre-processing step; when omitted the
            matrix recomputes them via the negate operator.
    """

    def __init__(self, predicates: list[ClientPathPredicate],
                 server_msg: tuple[Expr, ...],
                 mask: FieldMask | None = None,
                 solver: Solver | None = None,
                 service: SolverService | None = None,
                 field_negations: FieldNegations | None = None):
        self._predicates = predicates
        self._server_msg = server_msg
        self._mask = mask or FieldMask.none()
        self._service = service or SolverService(solver=solver)
        self._table: dict[tuple[int, int, str], bool] = {}
        self._independent: dict[tuple[int, str], bool] = {}
        self.stats = DifferenceStats()
        self._build(field_negations)

    # -- queries -------------------------------------------------------------------

    def different(self, i: int, j: int, field: str) -> bool:
        """``differentFrom[i][j][field]``.

        Missing entries (dependent fields, abandoned negations) default to
        True — "assume they might differ", which disables the shortcut and
        is always sound.
        """
        if i == j:
            return False
        return self._table.get((i, j, field), True)

    def droppable_with(self, i: int, field: str) -> list[int]:
        """All j that can be dropped when i is killed by a ``field`` constraint.

        These are the j with ``differentFrom[j][i][field] = FALSE``: every
        field value of j is also a field value of i.
        """
        return [
            j for j in range(len(self._predicates))
            if j != i and not self.different(j, i, field)
        ]

    def is_independent(self, index: int, field: str) -> bool:
        return self._independent.get((index, field), False)

    # -- pickling ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop the solver service: the matrix is pure data after _build.

        Sharded exploration ships the whole :class:`ClientPredicateSet`
        (this matrix included) to worker processes; the service — and
        its frame stack — is only used during construction and need not
        travel.
        """
        state = self.__dict__.copy()
        state["_service"] = None
        return state

    # -- construction ----------------------------------------------------------------

    def _build(self, field_negations: FieldNegations | None) -> None:
        layout = self._predicates[0].layout if self._predicates else None
        if layout is None:
            return
        fields = self._mask.visible_fields(layout)
        for pred in self._predicates:
            for field in fields:
                self._independent[(pred.index, field)] = (
                    pred.field_is_independent(field))

        negations = (field_negations if field_negations is not None
                     else self._field_negations(fields))
        # The whole matrix goes out as one probe batch: every (i, j,
        # field) entry poses ``i_pred.combined(...) + (negation,)``.
        # Row-major order keeps each i's prefix consecutive, so the
        # service's frame stack propagates a row prefix once and
        # push/pops the negations against it.
        probes: list[tuple[Expr, ...]] = []
        entries: list[tuple[int, int, str]] = []
        for i_pred in self._predicates:
            prefix = i_pred.combined(self._server_msg)
            for j_pred in self._predicates:
                if i_pred.index == j_pred.index:
                    continue
                self.stats.pairs_checked += 1
                for field in fields:
                    if not (self._independent[(i_pred.index, field)]
                            and self._independent[(j_pred.index, field)]):
                        self.stats.fields_skipped_dependent += 1
                        continue
                    negation_j = negations.get((j_pred.index, field))
                    if negation_j is None:
                        continue  # negate abandoned: stay conservative
                    probes.append(prefix + (negation_j,))
                    entries.append((i_pred.index, j_pred.index, field))
        if not probes:
            return
        self.stats.solver_queries += len(probes)
        answers = self._service.probe_batch((), probes)
        for key, entry in zip(entries, answers):
            self._table[key] = entry
            if entry:
                self.stats.entries_true += 1
            else:
                self.stats.entries_false += 1

    def _field_negations(self, fields: tuple[str, ...]) -> FieldNegations:
        """Surviving per-field negation exprs, via the negate operator."""
        table: FieldNegations = {}
        for pred in self._predicates:
            for field in fields:
                table[(pred.index, field)] = None
            negation = negate_predicate(pred, self._server_msg, self._mask,
                                        service=self._service)
            for disjunct in negation.disjuncts:
                table[(pred.index, disjunct.field)] = disjunct.expr
        return table
