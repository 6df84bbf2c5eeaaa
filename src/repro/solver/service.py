"""Batched solver dispatch: one surface for bulk independent queries.

Two Achilles hot loops the paper calls embarrassingly parallel (§3.3) —
the pairwise ``differentFrom`` matrix and the per-predicate/per-field
negation probes — pose *independent* queries in bulk. :class:`SolverService`
gives them one batched surface:

* :meth:`SolverService.probe_batch` — feasibility of ``prefix + probe_i``
  for many probes against one shared prefix (the push/pop shape);
* :meth:`SolverService.check_batch` — full :class:`SatResult` (including a
  model) for each of many independent constraint conjunctions.

Both run in-process on one shared
:class:`~repro.solver.incremental.IncrementalSolver`, so callers that probe
the same prefix (the negate overlap checks and the ``differentFrom``
matrix) ride the same propagation frames. Results come back in input
order. Parallelism lives one layer up, in sharded exploration
(:mod:`repro.explore`), which splits the path tree itself.

When to batch vs. push/pop directly: the assertion stack is the right tool
for *sequentially dependent* queries (extend-by-one branch checks, where
each query's prefix is the previous query); the service is the right tool
when many queries are known *up front* and independent: one call answers
the bulk, and probes posed against one prefix propagate it once.
"""

from __future__ import annotations

from typing import Sequence

from repro.solver.ast import Expr
from repro.solver.incremental import IncrementalSolver
from repro.solver.solver import SatResult, Solver


class SolverService:
    """Batched satisfiability dispatch over one shared frame stack.

    Args:
        solver: satisfiability fallback of the shared stack; sharing a
            caller's solver keeps the service's counters on that
            solver's :class:`~repro.solver.solver.SolverStats`.
    """

    def __init__(self, solver: Solver | None = None):
        self.solver = solver or Solver()
        # Every caller of this service probes through one
        # IncrementalSolver, which is how the negate overlap checks and the
        # differentFrom matrix end up riding the same prefix frames.
        self.incremental = IncrementalSolver(solver=self.solver)

    def probe_batch(self, prefix: Sequence[Expr],
                    probes: Sequence[Sequence[Expr]]) -> list[bool]:
        """Feasibility of ``prefix + probe`` for every probe, in order."""
        prefix = tuple(prefix)
        return [self.incremental.check(prefix + tuple(probe)).is_sat
                for probe in probes]

    def check_batch(self, queries: Sequence[Sequence[Expr]]) -> list[SatResult]:
        """Full results (with models) for independent queries, in order."""
        return [self.incremental.check(tuple(query)) for query in queries]


__all__ = ["SolverService"]
