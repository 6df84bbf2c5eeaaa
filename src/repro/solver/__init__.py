"""Bitvector/boolean constraint solver — the repo's Z3/STP substitute.

Public surface:

* Expression construction: :func:`bv_const`, :func:`bv_var`,
  :func:`bool_var`, the operator overloads on :class:`Expr`, and the
  combinators in :mod:`repro.solver.ast` (``and_``, ``or_``, ``not_``,
  ``ite``, ``zext``, ``concat``, …).
* Satisfiability: :func:`check` / :class:`Solver` returning
  :class:`SatResult` with a verified model.
* Canonicalization: :func:`canonicalize` /
  :func:`canonical_constraint_set` (:mod:`repro.solver.simplify`) collapse
  syntactic variants of a query onto one shape; :class:`QueryCache`
  (:mod:`repro.solver.cache`) memoizes satisfiability answers keyed on the
  canonical frozen constraint set.
* Incremental solving: :class:`IncrementalSolver`
  (:mod:`repro.solver.incremental`) — a push/pop assertion stack where
  each frame extends the interval-propagation fixpoint and popping undoes
  it in O(changes) via the domain write trail
  (:class:`~repro.solver.propagate.TrailDomains`).
* Enumeration: :func:`count_models` / :func:`iter_models` for bounded
  spaces (used by the evaluation benchmarks).
* Batched dispatch: :class:`SolverService` (:mod:`repro.solver.service`)
  answers bulk independent queries — ``check_batch`` / ``probe_batch`` —
  in input order through one shared :class:`IncrementalSolver`.

Query pipeline, outermost layer first — each layer only sees what the
previous one could not answer: **canonicalize** (syntactic variants
collapse) → **query cache** (identical queries) → **incremental frame
stack** (prefix-sharing queries: reused propagation + verified-candidate /
contradiction fast paths) → **propagation + backtracking search**
(everything else, from scratch).
"""

from repro.solver.ast import (
    Expr,
    FALSE,
    TRUE,
    all_of,
    and_,
    any_of,
    bool_const,
    bool_var,
    bv_const,
    bv_var,
    bytes_to_exprs,
    concat,
    eq,
    extract,
    iff,
    implies,
    ite,
    ne,
    not_,
    or_,
    sext,
    sge,
    sgt,
    sle,
    slt,
    uge,
    ugt,
    ule,
    ult,
    zext,
)
from repro.solver.cache import CacheStats, QueryCache
from repro.solver.enumerate import count_models, iter_models
from repro.solver.evalmodel import all_hold, evaluate, holds
from repro.solver.incremental import IncrementalSolver
from repro.solver.propagate import TrailDomains, build_var_index, propagate_delta
from repro.solver.service import SolverService
from repro.solver.simplify import canonical_constraint_set, canonicalize
from repro.solver.solver import SAT, UNSAT, SatResult, Solver, SolverStats, check, is_satisfiable
from repro.solver.sorts import BOOL, BV8, BV16, BV32, BV64, BitVecSort, bitvec_sort
from repro.solver.walk import collect_vars, collect_vars_all, expr_size, simplify, substitute

__all__ = [
    "BOOL", "BV8", "BV16", "BV32", "BV64", "BitVecSort", "CacheStats",
    "Expr", "FALSE", "IncrementalSolver", "QueryCache", "SAT", "SatResult",
    "Solver", "SolverService", "SolverStats", "TRUE", "TrailDomains",
    "UNSAT", "all_hold",
    "all_of", "and_", "any_of", "bitvec_sort", "bool_const", "bool_var",
    "build_var_index", "bv_const", "bv_var", "bytes_to_exprs",
    "canonical_constraint_set",
    "canonicalize", "check", "collect_vars",
    "collect_vars_all", "concat", "count_models", "eq", "evaluate",
    "expr_size", "extract", "holds", "iff", "implies", "is_satisfiable",
    "ite", "iter_models", "ne", "not_", "or_", "propagate_delta", "sext",
    "sge", "sgt",
    "simplify", "sle", "slt", "substitute", "uge", "ugt", "ule", "ult",
    "zext",
]
