"""Satisfiability search over bounded bitvector/boolean constraints.

This is the repo's substitute for the Z3/STP SMT solvers the Achilles paper
calls into. The decision procedure is:

1. **Definition elimination** — constraints of the form ``var == expr``
   (``var`` not occurring in ``expr``) are treated as definitions and
   substituted away. Message checksums and the Achilles "client message =
   server message" glue constraints collapse here.
2. **Interval propagation** (:mod:`repro.solver.propagate`).
3. **Backtracking search** with fail-first variable selection, domain
   enumeration for small domains and bisection for large ones.

Before any of that, :meth:`Solver.check` canonicalizes every constraint
(:mod:`repro.solver.simplify`): commuted/reordered/negated variants of the
same query collapse onto one shape, which both trims trivially-true
conjuncts ahead of the search and makes the canonical query cache
(:mod:`repro.solver.cache`) used by the symbolic-execution engine land on
the same key for all of them.

In the full exploration pipeline this module is the *last* layer: queries
flow canonicalize → query cache (identical queries) → incremental frame
stack (:mod:`repro.solver.incremental`, prefix-sharing queries resolved by
reused propagation fixpoints) → and only on those fast paths missing does
a from-scratch :meth:`Solver.check` run.

Every SAT answer is verified by concrete evaluation of all original
constraints, so propagation bugs cannot produce wrong models. Domains are
finite, so the search is complete: ``unsat`` answers are proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import SolverError, SolverTimeout
from repro.obs import trace as obs_trace
from repro.solver import ast
from repro.solver.ast import Expr
from repro.solver.evalmodel import all_hold, evaluate
from repro.solver.interval import Interval
from repro.solver.propagate import Domains, initial_domains, propagate
from repro.solver.simplify import canonicalize
from repro.solver.sorts import BOOL
from repro.solver.walk import collect_vars, collect_vars_all, expr_size, substitute

SAT = "sat"
UNSAT = "unsat"

_ENUMERATION_LIMIT = 512


@dataclass
class SatResult:
    """Outcome of a satisfiability check.

    Attributes:
        status: ``"sat"`` or ``"unsat"``.
        model: for SAT, a mapping from variable expressions to unsigned
            ints covering every variable in the constraints (and any
            requested extra variables); ``None`` for UNSAT.
    """

    status: str
    model: dict[Expr, int] | None = None

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    def value(self, var: Expr, default: int = 0) -> int:
        """Model value of ``var`` (unconstrained variables default to 0)."""
        if self.model is None:
            raise SolverError("no model available on an unsat result")
        return self.model.get(var, default)


@dataclass
class SolverStats:
    """Counters describing the work a solver instance has performed.

    ``cache_hits`` / ``cache_misses`` count canonical-query-cache lookups
    made *on this solver's behalf* — the :class:`~repro.symex.engine.Engine`
    consults its :class:`~repro.solver.cache.QueryCache` before calling
    :meth:`Solver.check` and mirrors the outcome here, so ``queries`` only
    grows on misses.

    The ``frames_*`` / ``quick_*`` / ``propagation_seconds`` /
    ``incremental_fallbacks`` counters describe the incremental layer
    (:class:`~repro.solver.incremental.IncrementalSolver`) when one wraps
    this solver: frames pushed onto / reused from the assertion stack,
    queries answered by the propagation-contradiction and verified-candidate
    fast paths, wall clock spent in incremental propagation, and queries
    that fell back to a from-scratch :meth:`Solver.check`.
    """

    queries: int = 0
    sat_answers: int = 0
    unsat_answers: int = 0
    branch_steps: int = 0
    propagation_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    frames_pushed: int = 0
    frames_reused: int = 0
    propagation_seconds: float = 0.0
    quick_sats: int = 0
    quick_unsats: int = 0
    incremental_fallbacks: int = 0

    # -- aggregation ---------------------------------------------------------
    #
    # Sharded exploration runs one SolverStats per shard assignment and
    # folds them into a single aggregate; every counter is a plain sum, so
    # merging is associative and (for the integer fields) order-
    # independent. ``propagation_seconds`` is a float accumulator — callers
    # that need bit-identical aggregates must merge in a fixed order, which
    # is what the scheduler's canonical merge does.

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Fold ``other``'s counters into this instance (returns self)."""
        for field_name in _STATS_FIELDS:
            setattr(self, field_name,
                    getattr(self, field_name) + getattr(other, field_name))
        return self

    def __iadd__(self, other: "SolverStats") -> "SolverStats":
        return self.merge(other)

    def copy(self) -> "SolverStats":
        """Independent snapshot (for before/after deltas)."""
        clone = SolverStats()
        for field_name in _STATS_FIELDS:
            setattr(clone, field_name, getattr(self, field_name))
        return clone

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups that hit (0.0 when none were made)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


_STATS_FIELDS = tuple(SolverStats.__dataclass_fields__)


@dataclass
class Solver:
    """A reusable satisfiability checker with a step budget and counters.

    The solver is stateless between queries (no incremental assertion
    stack); Achilles re-poses queries with explicit constraint lists, which
    keeps the engine simple and makes caching by the caller trivial.
    """

    max_branch_steps: int = 2_000_000
    stats: SolverStats = field(default_factory=SolverStats)

    def check(self, constraints: Iterable[Expr],
              extra_vars: Sequence[Expr] = (),
              seed_domains: dict[Expr, Interval] | None = None) -> SatResult:
        """Decide satisfiability of the conjunction of ``constraints``.

        Args:
            constraints: boolean expressions.
            extra_vars: variables to include in the model even when they do
                not occur in any constraint (they take value 0).
            seed_domains: optional per-variable intervals already *implied
                by the constraints* (e.g. an incremental frame stack's
                propagation fixpoint). The search starts from these instead
                of ⊤, so propagation re-derives less; soundness requires
                that every seed really is implied — a caller-side bug here
                is caught by the final model verification for SAT answers,
                but an unjustified seed could turn SAT into UNSAT.
        """
        tracer = obs_trace.active
        if tracer is None:
            return self._check(constraints, extra_vars, seed_domains)
        with tracer.span("solver.scratch"):
            return self._check(constraints, extra_vars, seed_domains)

    def _check(self, constraints: Iterable[Expr],
               extra_vars: Sequence[Expr] = (),
               seed_domains: dict[Expr, Interval] | None = None) -> SatResult:
        self.stats.queries += 1
        flat = _flatten(constraints)
        for c in flat:
            if c.sort != BOOL:
                raise SolverError("constraints must be boolean expressions")
        # Canonicalize before searching: syntactic variants collapse, and
        # rewrites may fold conjuncts to constants outright. The *original*
        # constraints are kept for model completion and final verification.
        canon = _flatten([canonicalize(c) for c in flat])
        if any(c.is_false for c in canon):
            return self._answer(SatResult(UNSAT))
        canon = [c for c in canon if not c.is_true]

        split, split_defs = _byte_split(canon)
        remaining, definitions = _eliminate_definitions(split)
        # Substitution rebuilds constraints in whatever shape the templates
        # had; canonicalizing again lets structurally-cancelling forms
        # (e.g. a checksum equated with its own definition) collapse before
        # the search sees them.
        remaining = _flatten([canonicalize(c) for c in remaining])
        if any(c.is_false for c in remaining):
            return self._answer(SatResult(UNSAT))
        remaining = [c for c in remaining if not c.is_true]
        model = self._search(remaining, seed_domains)
        if model is None:
            return self._answer(SatResult(UNSAT))

        _extend_with_definitions(model, definitions)
        _extend_with_definitions(model, split_defs)
        for var in extra_vars:
            model.setdefault(var, 0)
        for var in collect_vars_all(flat):
            model.setdefault(var, 0)
        if not all_hold(flat, model):
            raise SolverError("internal error: candidate model failed verification")
        return self._answer(SatResult(SAT, model))

    def is_satisfiable(self, constraints: Iterable[Expr]) -> bool:
        return self.check(constraints).is_sat

    # -- internals -----------------------------------------------------------

    def _answer(self, result: SatResult) -> SatResult:
        if result.is_sat:
            self.stats.sat_answers += 1
        else:
            self.stats.unsat_answers += 1
        return result

    def _search(self, constraints: list[Expr],
                seed_domains: dict[Expr, Interval] | None = None,
                ) -> dict[Expr, int] | None:
        """Core backtracking search; returns a model or None (unsat).

        Constraints are repaired in ascending variable-count order: small
        range/membership constraints get fixed first, leaving wide
        equalities (checksums) last, where interval propagation can invert
        them once all but one variable is pinned.
        """
        ordered = sorted(constraints,
                         key=lambda c: (len(collect_vars(c)), expr_size(c)))
        domains = initial_domains(ordered)
        if seed_domains:
            # Start from the caller's already-narrowed fixpoint instead of
            # ⊤. Only variables that survived definition elimination /
            # byte splitting appear in `domains`; seeds for eliminated or
            # split-away variables simply do not apply.
            for var, current in domains.items():
                seed = seed_domains.get(var)
                if seed is None:
                    continue
                narrowed = current.intersect(seed)
                if narrowed is None:
                    # Seeds are implied by the constraints, so an empty
                    # intersection is a (caller-provided) UNSAT proof.
                    return None
                domains[var] = narrowed
        return self._descend(ordered, domains)

    def _descend(self, constraints: list[Expr],
                 domains: Domains) -> dict[Expr, int] | None:
        self.stats.propagation_calls += 1
        narrowed = propagate(constraints, domains)
        if narrowed is None:
            return None

        # Fast path: try the all-lower-bounds assignment.
        candidate = {var: domain.lo for var, domain in narrowed.items()}
        violated = _first_violated(constraints, candidate)
        if violated is None:
            return candidate

        # Disjunctions are case-split DPLL-style: assert one arm at a time,
        # *replacing* the disjunction so it cannot be re-split. Value
        # enumeration cannot coordinate the multi-variable arms.
        arms = _split_arms(violated)
        if arms is not None:
            rest = [c for c in constraints if c is not violated]
            for arm in arms:
                if self.stats.branch_steps >= self.max_branch_steps:
                    raise SolverTimeout(
                        f"solver exceeded {self.max_branch_steps} branch steps")
                self.stats.branch_steps += 1
                model = self._descend(rest + _flatten([arm]), narrowed)
                if model is not None:
                    return model
            return None

        branch_var = _pick_branch_var(violated, narrowed)
        if branch_var is None:
            # Every variable of the violated constraint is pinned; the
            # constraint is definitely false on this branch.
            return None

        if self.stats.branch_steps >= self.max_branch_steps:
            raise SolverTimeout(
                f"solver exceeded {self.max_branch_steps} branch steps")

        domain = narrowed[branch_var]
        if domain.size <= _ENUMERATION_LIMIT:
            for value in domain:
                self.stats.branch_steps += 1
                trial = dict(narrowed)
                trial[branch_var] = Interval(value, value)
                model = self._descend(constraints, trial)
                if model is not None:
                    return model
            return None

        mid = (domain.lo + domain.hi) // 2
        for half in (Interval(domain.lo, mid), Interval(mid + 1, domain.hi)):
            self.stats.branch_steps += 1
            trial = dict(narrowed)
            trial[branch_var] = half
            model = self._descend(constraints, trial)
            if model is not None:
                return model
        return None


def _flatten(constraints: Iterable[Expr]) -> list[Expr]:
    """Split top-level conjunctions into individual constraints."""
    flat: list[Expr] = []
    for constraint in constraints:
        if constraint.op == "and":
            flat.extend(constraint.args)
        else:
            flat.append(constraint)
    return flat


def _byte_split(constraints: list[Expr]) -> tuple[list[Expr],
                                                  list[tuple[Expr, Expr]]]:
    """Decompose wide variables into byte variables.

    Every byte-aligned variable wider than 8 bits is replaced by a
    big-endian concat of fresh 8-bit variables. Combined with the
    extract-over-concat rewriting in :func:`repro.solver.ast.extract`,
    message-style arithmetic (checksums over extracted bytes, field
    comparisons) collapses to byte-level expressions, keeping search
    domains small and interval propagation precise.

    Returns:
        The rewritten constraints and ``(original_var, concat_expr)``
        definitions for rebuilding models.
    """
    wide = [var for var in collect_vars_all(constraints)
            if var.sort != BOOL and var.width > 8 and var.width % 8 == 0]
    if not wide:
        return constraints, []
    mapping: dict[Expr, Expr] = {}
    split_defs: list[tuple[Expr, Expr]] = []
    for var in sorted(wide, key=lambda v: v.name):
        count = var.width // 8
        parts = [ast.bv_var(f"{var.name}::b{i}", 8) for i in range(count)]
        combined = parts[0]
        for part in parts[1:]:
            combined = ast.concat(combined, part)
        mapping[var] = combined
        split_defs.append((var, combined))
    return [substitute(c, mapping) for c in constraints], split_defs


def _first_violated(constraints: list[Expr], model: dict[Expr, int]) -> Expr | None:
    cache: dict[Expr, int] = {}
    for constraint in constraints:
        if not evaluate(constraint, model, cache):
            return constraint
    return None


def _split_arms(violated: Expr) -> tuple[Expr, ...] | None:
    """Case-split alternatives of a violated constraint, if it has any.

    ``or`` splits into its arms; ``not(and(...))`` into the negated arms;
    ``ite(c, t, e)`` into the two guarded branches. Returns None for
    constraints without disjunctive structure.
    """
    if violated.op == "or":
        return violated.args
    if violated.op == "not" and violated.args[0].op == "and":
        return tuple(ast.not_(arg) for arg in violated.args[0].args)
    if violated.op == "ite":
        cond, then, alt = violated.args
        return (ast.and_(cond, then), ast.and_(ast.not_(cond), alt))
    return None


def _pick_branch_var(violated: Expr, domains: Domains) -> Expr | None:
    """Fail-first: the smallest non-singleton domain in the violated constraint.

    Ties break on the variable name so the search order is independent of
    hash randomization — reproducibility matters for the benchmarks, and
    some orders are pathologically worse than others.
    """
    best: Expr | None = None
    best_key: tuple[int, str] | None = None
    for var in collect_vars(violated):
        domain = domains.get(var)
        if domain is None or domain.is_singleton:
            continue
        key = (domain.size, var.name)
        if best_key is None or key < best_key:
            best, best_key = var, key
    return best


def _eliminate_definitions(
        constraints: list[Expr]) -> tuple[list[Expr], list[tuple[Expr, Expr]]]:
    """Substitute away ``var == expr`` definitions.

    Returns the remaining constraints and the eliminated ``(var, expr)``
    pairs in elimination order. A definition's right-hand side may reference
    variables eliminated *later*, so models are rebuilt in reverse order.
    """
    remaining = list(constraints)
    definitions: list[tuple[Expr, Expr]] = []
    progress = True
    while progress:
        progress = False
        for index, constraint in enumerate(remaining):
            definition = _as_definition(constraint)
            if definition is None:
                continue
            var, rhs = definition
            del remaining[index]
            mapping = {var: rhs}
            remaining = [substitute(c, mapping) for c in remaining]
            definitions = [(v, substitute(e, mapping)) for v, e in definitions]
            definitions.append((var, rhs))
            progress = True
            break
    return remaining, definitions


def _as_definition(constraint: Expr) -> tuple[Expr, Expr] | None:
    if constraint.op != "eq":
        return None
    lhs, rhs = constraint.args
    for var, expr in ((lhs, rhs), (rhs, lhs)):
        if var.is_var and var not in collect_vars(expr):
            return var, expr
    return None


def _extend_with_definitions(model: dict[Expr, int],
                             definitions: list[tuple[Expr, Expr]]) -> None:
    """Evaluate eliminated definitions (in reverse) to complete the model."""
    for var, rhs in reversed(definitions):
        for free in collect_vars(rhs):
            model.setdefault(free, 0)
        model[var] = evaluate(rhs, model)


def check(constraints: Iterable[Expr], extra_vars: Sequence[Expr] = ()) -> SatResult:
    """Module-level convenience wrapper using a fresh :class:`Solver`.

    A fresh instance per call keeps the convenience API stateless: a shared
    module-level solver would accumulate :class:`SolverStats` across
    unrelated runs and poison benchmark counters.
    """
    return Solver().check(constraints, extra_vars)


def is_satisfiable(constraints: Iterable[Expr]) -> bool:
    return Solver().check(constraints).is_sat
