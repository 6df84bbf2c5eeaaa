"""Incremental solving: a push/pop assertion stack with propagation reuse.

The exploration hot path almost never poses independent queries: the
symbolic-execution engine extends a path condition by one conjunct per
branch, the Trojan search poses the ``pc + probe`` shapes its prefix
trie could not decide against the same prefix, and witness queries
extend the path condition once more. The engine keeps one stack for all
of them, aligned in query order.
:class:`IncrementalSolver` amortizes solving across that structure instead
of restarting :meth:`~repro.solver.solver.Solver.check` from scratch.

Every :meth:`IncrementalSolver.push` creates a *frame* holding the
conjunct's canonicalized form and extends the interval-propagation fixpoint
reached so far: re-propagation is seeded only with the new conjuncts and
driven by a dirty-variable worklist
(:func:`~repro.solver.propagate.propagate_delta`), so constraints untouched
by the new conjunct's variables are never revisited. All domain writes go
through a trail (:class:`~repro.solver.propagate.TrailDomains`), so
:meth:`IncrementalSolver.pop` restores the parent fixpoint in O(changes) —
no dict copies, no recomputation.

:meth:`IncrementalSolver.check_current` resolves most hot-path queries
without the full solver:

* a contradiction found during incremental propagation is a sound UNSAT
  proof (the same soundness argument the from-scratch solver relies on);
* a candidate model assembled from the propagated domain lower bounds —
  with ``var == expr`` definition frames evaluated concretely — is
  *verified* against the original constraints; when every constraint
  holds, that is a sound SAT answer with a complete model;
* verification is by delta: the stack keeps the candidate it last
  verified and a holds/fails memo per canonical conjunct, a check drops
  the memo of every conjunct watching a variable whose candidate value
  changed, and :meth:`~IncrementalSolver.pop` drops the memo of the
  popped frame's conjuncts (they stop watching their variables). A
  conjunct's value depends only on its variables, so answers equal full
  verification, and an extend-by-one check evaluates about one conjunct
  instead of all of them;
* everything else falls back to a from-scratch
  :meth:`~repro.solver.solver.Solver.check`, so answers always agree with
  the non-incremental solver by construction.

In the full pipeline the layers hit in this order: canonicalize → query
cache (:mod:`repro.solver.cache`, identical queries) → incremental frame
stack (this module, prefix-sharing queries) → interval propagation →
fallback backtracking search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import SolverError
from repro.obs import trace as obs_trace
from repro.solver import interval as iv
from repro.solver.ast import Expr
from repro.solver.evalmodel import evaluate, holds
from repro.solver.propagate import (
    TrailDomains,
    VarIndex,
    default_pop_budget,
    propagate_delta,
)
from repro.solver.simplify import canonicalize
from repro.solver.solver import (
    SAT,
    UNSAT,
    SatResult,
    Solver,
    _as_definition,
    _flatten,
)
from repro.solver.sorts import BOOL
from repro.solver.walk import collect_vars


@dataclass
class _Frame:
    """One pushed conjunct: its canonical form plus undo bookkeeping.

    Attributes:
        raw: the conjunct exactly as pushed (interned, so prefix alignment
            compares at identity speed).
        conjuncts: canonicalized and flattened form actually propagated.
        mark: domain-trail position before this frame's writes.
        indexed: conjuncts registered in the variable index (empty when
            the frame was pushed onto an already-unsat stack).
        definitions: ``var == expr`` shapes among the conjuncts, used to
            complete candidate models concretely.
        extra_vars: variables of the raw conjunct that canonicalization
            simplified away; unconstrained, they default to 0 in models.
        unsat: propagation proved the stack unsatisfiable at (or above)
            this frame.
    """

    raw: Expr
    conjuncts: tuple[Expr, ...]
    mark: int
    indexed: tuple[Expr, ...] = ()
    definitions: tuple[tuple[Expr, Expr], ...] = ()
    extra_vars: tuple[Expr, ...] = ()
    unsat: bool = False


class IncrementalSolver:
    """Push/pop assertion stack reusing propagation across related queries.

    Args:
        solver: fallback satisfiability backend; quick answers and frame
            counters are recorded on its :class:`SolverStats`, so sharing
            the engine's solver keeps one coherent set of counters.
    """

    def __init__(self, solver: Solver | None = None):
        self.solver = solver or Solver()
        self._domains = TrailDomains()
        self._var_index: VarIndex = {}
        self._frames: list[_Frame] = []
        # Running canonical conjunct list across all frames (equivalent to
        # the conjunction of the raw pushes), so verification does not
        # re-flatten the stack on every check.
        self._canon: list[Expr] = []
        # Delta verification: the candidate model of the last check, and
        # whether each canonical conjunct held under it. A memo entry stays
        # valid while none of its conjunct's variables changes value.
        self._checked: dict[Expr, int] = {}
        self._holds: dict[Expr, bool] = {}

    # -- stack surface -------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._frames)

    def push(self, conjunct: Expr) -> None:
        """Assert one more conjunct, extending the propagation fixpoint."""
        if not isinstance(conjunct, Expr) or conjunct.sort != BOOL:
            raise SolverError("push() requires a boolean expression")
        mark = self._domains.mark()
        parent_unsat = self._frames[-1].unsat if self._frames else False
        conjuncts = tuple(c for c in _flatten([canonicalize(conjunct)])
                          if not c.is_true)
        frame = _Frame(raw=conjunct, conjuncts=conjuncts, mark=mark)
        self._frames.append(frame)
        self.solver.stats.frames_pushed += 1
        if parent_unsat or any(c.is_false for c in conjuncts):
            # Deeper frames cannot recover satisfiability; skip the
            # bookkeeping so pushes under a contradiction stay O(1).
            frame.unsat = True
            return
        definitions = []
        for constraint in conjuncts:
            for var in collect_vars(constraint):
                if var not in self._domains:
                    self._domains[var] = (iv.BOOL_FULL if var.sort == BOOL
                                          else iv.full(var.sort.width))
                self._var_index.setdefault(var, []).append(constraint)
            definition = _as_definition(constraint)
            if definition is not None:
                definitions.append(definition)
        frame.indexed = conjuncts
        frame.definitions = tuple(definitions)
        frame.extra_vars = tuple(var for var in collect_vars(conjunct)
                                 if var not in self._domains)
        self._canon.extend(conjuncts)
        started = time.perf_counter()
        ok = propagate_delta(self._domains, self._var_index, conjuncts,
                             max_pops=default_pop_budget(len(self._canon)))
        self.solver.stats.propagation_seconds += time.perf_counter() - started
        frame.unsat = not ok

    def pop(self) -> None:
        """Retract the top frame, restoring the parent fixpoint in O(changes)."""
        if not self._frames:
            raise SolverError("pop() on an empty assertion stack")
        frame = self._frames.pop()
        memo = self._holds
        for constraint in reversed(frame.indexed):
            # A popped conjunct stops watching its variables, so its memo
            # entry could go stale before a re-push; drop it now.
            memo.pop(constraint, None)
            for var in collect_vars(constraint):
                watchers = self._var_index[var]
                watchers.pop()
                if not watchers:
                    del self._var_index[var]
        if frame.indexed:
            del self._canon[len(self._canon) - len(frame.indexed):]
        self._domains.undo_to(frame.mark)

    def align(self, constraints: Sequence[Expr]) -> int:
        """Make the stack hold exactly ``constraints``, one frame each.

        Frames matching a prefix of ``constraints`` are kept (their
        propagation fixpoint is reused as-is); the rest are popped and the
        remaining conjuncts pushed. Returns the number of frames reused;
        also recorded in ``SolverStats.frames_reused``.
        """
        frames = self._frames
        common = 0
        for frame, conjunct in zip(frames, constraints):
            if frame.raw is conjunct or frame.raw == conjunct:
                common += 1
            else:
                break
        while len(frames) > common:
            self.pop()
        for conjunct in constraints[common:]:
            self.push(conjunct)
        self.solver.stats.frames_reused += common
        return common

    # -- solving -------------------------------------------------------------

    def check_current(self) -> SatResult:
        """Decide satisfiability of the current assertion stack.

        Agrees with a from-scratch ``Solver().check(stack)`` on every
        stack: the quick paths are sound (UNSAT only on a propagation
        contradiction, SAT only on a verified model) and everything else
        delegates to :meth:`Solver.check`.

        The candidate is verified by delta against the last checked one:
        a conjunct is re-evaluated only when one of its variables changed
        value or its memo entry was dropped by :meth:`pop`, and the walk
        over the stack stops at the first failing conjunct, exactly as a
        full evaluation would.
        """
        stats = self.solver.stats
        if self._frames and self._frames[-1].unsat:
            stats.queries += 1
            stats.unsat_answers += 1
            stats.quick_unsats += 1
            return SatResult(UNSAT)
        # Candidate: propagated lower bounds, with definition frames
        # (var == expr) evaluated concretely so checksum-style equalities
        # hold by construction, and simplified-away variables defaulted.
        candidate = {var: domain.lo for var, domain in self._domains.items()}
        for frame in self._frames:
            for var, rhs in frame.definitions:
                candidate[var] = evaluate(rhs, candidate)
            for var in frame.extra_vars:
                candidate.setdefault(var, 0)
        # Verified against the canonical conjuncts — equivalent to the raw
        # conjunction (canonicalization preserves equivalence), so a
        # holding candidate is a sound SAT answer with a complete model.
        # Only conjuncts watching a variable whose value changed since the
        # last check are re-evaluated; the rest keep their memoized value.
        checked, memo, index = self._checked, self._holds, self._var_index
        for var, value in candidate.items():
            if checked.get(var) != value:
                for constraint in index.get(var, ()):
                    memo.pop(constraint, None)
        self._checked = candidate
        cache: dict[Expr, int] = {}
        for constraint in self._canon:
            ok = memo.get(constraint)
            if ok is None:
                ok = memo[constraint] = holds(constraint, candidate, cache)
            if not ok:
                break
        else:
            stats.queries += 1
            stats.sat_answers += 1
            stats.quick_sats += 1
            # A copy: the memo is relative to the candidate kept above.
            return SatResult(SAT, dict(candidate))
        stats.incremental_fallbacks += 1
        # The fallback search starts from the frame stack's propagation
        # fixpoint rather than ⊤: every interval in `_domains` is implied
        # by the pushed conjuncts, so handing them over as seeds is sound
        # and saves the from-scratch pass re-deriving the narrowing the
        # stack already paid for. (Solver.check only reads the mapping.)
        return self.solver.check([frame.raw for frame in self._frames],
                                 seed_domains=self._domains)

    def check(self, constraints: Iterable[Expr]) -> SatResult:
        """Align the stack with ``constraints`` and decide satisfiability."""
        constraints = tuple(constraints)
        tracer = obs_trace.active
        if tracer is None:
            self.align(constraints)
            return self.check_current()
        with tracer.span("solver.incremental", conjuncts=len(constraints)):
            self.align(constraints)
            return self.check_current()

    def is_satisfiable(self, constraints: Iterable[Expr]) -> bool:
        return self.check(constraints).is_sat
