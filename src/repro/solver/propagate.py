"""Bounds (interval) propagation over constraint sets.

Propagation narrows per-variable unsigned intervals until a fixpoint. It is
sound but deliberately incomplete: anything it cannot narrow it leaves at the
full range, and the backtracking search in :mod:`repro.solver.solver` picks
up from there. A ``None`` result proves unsatisfiability.

Two entry points share the narrowing rules:

* :func:`propagate` — the from-scratch fixpoint over a whole constraint
  list, used by the backtracking search.
* :func:`propagate_delta` — incremental re-propagation driven by a
  dirty-variable worklist: seeded with just the constraints that changed
  (e.g. the one conjunct pushed onto an assertion stack), it re-visits only
  constraints touching variables whose domains actually narrowed, reusing
  the parent fixpoint for everything else. Combined with
  :class:`TrailDomains` — a domains dict journaling every write so a later
  ``undo_to`` restores the exact prior state in O(changes) — this is what
  lets :class:`~repro.solver.incremental.IncrementalSolver` pop a frame
  without recomputing or copying anything.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.errors import SolverError
from repro.solver import interval as iv
from repro.solver.ast import Expr
from repro.solver.interval import Interval, TRI_FALSE, TRI_TRUE, TRI_UNKNOWN
from repro.solver.sorts import BOOL, BitVecSort
from repro.solver.walk import collect_vars, collect_vars_all

Domains = dict[Expr, Interval]

#: Constraints watching each variable; drives the propagation worklist.
VarIndex = dict[Expr, list[Expr]]

_MAX_ROUNDS = 40

#: Trail sentinel: the key was absent before the write.
_ABSENT = object()


class TrailDomains(dict):
    """A :data:`Domains` dict journaling every write for O(changes) undo.

    All narrowing in this module funnels through plain item assignment
    (``domains[var] = interval``), so overriding ``__setitem__`` to record
    the previous binding is enough: :meth:`mark` snapshots a position in
    the write trail and :meth:`undo_to` replays the trail backwards to
    restore the exact dict state at that mark. Undo cost is proportional
    to the number of writes since the mark, never to the number of
    variables — the property the assertion-stack ``pop()`` and the model
    enumerator's backtracking rely on.

    Construction-time entries (``TrailDomains(initial)``) are not
    journaled; the trail starts empty.
    """

    __slots__ = ("_trail",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._trail: list[tuple[Expr, object]] = []

    def __setitem__(self, key: Expr, value: Interval) -> None:
        self._trail.append((key, dict.get(self, key, _ABSENT)))
        dict.__setitem__(self, key, value)

    def mark(self) -> int:
        """Current trail position, for a later :meth:`undo_to`."""
        return len(self._trail)

    def written_since(self, mark: int) -> list[Expr]:
        """Keys written since ``mark``, in write order (may repeat)."""
        return [key for key, _ in self._trail[mark:]]

    def undo_to(self, mark: int) -> None:
        """Restore the exact state the dict had when ``mark`` was taken."""
        trail = self._trail
        while len(trail) > mark:
            key, old = trail.pop()
            if old is _ABSENT:
                dict.pop(self, key, None)
            else:
                dict.__setitem__(self, key, old)


def build_var_index(constraints: Iterable[Expr]) -> VarIndex:
    """Map every variable to the constraints mentioning it."""
    index: VarIndex = {}
    for constraint in constraints:
        for var in collect_vars(constraint):
            index.setdefault(var, []).append(constraint)
    return index


def default_pop_budget(constraint_count: int) -> int:
    """Worklist visit budget matching the from-scratch round cap."""
    return _MAX_ROUNDS * max(8, constraint_count)


def propagate_delta(domains: TrailDomains, var_index: VarIndex,
                    seeds: Iterable[Expr],
                    max_pops: int | None = None) -> bool:
    """Re-propagate incrementally from a parent fixpoint.

    Seeds the worklist with ``seeds`` (typically the constraints just
    added, or those watching a variable just pinned); whenever a domain
    narrows, every constraint in ``var_index`` watching that variable is
    re-queued. Constraints untouched by any narrowed variable stay at the
    parent fixpoint and are never revisited.

    All writes go through ``domains``'s trail, so on a contradiction the
    caller recovers the pre-call state with ``undo_to``. Returns False
    when a contradiction proves the constraint set unsatisfiable, True
    otherwise. Visits beyond ``max_pops`` are abandoned (sound: domains
    merely stay wider), mirroring :data:`_MAX_ROUNDS` in the from-scratch
    pass.
    """
    worklist: deque[Expr] = deque(seeds)
    queued = set(worklist)
    if max_pops is None:
        max_pops = default_pop_budget(len(queued) + len(var_index))
    pops = 0
    try:
        while worklist:
            constraint = worklist.popleft()
            queued.discard(constraint)
            pops += 1
            if pops > max_pops:
                break
            mark = domains.mark()
            _assert_true(constraint, domains, {})
            for var in domains.written_since(mark):
                for watcher in var_index.get(var, ()):
                    if watcher not in queued:
                        queued.add(watcher)
                        worklist.append(watcher)
    except _Contradiction:
        return False
    return True


class _Contradiction(Exception):
    """Internal signal that a domain became empty."""


def initial_domains(constraints: Iterable[Expr]) -> Domains:
    """Full-range domains for every variable in ``constraints``."""
    domains: Domains = {}
    for var in collect_vars_all(constraints):
        domains[var] = iv.BOOL_FULL if var.sort == BOOL else iv.full(var.sort.width)
    return domains


def propagate(constraints: list[Expr], domains: Domains) -> Domains | None:
    """Narrow ``domains`` using every constraint, to fixpoint.

    Args:
        constraints: boolean expressions that must all hold.
        domains: starting domains; not mutated.

    Returns:
        The narrowed domains, or ``None`` if a contradiction proves the
        constraint set unsatisfiable.
    """
    state = dict(domains)
    try:
        for _ in range(_MAX_ROUNDS):
            changed = False
            for constraint in constraints:
                cache: dict[Expr, Interval] = {}
                changed |= _assert_true(constraint, state, cache)
            if not changed:
                break
    except _Contradiction:
        return None
    return state


def fixpoint(constraints: Iterable[Expr]) -> Domains | None:
    """:func:`propagate` of ``constraints`` alone, from full ranges."""
    constraints = list(constraints)
    return propagate(constraints, initial_domains(constraints))


def refutes(domains: Domains | None, constraint: Expr) -> bool:
    """True when ``constraint`` is false everywhere inside ``domains``.

    Every model of a constraint set lies inside its :func:`fixpoint`
    (None when propagation proved the set unsat), so with those domains
    True proves the set plus ``constraint`` unsatisfiable. False proves
    nothing.
    """
    return domains is None or forward(constraint, domains, {}).hi == 0


def forward(expr: Expr, domains: Domains, cache: dict[Expr, Interval]) -> Interval:
    """Sound interval over-approximation of ``expr`` under ``domains``."""
    hit = cache.get(expr)
    if hit is not None:
        return hit
    result = _forward(expr, domains, cache)
    cache[expr] = result
    return result


def _forward(expr: Expr, domains: Domains, cache: dict[Expr, Interval]) -> Interval:
    op = expr.op
    if op == "const":
        return iv.singleton(expr.params[0])
    if op == "var":
        domain = domains.get(expr)
        if domain is None:
            return iv.BOOL_FULL if expr.sort == BOOL else iv.full(expr.sort.width)
        return domain
    if op in ("add", "sub", "mul", "udiv", "urem", "bvand", "bvor", "bvxor",
              "shl", "lshr", "ashr"):
        a = forward(expr.args[0], domains, cache)
        b = forward(expr.args[1], domains, cache)
        return getattr(iv, op)(a, b, expr.width)
    if op in ("eq", "ult", "ule", "slt", "sle"):
        a = forward(expr.args[0], domains, cache)
        b = forward(expr.args[1], domains, cache)
        outcome = iv.compare(op, a, b, expr.args[0].width)
        if outcome == TRI_TRUE:
            return iv.singleton(1)
        if outcome == TRI_FALSE:
            return iv.singleton(0)
        return iv.BOOL_FULL
    if op == "and":
        if any(forward(a, domains, cache).hi == 0 for a in expr.args):
            return iv.singleton(0)
        if all(forward(a, domains, cache).lo == 1 for a in expr.args):
            return iv.singleton(1)
        return iv.BOOL_FULL
    if op == "or":
        if any(forward(a, domains, cache).lo == 1 for a in expr.args):
            return iv.singleton(1)
        if all(forward(a, domains, cache).hi == 0 for a in expr.args):
            return iv.singleton(0)
        return iv.BOOL_FULL
    if op == "not":
        inner = forward(expr.args[0], domains, cache)
        if inner.is_singleton:
            return iv.singleton(1 - inner.lo)
        return iv.BOOL_FULL
    if op == "neg":
        return iv.neg(forward(expr.args[0], domains, cache), expr.width)
    if op == "bvnot":
        return iv.bvnot(forward(expr.args[0], domains, cache), expr.width)
    if op == "zext":
        return iv.zext(forward(expr.args[0], domains, cache), expr.width)
    if op == "sext":
        return iv.sext(forward(expr.args[0], domains, cache), expr.args[0].width, expr.width)
    if op == "extract":
        hi_bit, lo_bit = expr.params
        return iv.extract(forward(expr.args[0], domains, cache), hi_bit, lo_bit,
                          expr.args[0].width)
    if op == "concat":
        hi_part = forward(expr.args[0], domains, cache)
        lo_part = forward(expr.args[1], domains, cache)
        return iv.concat(hi_part, lo_part, expr.args[1].width)
    if op == "ite":
        cond = forward(expr.args[0], domains, cache)
        if cond.is_singleton:
            chosen = expr.args[1] if cond.lo else expr.args[2]
            return forward(chosen, domains, cache)
        return forward(expr.args[1], domains, cache).hull(
            forward(expr.args[2], domains, cache))
    raise SolverError(f"cannot propagate through unknown operator {expr.op}")


def _assert_true(expr: Expr, domains: Domains, cache: dict[Expr, Interval]) -> bool:
    """Refine domains so the boolean ``expr`` can be true. Returns changed?"""
    op = expr.op
    if op == "const":
        if expr.params[0] == 0:
            raise _Contradiction()
        return False
    if op == "var":
        return _narrow(expr, iv.singleton(1), domains, cache)
    if op == "not":
        return _assert_false(expr.args[0], domains, cache)
    if op == "and":
        changed = False
        for arg in expr.args:
            changed |= _assert_true(arg, domains, cache)
        return changed
    if op == "or":
        # If all but one disjunct is definitely false, the last must hold.
        open_args = [a for a in expr.args if forward(a, domains, cache).hi != 0]
        if not open_args:
            raise _Contradiction()
        if len(open_args) == 1:
            return _assert_true(open_args[0], domains, cache)
        # All open arms bound the *same* variable: it must lie in the hull
        # of the per-arm intervals (one arm holds, each arm implies its
        # interval). Membership disjunctions (msg[0] == A ∨ msg[0] == B)
        # narrow here instead of leaving the full range to the search.
        hull = _common_var_hull(open_args)
        if hull is not None:
            return _narrow(hull[0], hull[1], domains, cache)
        return False
    if op in ("eq", "ult", "ule", "slt", "sle"):
        return _assert_comparison(op, expr.args[0], expr.args[1], domains, cache)
    if op == "ite":
        cond_iv = forward(expr.args[0], domains, cache)
        if cond_iv.is_singleton:
            chosen = expr.args[1] if cond_iv.lo else expr.args[2]
            return _assert_true(chosen, domains, cache)
        return False
    return False


def _assert_false(expr: Expr, domains: Domains, cache: dict[Expr, Interval]) -> bool:
    op = expr.op
    if op == "const":
        if expr.params[0] == 1:
            raise _Contradiction()
        return False
    if op == "var":
        return _narrow(expr, iv.singleton(0), domains, cache)
    if op == "not":
        return _assert_true(expr.args[0], domains, cache)
    if op == "or":
        changed = False
        for arg in expr.args:
            changed |= _assert_false(arg, domains, cache)
        return changed
    if op == "and":
        open_args = [a for a in expr.args if forward(a, domains, cache).lo != 1]
        if not open_args:
            raise _Contradiction()
        if len(open_args) == 1:
            return _assert_false(open_args[0], domains, cache)
        return False
    if op == "eq":
        a, b = expr.args
        fa = forward(a, domains, cache)
        fb = forward(b, domains, cache)
        changed = False
        # x != c prunes c only when it sits at a domain edge (intervals are
        # contiguous, so interior holes cannot be represented).
        if fb.is_singleton:
            changed |= _exclude_edge(a, fb.lo, domains, cache)
        if fa.is_singleton:
            changed |= _exclude_edge(b, fa.lo, domains, cache)
        if fa.is_singleton and fb.is_singleton and fa.lo == fb.lo:
            raise _Contradiction()
        return changed
    if op == "ult":
        # not(a < b)  <=>  b <= a
        return _assert_comparison("ule", expr.args[1], expr.args[0], domains, cache)
    if op == "ule":
        return _assert_comparison("ult", expr.args[1], expr.args[0], domains, cache)
    if op == "slt":
        return _assert_comparison("sle", expr.args[1], expr.args[0], domains, cache)
    if op == "sle":
        return _assert_comparison("slt", expr.args[1], expr.args[0], domains, cache)
    return False


def _assert_comparison(op: str, a: Expr, b: Expr, domains: Domains,
                       cache: dict[Expr, Interval]) -> bool:
    fa = forward(a, domains, cache)
    fb = forward(b, domains, cache)
    width = a.width
    # Decide the comparison outright when the intervals already settle it:
    # definitely-false must raise (otherwise the search keeps exploring a
    # doomed subtree), definitely-true needs no narrowing.
    outcome = iv.compare(op, fa, fb, width)
    if outcome == TRI_FALSE:
        raise _Contradiction()
    if outcome == TRI_TRUE:
        return False
    changed = False
    if op == "eq":
        target = fa.intersect(fb)
        if target is None:
            raise _Contradiction()
        changed |= _narrow(a, target, domains, cache)
        changed |= _narrow(b, target, domains, cache)
        return changed
    if op == "ult":
        if fb.hi == 0:
            raise _Contradiction()
        changed |= _narrow(a, Interval(0, fb.hi - 1), domains, cache)
        mask = (1 << width) - 1
        lo = min(fa.lo + 1, mask)
        changed |= _narrow(b, Interval(lo, mask), domains, cache)
        return changed
    if op == "ule":
        changed |= _narrow(a, Interval(0, fb.hi), domains, cache)
        changed |= _narrow(b, Interval(fa.lo, (1 << width) - 1), domains, cache)
        return changed
    if op in ("slt", "sle"):
        sa = iv.signed_bounds(fa, width)
        sb = iv.signed_bounds(fb, width)
        strict = op == "slt"
        if sb is not None:
            hi_signed = sb[1] - 1 if strict else sb[1]
            narrowed = _signed_upper_bound(hi_signed, width)
            if narrowed is None:
                raise _Contradiction()
            changed |= _narrow_signed(a, narrowed, domains, cache)
        if sa is not None:
            lo_signed = sa[0] + 1 if strict else sa[0]
            narrowed = _signed_lower_bound(lo_signed, width)
            if narrowed is None:
                raise _Contradiction()
            changed |= _narrow_signed(b, narrowed, domains, cache)
        return changed
    raise SolverError(f"unknown comparison operator {op}")


def _common_var_hull(arms: list[Expr]) -> tuple[Expr, Interval] | None:
    """Interval implied by a disjunction whose arms all bound one variable.

    Returns ``(var, hull)`` when every arm is a recognized var-vs-constant
    comparison over the same bitvector variable, None otherwise.
    """
    var: Expr | None = None
    hull: Interval | None = None
    for arm in arms:
        bounds = _arm_bounds(arm)
        if bounds is None:
            return None
        if var is None:
            var, hull = bounds
        elif bounds[0] is var:
            hull = hull.hull(bounds[1])
        else:
            return None
    if var is None:
        return None
    return var, hull


def _arm_bounds(arm: Expr) -> tuple[Expr, Interval] | None:
    """``(var, interval)`` implied by a var-vs-constant comparison arm."""
    if arm.op not in ("eq", "ult", "ule"):
        return None
    lhs, rhs = arm.args
    if lhs.is_var and lhs.sort != BOOL and rhs.is_const:
        var, value, var_left = lhs, rhs.params[0], True
    elif rhs.is_var and rhs.sort != BOOL and lhs.is_const:
        var, value, var_left = rhs, lhs.params[0], False
    else:
        return None
    mask = (1 << var.width) - 1
    if arm.op == "eq":
        return var, Interval(value, value)
    if arm.op == "ult":
        if var_left:
            return (var, Interval(0, value - 1)) if value > 0 else None
        return (var, Interval(value + 1, mask)) if value < mask else None
    if var_left:
        return var, Interval(0, value)
    return var, Interval(value, mask)


def _signed_upper_bound(hi_signed: int, width: int) -> tuple[int, int] | None:
    """Signed range (min_signed, hi_signed), or None if empty."""
    min_signed = -(1 << (width - 1))
    if hi_signed < min_signed:
        return None
    return (min_signed, min(hi_signed, (1 << (width - 1)) - 1))


def _signed_lower_bound(lo_signed: int, width: int) -> tuple[int, int] | None:
    max_signed = (1 << (width - 1)) - 1
    if lo_signed > max_signed:
        return None
    return (max(lo_signed, -(1 << (width - 1))), max_signed)


def _narrow_signed(expr: Expr, signed_range: tuple[int, int], domains: Domains,
                   cache: dict[Expr, Interval]) -> bool:
    """Narrow ``expr`` to a signed range, if it maps to a contiguous unsigned one."""
    lo, hi = signed_range
    width = expr.width
    period = 1 << width
    if lo >= 0:
        return _narrow(expr, Interval(lo, hi), domains, cache)
    if hi < 0:
        return _narrow(expr, Interval(lo + period, hi + period), domains, cache)
    # Straddles zero: [lo, hi] maps to [0, hi] U [lo+2^w, mask] — not
    # contiguous, so nothing sound can be pushed.
    return False


def _exclude_edge(expr: Expr, value: int, domains: Domains,
                  cache: dict[Expr, Interval]) -> bool:
    """Refine ``expr != value`` when ``value`` is at an edge of its interval."""
    current = forward(expr, domains, cache)
    if current.is_singleton:
        if current.lo == value:
            raise _Contradiction()
        return False
    if current.lo == value:
        return _narrow(expr, Interval(value + 1, current.hi), domains, cache)
    if current.hi == value:
        return _narrow(expr, Interval(current.lo, value - 1), domains, cache)
    return False


def _narrow(expr: Expr, target: Interval, domains: Domains,
            cache: dict[Expr, Interval]) -> bool:
    """Push ``target`` down into ``expr``, narrowing variable domains.

    Only shapes with an exact inverse are handled; everything else is a
    sound no-op. Returns True when any domain changed.
    """
    op = expr.op
    if op == "const":
        if not target.contains(expr.params[0]):
            raise _Contradiction()
        return False
    if op == "var":
        current = domains.get(expr)
        if current is None:
            current = iv.BOOL_FULL if expr.sort == BOOL else iv.full(expr.sort.width)
        narrowed = current.intersect(target)
        if narrowed is None:
            raise _Contradiction()
        if narrowed != current:
            domains[expr] = narrowed
            cache.clear()
            return True
        return False
    if op == "add":
        # Invert through whichever operand is pinned (not just constants):
        # this is what lets long checksum chains force their last free term.
        fa = forward(expr.args[0], domains, cache)
        fb = forward(expr.args[1], domains, cache)
        if fb.is_singleton:
            inner = iv.sub(target, fb, expr.width)
            return _narrow(expr.args[0], inner, domains, cache)
        if fa.is_singleton:
            inner = iv.sub(target, fa, expr.width)
            return _narrow(expr.args[1], inner, domains, cache)
        return False
    if op == "sub":
        fa = forward(expr.args[0], domains, cache)
        fb = forward(expr.args[1], domains, cache)
        if fb.is_singleton:
            inner = iv.add(target, fb, expr.width)
            return _narrow(expr.args[0], inner, domains, cache)
        if fa.is_singleton:
            inner = iv.sub(fa, target, expr.width)
            return _narrow(expr.args[1], inner, domains, cache)
        return False
    if op == "bvxor" and target.is_singleton:
        fa = forward(expr.args[0], domains, cache)
        fb = forward(expr.args[1], domains, cache)
        if fb.is_singleton:
            return _narrow(expr.args[0], iv.singleton(target.lo ^ fb.lo),
                           domains, cache)
        if fa.is_singleton:
            return _narrow(expr.args[1], iv.singleton(target.lo ^ fa.lo),
                           domains, cache)
        return False
    if op == "zext":
        inner_full = iv.full(expr.args[0].width)
        clipped = target.intersect(inner_full)
        if clipped is None:
            raise _Contradiction()
        return _narrow(expr.args[0], clipped, domains, cache)
    if op == "concat":
        lo_width = expr.args[1].width
        hi_target = Interval(target.lo >> lo_width, target.hi >> lo_width)
        changed = _narrow(expr.args[0], hi_target, domains, cache)
        if hi_target.is_singleton:
            # The low part's bounds only project cleanly when the high
            # part is fixed across the whole target range.
            mask = (1 << lo_width) - 1
            changed |= _narrow(
                expr.args[1], Interval(target.lo & mask, target.hi & mask),
                domains, cache)
        return changed
    if op == "ite":
        cond_iv = forward(expr.args[0], domains, cache)
        if cond_iv.is_singleton:
            chosen = expr.args[1] if cond_iv.lo else expr.args[2]
            return _narrow(chosen, target, domains, cache)
        then_iv = forward(expr.args[1], domains, cache)
        else_iv = forward(expr.args[2], domains, cache)
        if then_iv.intersect(target) is None and else_iv.intersect(target) is None:
            raise _Contradiction()
        changed = False
        if then_iv.intersect(target) is None:
            changed |= _assert_false(expr.args[0], domains, cache)
            changed |= _narrow(expr.args[2], target, domains, cache)
        elif else_iv.intersect(target) is None:
            changed |= _assert_true(expr.args[0], domains, cache)
            changed |= _narrow(expr.args[1], target, domains, cache)
        return changed
    return False
