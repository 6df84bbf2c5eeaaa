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

The kernel under both is four walks over a constraint's nodes:
:func:`forward` (the interval a term can take), ``_assert_true`` and
``_assert_false`` (narrow so a boolean can hold or fail) and ``_narrow``
(push a target interval down into a term). Each dispatches on the node's
operator through a table of per-operator rules (``_FORWARD``,
``_ASSERT_TRUE``, ``_ASSERT_FALSE``, ``_NARROW``); every operator of the
expression language has an entry in each, so a missing entry means an
unknown operator and raises :class:`~repro.errors.SolverError`. Variables
and constants are answered before the forward cache is consulted, constants
and 0/1 results are shared immutable intervals (:func:`interval.singleton`),
and widths are read from the node's sort. One forward cache serves a whole
fixpoint computation; every domain write clears it, so each cached interval
always matches the current domains.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.errors import SolverError
from repro.solver import interval as iv
from repro.solver.ast import BV_BINARY_OPS, BV_UNARY_OPS, Expr
from repro.solver.interval import Interval, TRI_FALSE, TRI_TRUE, TRI_UNKNOWN
from repro.solver.sorts import BOOL
from repro.solver.walk import collect_vars, collect_vars_all

Domains = dict[Expr, Interval]

#: Constraints watching each variable; drives the propagation worklist.
VarIndex = dict[Expr, list[Expr]]

_MAX_ROUNDS = 40

_SMALL = iv.SMALL_SINGLETONS
_SMALL_LIMIT = len(_SMALL)

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
    trail = domains._trail
    cache: dict[Expr, Interval] = {}
    pops = 0
    try:
        while worklist:
            constraint = worklist.popleft()
            queued.discard(constraint)
            pops += 1
            if pops > max_pops:
                break
            mark = len(trail)
            _assert_true(constraint, domains, cache)
            # Wake the watchers of every variable this visit wrote.
            for position in range(mark, len(trail)):
                for watcher in var_index.get(trail[position][0], ()):
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
        domains[var] = _full(var)
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
    cache: dict[Expr, Interval] = {}
    try:
        for _ in range(_MAX_ROUNDS):
            changed = False
            for constraint in constraints:
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


def _full(var: Expr) -> Interval:
    """The whole range of ``var``'s sort."""
    return iv.BOOL_FULL if var.sort is BOOL else iv.full(var.sort.width)


def _unknown_operator(expr: Expr) -> SolverError:
    return SolverError(f"cannot propagate through unknown operator {expr.op}")


# -- forward: the interval a term can take ------------------------------------


def forward(expr: Expr, domains: Domains, cache: dict[Expr, Interval]) -> Interval:
    """Sound interval over-approximation of ``expr`` under ``domains``.

    ``cache`` memoizes compound nodes; it must be cleared whenever
    ``domains`` changes (``_narrow`` does so on every write).
    """
    op = expr.op
    if op == "var":
        domain = domains.get(expr)
        return _full(expr) if domain is None else domain
    if op == "const":
        value = expr.params[0]
        return _SMALL[value] if value < _SMALL_LIMIT else Interval(value, value)
    hit = cache.get(expr)
    if hit is None:
        rule = _FORWARD.get(op)
        if rule is None:
            raise _unknown_operator(expr)
        hit = cache[expr] = rule(expr, domains, cache)
    return hit


def _forward_unary(transfer):
    def rule(expr, domains, cache):
        return transfer(forward(expr.args[0], domains, cache), expr.sort.width)
    return rule


def _forward_binary(transfer):
    def rule(expr, domains, cache):
        a, b = expr.args
        return transfer(forward(a, domains, cache), forward(b, domains, cache),
                        expr.sort.width)
    return rule


#: A comparison's tri-valued outcome as a boolean interval.
_TRI_INTERVALS = {TRI_TRUE: iv.ONE, TRI_FALSE: iv.ZERO,
                  TRI_UNKNOWN: iv.BOOL_FULL}


def _forward_comparison(decide):
    def rule(expr, domains, cache):
        a, b = expr.args
        return _TRI_INTERVALS[decide(forward(a, domains, cache),
                                     forward(b, domains, cache),
                                     a.sort.width)]
    return rule


def _forward_and(expr, domains, cache):
    all_true = True
    for arg in expr.args:
        value = forward(arg, domains, cache)
        if value.hi == 0:
            return iv.ZERO
        if value.lo != 1:
            all_true = False
    return iv.ONE if all_true else iv.BOOL_FULL


def _forward_or(expr, domains, cache):
    all_false = True
    for arg in expr.args:
        value = forward(arg, domains, cache)
        if value.lo == 1:
            return iv.ONE
        if value.hi != 0:
            all_false = False
    return iv.ZERO if all_false else iv.BOOL_FULL


def _forward_not(expr, domains, cache):
    inner = forward(expr.args[0], domains, cache)
    if inner.lo == inner.hi:
        return iv.singleton(1 - inner.lo)
    return iv.BOOL_FULL


def _forward_zext(expr, domains, cache):
    # Zero extension keeps every unsigned value as it is.
    return forward(expr.args[0], domains, cache)


def _forward_sext(expr, domains, cache):
    inner = expr.args[0]
    return iv.sext(forward(inner, domains, cache), inner.sort.width,
                   expr.sort.width)


def _forward_extract(expr, domains, cache):
    inner = expr.args[0]
    hi_bit, lo_bit = expr.params
    return iv.extract(forward(inner, domains, cache), hi_bit, lo_bit,
                      inner.sort.width)


def _forward_concat(expr, domains, cache):
    hi_part, lo_part = expr.args
    return iv.concat(forward(hi_part, domains, cache),
                     forward(lo_part, domains, cache), lo_part.sort.width)


def _forward_ite(expr, domains, cache):
    cond, then, otherwise = expr.args
    chosen = forward(cond, domains, cache)
    if chosen.lo == chosen.hi:
        return forward(then if chosen.lo else otherwise, domains, cache)
    return forward(then, domains, cache).hull(
        forward(otherwise, domains, cache))


#: Compound operator -> forward rule. Variables and constants are answered
#: by :func:`forward` itself.
_FORWARD = {
    **{op: _forward_unary(getattr(iv, op)) for op in BV_UNARY_OPS},
    **{op: _forward_binary(getattr(iv, op)) for op in BV_BINARY_OPS},
    **{op: _forward_comparison(decide)
       for op, decide in iv.COMPARISONS.items()},
    "and": _forward_and,
    "or": _forward_or,
    "not": _forward_not,
    "zext": _forward_zext,
    "sext": _forward_sext,
    "extract": _forward_extract,
    "concat": _forward_concat,
    "ite": _forward_ite,
}

#: Every operator of the expression language; the assert and narrow tables
#: map each one without a rule of its own to :func:`_no_rule`.
_OPERATORS = ("var", "const", *_FORWARD)


def _no_rule(expr, *args) -> bool:
    """A shape with no narrowing rule: a sound no-op."""
    return False


# -- assert: narrow so a boolean holds or fails -------------------------------


def _assert_true(expr: Expr, domains: Domains, cache: dict[Expr, Interval]) -> bool:
    """Refine domains so the boolean ``expr`` can be true. Returns changed?"""
    rule = _ASSERT_TRUE.get(expr.op)
    if rule is None:
        raise _unknown_operator(expr)
    return rule(expr, domains, cache)


def _assert_false(expr: Expr, domains: Domains, cache: dict[Expr, Interval]) -> bool:
    """Refine domains so the boolean ``expr`` can be false. Returns changed?"""
    rule = _ASSERT_FALSE.get(expr.op)
    if rule is None:
        raise _unknown_operator(expr)
    return rule(expr, domains, cache)


def _true_const(expr, domains, cache):
    if expr.params[0] == 0:
        raise _Contradiction()
    return False


def _false_const(expr, domains, cache):
    if expr.params[0] == 1:
        raise _Contradiction()
    return False


def _true_var(expr, domains, cache):
    return _narrow_var(expr, iv.ONE, domains, cache)


def _false_var(expr, domains, cache):
    return _narrow_var(expr, iv.ZERO, domains, cache)


def _true_not(expr, domains, cache):
    return _assert_false(expr.args[0], domains, cache)


def _false_not(expr, domains, cache):
    return _assert_true(expr.args[0], domains, cache)


def _true_and(expr, domains, cache):
    changed = False
    for arg in expr.args:
        changed |= _assert_true(arg, domains, cache)
    return changed


def _false_or(expr, domains, cache):
    changed = False
    for arg in expr.args:
        changed |= _assert_false(arg, domains, cache)
    return changed


def _true_or(expr, domains, cache):
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
        return _narrow_var(hull[0], hull[1], domains, cache)
    return False


def _false_and(expr, domains, cache):
    open_args = [a for a in expr.args if forward(a, domains, cache).lo != 1]
    if not open_args:
        raise _Contradiction()
    if len(open_args) == 1:
        return _assert_false(open_args[0], domains, cache)
    return False


def _true_ite(expr, domains, cache):
    cond, then, otherwise = expr.args
    chosen = forward(cond, domains, cache)
    if chosen.lo == chosen.hi:
        return _assert_true(then if chosen.lo else otherwise, domains, cache)
    return False


def _false_eq(expr, domains, cache):
    a, b = expr.args
    fa = forward(a, domains, cache)
    fb = forward(b, domains, cache)
    changed = False
    # x != c prunes c only when it sits at a domain edge (intervals are
    # contiguous, so interior holes cannot be represented).
    if fb.lo == fb.hi:
        changed |= _exclude_edge(a, fb.lo, domains, cache)
    if fa.lo == fa.hi:
        changed |= _exclude_edge(b, fa.lo, domains, cache)
        if fb.lo == fb.hi and fa.lo == fb.lo:
            raise _Contradiction()
    return changed


# Comparison rules take the two operands, so a negated comparison is the
# converse one with its operands swapped: not(a < b) <=> b <= a.


def _comparison_rule(assert_ab):
    def rule(expr, domains, cache):
        a, b = expr.args
        return assert_ab(a, b, domains, cache)
    return rule


def _converse_rule(assert_ab):
    def rule(expr, domains, cache):
        a, b = expr.args
        return assert_ab(b, a, domains, cache)
    return rule


def _assert_eq(a, b, domains, cache):
    fa = forward(a, domains, cache)
    fb = forward(b, domains, cache)
    lo = fa.lo if fa.lo > fb.lo else fb.lo
    hi = fa.hi if fa.hi < fb.hi else fb.hi
    if lo > hi:
        raise _Contradiction()
    if fa.lo == fa.hi == fb.lo == fb.hi:
        return False
    target = Interval(lo, hi)
    changed = _narrow(a, target, domains, cache)
    changed |= _narrow(b, target, domains, cache)
    return changed


def _assert_ult(a, b, domains, cache):
    fa = forward(a, domains, cache)
    fb = forward(b, domains, cache)
    if fa.hi < fb.lo:
        return False
    if fa.lo >= fb.hi:
        raise _Contradiction()
    # fb.hi > fa.lo >= 0 here, so [0, fb.hi - 1] is never empty.
    changed = _narrow(a, Interval(0, fb.hi - 1), domains, cache)
    mask = a.sort.mask
    lo = fa.lo + 1 if fa.lo < mask else mask
    changed |= _narrow(b, Interval(lo, mask), domains, cache)
    return changed


def _assert_ule(a, b, domains, cache):
    fa = forward(a, domains, cache)
    fb = forward(b, domains, cache)
    if fa.hi <= fb.lo:
        return False
    if fa.lo > fb.hi:
        raise _Contradiction()
    changed = _narrow(a, Interval(0, fb.hi), domains, cache)
    changed |= _narrow(b, Interval(fa.lo, a.sort.mask), domains, cache)
    return changed


def _signed_rule(strict: bool):
    decide = iv.compare_slt if strict else iv.compare_sle

    def assert_ab(a, b, domains, cache):
        fa = forward(a, domains, cache)
        fb = forward(b, domains, cache)
        width = a.sort.width
        outcome = decide(fa, fb, width)
        if outcome == TRI_FALSE:
            raise _Contradiction()
        if outcome == TRI_TRUE:
            return False
        changed = False
        sa = iv.signed_bounds(fa, width)
        sb = iv.signed_bounds(fb, width)
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
    return assert_ab


_assert_slt = _signed_rule(strict=True)
_assert_sle = _signed_rule(strict=False)

_ASSERT_TRUE = {
    **dict.fromkeys(_OPERATORS, _no_rule),
    "const": _true_const,
    "var": _true_var,
    "not": _true_not,
    "and": _true_and,
    "or": _true_or,
    "ite": _true_ite,
    "eq": _comparison_rule(_assert_eq),
    "ult": _comparison_rule(_assert_ult),
    "ule": _comparison_rule(_assert_ule),
    "slt": _comparison_rule(_assert_slt),
    "sle": _comparison_rule(_assert_sle),
}

_ASSERT_FALSE = {
    **dict.fromkeys(_OPERATORS, _no_rule),
    "const": _false_const,
    "var": _false_var,
    "not": _false_not,
    "or": _false_or,
    "and": _false_and,
    "eq": _false_eq,
    "ult": _converse_rule(_assert_ule),
    "ule": _converse_rule(_assert_ult),
    "slt": _converse_rule(_assert_sle),
    "sle": _converse_rule(_assert_slt),
}


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
    op = arm.op
    if op != "eq" and op != "ult" and op != "ule":
        return None
    lhs, rhs = arm.args
    if lhs.op == "var" and lhs.sort is not BOOL and rhs.op == "const":
        var, value, var_left = lhs, rhs.params[0], True
    elif rhs.op == "var" and rhs.sort is not BOOL and lhs.op == "const":
        var, value, var_left = rhs, lhs.params[0], False
    else:
        return None
    if op == "eq":
        return var, iv.singleton(value)
    mask = var.sort.mask
    if op == "ult":
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
    if lo >= 0:
        return _narrow(expr, Interval(lo, hi), domains, cache)
    if hi < 0:
        period = expr.sort.size
        return _narrow(expr, Interval(lo + period, hi + period), domains, cache)
    # Straddles zero: [lo, hi] maps to [0, hi] U [lo+2^w, mask] — not
    # contiguous, so nothing sound can be pushed.
    return False


def _exclude_edge(expr: Expr, value: int, domains: Domains,
                  cache: dict[Expr, Interval]) -> bool:
    """Refine ``expr != value`` when ``value`` is at an edge of its interval."""
    current = forward(expr, domains, cache)
    if current.lo == current.hi:
        if current.lo == value:
            raise _Contradiction()
        return False
    if current.lo == value:
        return _narrow(expr, Interval(value + 1, current.hi), domains, cache)
    if current.hi == value:
        return _narrow(expr, Interval(current.lo, value - 1), domains, cache)
    return False


# -- narrow: push a target interval down into a term --------------------------


def _narrow(expr: Expr, target: Interval, domains: Domains,
            cache: dict[Expr, Interval]) -> bool:
    """Push ``target`` down into ``expr``, narrowing variable domains.

    Only shapes with an exact inverse are handled; everything else is a
    sound no-op. Returns True when any domain changed.
    """
    rule = _NARROW.get(expr.op)
    if rule is None:
        raise _unknown_operator(expr)
    return rule(expr, target, domains, cache)


def _narrow_var(expr, target, domains, cache):
    """The one place that writes a domain; it clears the forward cache."""
    current = domains.get(expr)
    if current is None:
        current = _full(expr)
    lo = target.lo if target.lo > current.lo else current.lo
    hi = target.hi if target.hi < current.hi else current.hi
    if lo > hi:
        raise _Contradiction()
    if lo == current.lo and hi == current.hi:
        return False
    if lo == target.lo and hi == target.hi:
        domains[expr] = target
    else:
        domains[expr] = Interval(lo, hi)
    cache.clear()
    return True


def _narrow_const(expr, target, domains, cache):
    if not target.lo <= expr.params[0] <= target.hi:
        raise _Contradiction()
    return False


def _narrow_add(expr, target, domains, cache):
    # Invert through whichever operand is pinned (not just constants):
    # this is what lets long checksum chains force their last free term.
    a, b = expr.args
    fa = forward(a, domains, cache)
    fb = forward(b, domains, cache)
    if fb.lo == fb.hi:
        return _narrow(a, iv.sub(target, fb, expr.sort.width), domains, cache)
    if fa.lo == fa.hi:
        return _narrow(b, iv.sub(target, fa, expr.sort.width), domains, cache)
    return False


def _narrow_sub(expr, target, domains, cache):
    a, b = expr.args
    fa = forward(a, domains, cache)
    fb = forward(b, domains, cache)
    if fb.lo == fb.hi:
        return _narrow(a, iv.add(target, fb, expr.sort.width), domains, cache)
    if fa.lo == fa.hi:
        return _narrow(b, iv.sub(fa, target, expr.sort.width), domains, cache)
    return False


def _narrow_bvxor(expr, target, domains, cache):
    if target.lo != target.hi:
        return False
    a, b = expr.args
    fa = forward(a, domains, cache)
    fb = forward(b, domains, cache)
    if fb.lo == fb.hi:
        return _narrow(a, iv.singleton(target.lo ^ fb.lo), domains, cache)
    if fa.lo == fa.hi:
        return _narrow(b, iv.singleton(target.lo ^ fa.lo), domains, cache)
    return False


def _narrow_zext(expr, target, domains, cache):
    inner = expr.args[0]
    mask = inner.sort.mask
    if target.lo > mask:
        raise _Contradiction()
    if target.hi > mask:
        target = Interval(target.lo, mask)
    return _narrow(inner, target, domains, cache)


def _narrow_concat(expr, target, domains, cache):
    hi_part, lo_part = expr.args
    lo_width = lo_part.sort.width
    hi_target = Interval(target.lo >> lo_width, target.hi >> lo_width)
    changed = _narrow(hi_part, hi_target, domains, cache)
    if hi_target.lo == hi_target.hi:
        # The low part's bounds only project cleanly when the high
        # part is fixed across the whole target range.
        mask = lo_part.sort.mask
        changed |= _narrow(lo_part, Interval(target.lo & mask, target.hi & mask),
                           domains, cache)
    return changed


def _narrow_ite(expr, target, domains, cache):
    cond, then, otherwise = expr.args
    chosen = forward(cond, domains, cache)
    if chosen.lo == chosen.hi:
        return _narrow(then if chosen.lo else otherwise, target, domains, cache)
    then_iv = forward(then, domains, cache)
    else_iv = forward(otherwise, domains, cache)
    then_out = then_iv.intersect(target) is None
    else_out = else_iv.intersect(target) is None
    if then_out and else_out:
        raise _Contradiction()
    changed = False
    if then_out:
        changed |= _assert_false(cond, domains, cache)
        changed |= _narrow(otherwise, target, domains, cache)
    elif else_out:
        changed |= _assert_true(cond, domains, cache)
        changed |= _narrow(then, target, domains, cache)
    return changed


_NARROW = {
    **dict.fromkeys(_OPERATORS, _no_rule),
    "var": _narrow_var,
    "const": _narrow_const,
    "add": _narrow_add,
    "sub": _narrow_sub,
    "bvxor": _narrow_bvxor,
    "zext": _narrow_zext,
    "concat": _narrow_concat,
    "ite": _narrow_ite,
}
