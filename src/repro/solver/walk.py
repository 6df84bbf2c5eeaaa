"""Traversal and rewriting utilities over expression trees.

These helpers are used throughout the Achilles core: collecting the symbolic
variables of a path predicate, substituting client message bytes for shared
message variables, and measuring expression sizes for reporting.

Because expression nodes are interned (see :mod:`repro.solver.ast`), the
traversals here memoize per-node: ``collect_vars`` and ``expr_size`` cache
their result in the node's own ``_vars`` / ``_size`` slots, so the repeated
queries the solver hot path issues (variable counts for constraint ordering,
definition detection) cost one attribute read after the first visit, and a
memo dies with its node.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.solver import ast
from repro.solver.ast import Expr


def collect_vars(expr: Expr) -> frozenset[Expr]:
    """Return the set of variable nodes occurring in ``expr`` (memoized)."""
    cached = expr._vars
    if cached is not None:
        return cached
    if expr.op == ast.OP_VAR:
        # Not cached: the memo would reference its own node, a cycle that
        # only the garbage collector could free.
        return frozenset((expr,))
    found: set[Expr] = set()
    _walk_vars(expr, found, set())
    result = expr._vars = frozenset(found)
    return result


def collect_vars_all(exprs: Iterable[Expr]) -> set[Expr]:
    """Return the set of variable nodes occurring in any of ``exprs``."""
    found: set[Expr] = set()
    for expr in exprs:
        found |= collect_vars(expr)
    return found


def _walk_vars(expr: Expr, found: set[Expr], visited: set[Expr]) -> None:
    stack = [expr]
    while stack:
        node = stack.pop()
        if node in visited:
            continue
        visited.add(node)
        cached = node._vars
        if cached is not None:
            found |= cached
        elif node.is_var:
            found.add(node)
        else:
            stack.extend(node.args)


def expr_size(expr: Expr) -> int:
    """Number of distinct nodes in ``expr`` (shared subtrees counted once)."""
    cached = expr._size
    if cached is not None:
        return cached
    seen: set[Expr] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(node.args)
    result = expr._size = len(seen)
    return result


def substitute(expr: Expr, mapping: Mapping[Expr, Expr]) -> Expr:
    """Replace variable nodes per ``mapping``, rebuilding through constructors.

    Rebuilding re-triggers the construction-time simplifications, so the
    result is folded where the substitution made subtrees concrete. When no
    variable of ``expr`` is mapped the expression is returned unchanged
    without any rebuilding (cheap thanks to the memoized ``collect_vars``).
    """
    if not mapping or collect_vars(expr).isdisjoint(mapping):
        return expr
    cache: dict[Expr, Expr] = {}
    return _substitute(expr, mapping, cache)


def _substitute(expr: Expr, mapping: Mapping[Expr, Expr], cache: dict[Expr, Expr]) -> Expr:
    hit = cache.get(expr)
    if hit is not None:
        return hit
    if expr.is_var:
        result = mapping.get(expr, expr)
    elif not expr.args:
        result = expr
    elif collect_vars(expr).isdisjoint(mapping):
        result = expr
    else:
        new_args = tuple(_substitute(a, mapping, cache) for a in expr.args)
        if new_args == expr.args:
            result = expr
        else:
            result = rebuild(expr.op, new_args, expr.params)
    cache[expr] = result
    return result


_BUILDERS: dict[str, Callable[..., Expr]] = {
    "add": ast.add,
    "sub": ast.sub,
    "mul": ast.mul,
    "udiv": ast.udiv,
    "urem": ast.urem,
    "bvand": ast.bvand,
    "bvor": ast.bvor,
    "bvxor": ast.bvxor,
    "shl": ast.shl,
    "lshr": ast.lshr,
    "ashr": ast.ashr,
    "eq": ast.eq,
    "ult": ast.ult,
    "ule": ast.ule,
    "slt": ast.slt,
    "sle": ast.sle,
    "not": ast.not_,
    "and": ast.and_,
    "or": ast.or_,
    "neg": ast.neg,
    "bvnot": ast.bvnot,
    "ite": ast.ite,
    "concat": ast.concat,
}


def rebuild(op: str, args: tuple[Expr, ...], params: tuple) -> Expr:
    """Reconstruct a node through the simplifying constructors in ``ast``."""
    builder = _BUILDERS.get(op)
    if builder is not None:
        return builder(*args)
    if op == "zext":
        return ast.zext(args[0], params[0])
    if op == "sext":
        return ast.sext(args[0], params[0])
    if op == "extract":
        return ast.extract(args[0], params[0], params[1])
    raise ValueError(f"cannot rebuild unknown operator {op}")


def simplify(expr: Expr) -> Expr:
    """Canonical simplification pass (see :mod:`repro.solver.simplify`)."""
    from repro.solver.simplify import canonicalize

    return canonicalize(expr)
