"""Canonicalization pass over solver expressions.

The construction-time simplifications in :mod:`repro.solver.ast` fold
constants and apply algebraic identities, but they preserve the syntactic
shape the caller happened to build: ``a + b`` and ``b + a`` stay distinct
nodes, ``not(a < b)`` is not recognized as ``b <= a``. The Achilles search
re-poses thousands of near-identical satisfiability queries, so collapsing
such variants onto one canonical representative is what makes the query
cache (:mod:`repro.solver.cache`) effective.

:func:`canonicalize` rewrites an expression bottom-up into a canonical
form:

* every node is rebuilt through the simplifying constructors (constant
  folding and identities re-fire where child rewrites exposed them);
* associative-commutative chains (``add``, ``mul``, ``bvand``, ``bvor``,
  ``bvxor``) are flattened, their operands sorted into a stable canonical
  order (constants last, matching the constructors' const-on-the-right
  convention) and re-folded — so any association/commutation of the same
  operand multiset yields the *same* node, which is what lets checksum
  chains built on different sides of a wire equality cancel structurally;
* arguments of the remaining commutative operators (``eq``, ``and``,
  ``or``) are sorted the same way;
* negated comparisons are flipped into positive form
  (``not(ult(a, b))`` → ``ule(b, a)`` and friends), which also eliminates
  double negations over comparisons;
* trivial comparisons against domain edges collapse
  (``ult(x, 1)`` → ``eq(x, 0)``, ``ule(x, max)`` → ``true``, …).

The pass is idempotent and memoized per node: expressions are interned,
so the memo, kept in each node's own ``_canon`` slot, persists across
queries for shared subtrees and dies with its node. Structural digests
(``_fingerprint``) are memoized the same way, in the ``_digest`` slot.

:func:`canonical_constraint_set` lifts canonicalization to whole
constraint conjunctions and is the keying function of the query cache.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.solver import ast
from repro.solver.ast import FALSE, TRUE, Expr
from repro.solver.walk import expr_size, rebuild

#: Associative-commutative operators: chains are flattened and re-folded
#: over sorted operands, erasing the association order they were built in.
_AC_OPS = frozenset({"add", "mul", "bvand", "bvor", "bvxor"})
#: Commutative but not associative over a chain (binary / n-ary shapes).
_COMMUTATIVE_BINARY = frozenset({"eq"})
_COMMUTATIVE_NARY = frozenset({"and", "or"})

#: Positive form of each negated comparison, with swapped operands.
_NEGATED_COMPARISON = {"ult": "ule", "ule": "ult", "slt": "sle", "sle": "slt"}

#: ``Expr._canon`` value meaning "the node is its own canonical form".
#: Storing the node itself would make it reference itself, a cycle that
#: only the garbage collector could free.
_SELF = object()


def _fingerprint(expr: Expr) -> bytes:
    """Structural digest of ``expr``, memoized per node.

    A sha256 over (op, sort, params) and the child digests: fixed-size
    per node (DAG-shared subtrees cannot blow it up the way a
    materialized rendering would), computed once per interned node, and
    a pure function of the structure — so it is identical in every
    process. Collisions are cryptographically negligible.
    """
    cached = expr._digest
    if cached is None:
        digest = hashlib.sha256(
            repr((expr.op, str(expr.sort), expr.params)).encode())
        for arg in expr.args:
            digest.update(_fingerprint(arg))
        cached = expr._digest = digest.digest()
    return cached


def _arg_key(expr: Expr) -> tuple:
    """Stable total ordering key for commutative arguments.

    Variables sort first by name, compound terms next by operator and
    size, constants last so the const-on-the-right convention the
    propagation rules match against is preserved. Remaining ties are
    broken by a *structural* fingerprint — never by interning order or
    memory address — so the canonical form of a formula is identical in
    every process. Sharded exploration relies on this: a shard worker
    that re-interns a shipped query must canonicalize (and therefore
    search) it exactly like the coordinating process, or model-producing
    answers would depend on which worker ran them.
    """
    if expr.is_const:
        return (2, "", expr.params[0], str(expr.sort))
    if expr.is_var:
        return (0, expr.params[0], 0, str(expr.sort))
    return (1, expr.op, expr_size(expr), _fingerprint(expr))


def canonicalize(expr: Expr) -> Expr:
    """Rewrite ``expr`` into its canonical form (memoized, idempotent)."""
    cached = expr._canon
    if cached is _SELF:
        return expr
    if cached is not None:
        return cached
    if expr.args:
        new_args = tuple(canonicalize(a) for a in expr.args)
        node = expr if new_args == expr.args else rebuild(
            expr.op, new_args, expr.params)
    else:
        node = expr
    result = _canonicalize_node(node)
    if result is expr:
        expr._canon = _SELF
    else:
        expr._canon = result
        # The canonical form is its own fixpoint; record that too so
        # re-canonicalizing a canonical expression is one lookup.
        result._canon = _SELF
    return result


def _canonicalize_node(expr: Expr) -> Expr:
    """Apply the local canonicalization rules to an already-rebuilt node."""
    op = expr.op
    if op == "not":
        inner = expr.args[0]
        flipped = _NEGATED_COMPARISON.get(inner.op)
        if flipped is not None:
            rewritten = rebuild(flipped, (inner.args[1], inner.args[0]), ())
            return _canonicalize_node(rewritten)
        return expr
    if op in ("ult", "ule"):
        collapsed = _collapse_unsigned_comparison(expr)
        if collapsed is not expr:
            return _canonicalize_node(collapsed)
        return expr
    if op in _AC_OPS:
        return _canonicalize_chain(op, expr)
    if op in _COMMUTATIVE_BINARY and len(expr.args) == 2:
        a, b = expr.args
        if _arg_key(a) > _arg_key(b):
            # Both orders are semantically identical and the identities
            # already fired during the rebuild, so construct directly.
            return Expr(op, expr.sort, args=(b, a), params=expr.params)
        return expr
    if op in _COMMUTATIVE_NARY:
        ordered = tuple(sorted(expr.args, key=_arg_key))
        if ordered != expr.args:
            return Expr(op, expr.sort, args=ordered, params=expr.params)
        return expr
    return expr


def _canonicalize_chain(op: str, expr: Expr) -> Expr:
    """Flatten an associative-commutative chain, sort it, and re-fold.

    The re-fold goes through the simplifying constructors, so folding
    identities (duplicate absorption for ``bvand``/``bvor``, constant
    merging for ``add``) fire on the sorted chain.
    """
    leaves: list[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if node.op == op:
            # Push in reverse so leaves come out in left-to-right order.
            stack.extend(reversed(node.args))
        else:
            leaves.append(node)
    ordered = sorted(leaves, key=_arg_key)
    if ordered == leaves and len(leaves) == len(expr.args):
        return expr
    result = ordered[0]
    for leaf in ordered[1:]:
        result = rebuild(op, (result, leaf), ())
    return result


def _collapse_unsigned_comparison(expr: Expr) -> Expr:
    """Rewrite unsigned comparisons whose constant sits at a domain edge."""
    a, b = expr.args
    mask = a.sort.mask  # ult/ule operands are always bitvectors
    if expr.op == "ult":
        if b.is_const and b.value == 1:
            return ast.eq(a, ast.bv_const(0, a.width))
        if a.is_const and a.value == mask:
            return FALSE
        if b.is_const and b.value == mask:
            # x < max  <=>  x != max
            return ast.ne(a, ast.bv_const(mask, a.width))
        return expr
    # ule
    if b.is_const and b.value == 0:
        return ast.eq(a, ast.bv_const(0, a.width))
    if b.is_const and b.value == mask:
        return TRUE
    if a.is_const and a.value == mask:
        return ast.eq(b, ast.bv_const(mask, b.width))
    return expr


def canonical_constraint_set(constraints: Iterable[Expr]) -> frozenset[Expr]:
    """Canonical frozen form of a constraint conjunction.

    Top-level conjunctions are flattened, every conjunct canonicalized,
    tautologies dropped and duplicates merged by the set. A set containing
    :data:`repro.solver.ast.FALSE` denotes a trivially unsatisfiable
    query (callers may short-circuit without consulting a solver).
    """
    canonical: set[Expr] = set()
    for constraint in constraints:
        rewritten = canonicalize(constraint)
        parts = rewritten.args if rewritten.op == "and" else (rewritten,)
        for part in parts:
            if part.is_true:
                continue
            if part.is_false:
                return frozenset((FALSE,))
            canonical.add(part)
    return frozenset(canonical)
