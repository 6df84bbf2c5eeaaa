"""Concrete evaluation of expressions under a variable assignment (a model).

The evaluator is the ground truth for the solver: search results are always
verified by evaluating every constraint under the candidate model, so any
unsoundness in interval propagation would surface as a verification failure
rather than a wrong answer.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import SolverError
from repro.solver.ast import Expr, fold_binary, fold_comparison
from repro.solver.sorts import BOOL, BitVecSort
from repro.solver.walk import collect_vars

Model = Mapping[Expr, int]


def evaluate(expr: Expr, model: Model, cache: dict[Expr, int] | None = None) -> int:
    """Evaluate ``expr`` to an unsigned int (bools evaluate to 0/1).

    Raises:
        SolverError: if a variable in ``expr`` is missing from ``model``.
    """
    if cache is None:
        cache = {}
    return _eval(expr, model, cache)


def _eval(expr: Expr, model: Model, cache: dict[Expr, int]) -> int:
    hit = cache.get(expr)
    if hit is not None:
        return hit
    op = expr.op
    if op == "const":
        result = expr.params[0]
    elif op == "var":
        try:
            result = model[expr]
        except KeyError:
            raise SolverError(f"model has no value for variable {expr.params[0]}") from None
    elif op in ("add", "sub", "mul", "udiv", "urem", "bvand", "bvor", "bvxor",
                "shl", "lshr", "ashr"):
        a = _eval(expr.args[0], model, cache)
        b = _eval(expr.args[1], model, cache)
        result = fold_binary(op, a, b, expr.sort)
    elif op in ("eq", "ult", "ule", "slt", "sle"):
        a = _eval(expr.args[0], model, cache)
        b = _eval(expr.args[1], model, cache)
        result = int(fold_comparison(op, a, b, expr.args[0].sort))
    elif op == "and":
        result = 1
        for arg in expr.args:
            if not _eval(arg, model, cache):
                result = 0
                break
    elif op == "or":
        result = 0
        for arg in expr.args:
            if _eval(arg, model, cache):
                result = 1
                break
    elif op == "not":
        result = 1 - _eval(expr.args[0], model, cache)
    elif op == "neg":
        result = expr.sort.wrap(-_eval(expr.args[0], model, cache))
    elif op == "bvnot":
        result = expr.sort.wrap(~_eval(expr.args[0], model, cache))
    elif op == "zext":
        result = _eval(expr.args[0], model, cache)
    elif op == "sext":
        inner = expr.args[0]
        result = expr.sort.from_signed(inner.sort.to_signed(_eval(inner, model, cache)))
    elif op == "extract":
        hi, lo = expr.params
        result = (_eval(expr.args[0], model, cache) >> lo) & ((1 << (hi - lo + 1)) - 1)
    elif op == "concat":
        hi = _eval(expr.args[0], model, cache)
        lo = _eval(expr.args[1], model, cache)
        result = (hi << expr.args[1].sort.width) | lo
    elif op == "ite":
        cond = _eval(expr.args[0], model, cache)
        result = _eval(expr.args[1] if cond else expr.args[2], model, cache)
    else:
        raise SolverError(f"cannot evaluate unknown operator {op}")
    cache[expr] = result
    return result


def holds(expr: Expr, model: Model, cache: dict[Expr, int] | None = None) -> bool:
    """True iff the boolean ``expr`` evaluates to true under ``model``."""
    if expr.sort != BOOL:
        raise SolverError("holds() requires a boolean expression")
    return bool(evaluate(expr, model, cache))


def all_hold(constraints: Iterable[Expr], model: Model) -> bool:
    """True iff every constraint holds under ``model`` (shared eval cache)."""
    cache: dict[Expr, int] = {}
    return all(holds(c, model, cache) for c in constraints)


def extend_model(model: Model, constraint: Expr) -> Model | None:
    """``model`` extended to ``constraint``, or None if it does not hold.

    Variables of ``constraint`` that ``model`` lacks take 0; only then is
    the model copied, so a holding constraint over known variables hands
    back ``model`` itself (callers share it and must not mutate it).
    Adding a variable the model's own constraints never mention keeps
    them satisfied, so a model of ``Q`` extended to ``c`` is a model of
    ``Q ∧ c`` — the counterexample-cache step for an appended conjunct.
    """
    missing = [var for var in collect_vars(constraint) if var not in model]
    if missing:
        model = dict(model)
        for var in missing:
            model[var] = 0
    return model if holds(constraint, model) else None
