"""Tests for concrete evaluation under models, including a differential
property test: evaluation must agree with construction-time constant folding.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SolverError
from repro.solver import ast
from repro.solver.ast import bool_var, bv_const, bv_var, ite, not_, or_, ult
from repro.solver.evalmodel import all_hold, evaluate, extend_model, holds

X = bv_var("x", 8)
Y = bv_var("y", 8)


class TestEvaluate:
    def test_variable_lookup(self):
        assert evaluate(X, {X: 42}) == 42

    def test_missing_variable_raises(self):
        with pytest.raises(SolverError):
            evaluate(X, {})

    def test_arithmetic(self):
        assert evaluate(X + Y, {X: 200, Y: 100}) == 44

    def test_comparisons(self):
        assert evaluate(ult(X, Y), {X: 1, Y: 2}) == 1
        assert evaluate(X.slt(0), {X: 255}) == 1

    def test_ite_short_circuit(self):
        expr = ite(ult(X, bv_const(5, 8)), X + 1, X - 1)
        assert evaluate(expr, {X: 3}) == 4
        assert evaluate(expr, {X: 9}) == 8

    def test_bool_connectives(self):
        p, q = bool_var("p"), bool_var("q")
        assert evaluate(or_(p, q), {p: 0, q: 1}) == 1
        assert evaluate(not_(p), {p: 0}) == 1

    def test_width_ops(self):
        assert evaluate(ast.zext(X, 16) + 256, {X: 1}) == 257
        assert evaluate(ast.sext(X, 16), {X: 0xFF}) == 0xFFFF
        assert evaluate(ast.extract(X, 7, 4), {X: 0xAB}) == 0xA
        assert evaluate(ast.concat(X, Y), {X: 1, Y: 2}) == 0x0102


class TestHolds:
    def test_holds_requires_bool(self):
        with pytest.raises(SolverError):
            holds(X, {X: 1})

    def test_all_hold(self):
        constraints = [ult(X, Y), not_(ult(Y, X))]
        assert all_hold(constraints, {X: 1, Y: 2})
        assert not all_hold(constraints, {X: 2, Y: 1})


_BIN_OPS = ["add", "sub", "mul", "udiv", "urem", "bvand", "bvor", "bvxor",
            "shl", "lshr", "ashr"]


class TestAgreesWithFolding:
    @given(op=st.sampled_from(_BIN_OPS), a=st.integers(0, 255), b=st.integers(0, 255))
    def test_eval_matches_constant_fold(self, op, a, b):
        """Symbolic-then-evaluate equals fold-at-construction."""
        folded = getattr(ast, op)(bv_const(a, 8), bv_const(b, 8))
        symbolic = getattr(ast, op)(X, Y)
        assert evaluate(symbolic, {X: a, Y: b}) == folded.value

    @given(op=st.sampled_from(["eq", "ult", "ule", "slt", "sle"]),
           a=st.integers(0, 255), b=st.integers(0, 255))
    def test_comparison_eval_matches_fold(self, op, a, b):
        folded = getattr(ast, op)(bv_const(a, 8), bv_const(b, 8))
        symbolic = getattr(ast, op)(X, Y)
        assert evaluate(symbolic, {X: a, Y: b}) == int(folded.is_true)


class TestExtendModel:
    def test_holding_constraint_shares_the_model(self):
        model = {X: 5}
        assert extend_model(model, ult(X, bv_const(10, 8))) is model

    def test_failing_constraint_gives_none(self):
        assert extend_model({X: 5}, ult(X, bv_const(3, 8))) is None

    def test_missing_variables_take_zero_in_a_copy(self):
        model = {X: 5}
        extended = extend_model(model, ast.eq(Y, bv_const(0, 8)))
        assert extended == {X: 5, Y: 0}
        assert model == {X: 5}  # the shared model is never mutated
        assert extend_model(model, ast.eq(Y, bv_const(1, 8))) is None
