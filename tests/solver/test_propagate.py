"""Tests for interval propagation: narrowing quality and soundness.

Propagation may be imprecise but must never discard a satisfiable
assignment; the property test checks that any brute-force model stays
inside the propagated domains.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.solver import ast
from repro.solver import interval as iv
from repro.solver import propagate as propagate_module
from repro.solver.ast import bv_const, bv_var, eq, ne, not_, or_, ult, zext
from repro.solver.evalmodel import all_hold
from repro.solver.interval import Interval
from repro.solver.propagate import fixpoint, initial_domains, propagate, refutes
from repro.solver.sorts import BOOL, BV8

X = bv_var("x", 8)
Y = bv_var("y", 8)


def _run(constraints):
    return propagate(list(constraints), initial_domains(constraints))


class TestNarrowing:
    def test_upper_bound(self):
        domains = _run([X < 10])
        assert domains[X] == Interval(0, 9)

    def test_lower_bound(self):
        domains = _run([X > 10])
        assert domains[X] == Interval(11, 255)

    def test_equality_with_constant(self):
        domains = _run([eq(X, bv_const(7, 8))])
        assert domains[X] == Interval(7, 7)

    def test_equality_links_variables(self):
        domains = _run([eq(X, Y), Y < 5])
        assert domains[X] == Interval(0, 4)

    def test_add_offset_inverted(self):
        domains = _run([eq(X + 10, bv_const(12, 8))])
        assert domains[X] == Interval(2, 2)

    def test_zext_pushed_through(self):
        wide = bv_var("w", 16)
        domains = _run([eq(zext(X, 16), wide), wide > 200])
        assert domains[X].lo >= 201
        assert domains[wide].hi <= 255

    def test_contradiction_detected(self):
        assert _run([X < 5, X > 9]) is None

    def test_edge_disequality(self):
        domains = _run([ne(X, bv_const(0, 8)), ne(X, bv_const(255, 8))])
        assert domains[X] == Interval(1, 254)

    def test_signed_negative(self):
        domains = _run([X.slt(0)])
        assert domains[X] == Interval(128, 255)

    def test_or_with_single_open_arm(self):
        pred = or_(ult(X, bv_const(0, 8)), eq(X, bv_const(9, 8)))
        domains = _run([pred])
        assert domains[X] == Interval(9, 9)

    def test_or_membership_narrows_to_hull(self):
        """All arms bound the same variable: it must lie in their hull."""
        pred = or_(eq(X, bv_const(3, 8)), eq(X, bv_const(17, 8)))
        domains = _run([pred])
        assert domains[X] == Interval(3, 17)

    def test_or_mixed_comparisons_same_variable(self):
        pred = or_(ult(X, bv_const(4, 8)), eq(X, bv_const(200, 8)))
        domains = _run([pred])
        assert domains[X] == Interval(0, 200)

    def test_or_hull_intersects_existing_domain(self):
        pred = or_(eq(X, bv_const(3, 8)), eq(X, bv_const(17, 8)))
        domains = _run([pred, X > 10])
        assert domains[X] == Interval(17, 17)

    def test_or_over_distinct_variables_stays_wide(self):
        pred = or_(eq(X, bv_const(3, 8)), eq(Y, bv_const(4, 8)))
        domains = _run([pred])
        assert domains[X] == Interval(0, 255)
        assert domains[Y] == Interval(0, 255)


class TestSoundness:
    @settings(max_examples=200, deadline=None)
    @given(
        bounds=st.lists(
            st.tuples(st.sampled_from(["ult", "ule", "eq", "slt"]),
                      st.integers(0, 255), st.booleans()),
            min_size=1, max_size=4))
    def test_no_model_lost(self, bounds):
        """Every brute-force model must stay within propagated domains."""
        constraints = []
        for op, value, negate in bounds:
            pred = getattr(ast, op)(X, bv_const(value, 8))
            constraints.append(not_(pred) if negate else pred)
        domains = propagate(constraints, initial_domains(constraints))
        models = [v for v in range(256) if all_hold(constraints, {X: v})]
        if domains is None:
            assert models == []
            return
        # Constant folding can remove X entirely (e.g. ult(X, 0) -> false);
        # a missing domain means the variable is unconstrained.
        domain = domains.get(X, Interval(0, 255))
        for value in models:
            assert domain.contains(value)


class TestRefutes:
    X = bv_var("x", 8)

    def test_constraint_false_over_the_fixpoint_is_refuted(self):
        domains = fixpoint([self.X < 10])
        assert refutes(domains, self.X > 20)
        assert not refutes(domains, self.X > 5)

    def test_unknown_variables_are_unconstrained(self):
        y = bv_var("y", 8)
        assert not refutes(fixpoint([self.X < 10]), y > 20)

    def test_unsat_set_refutes_everything(self):
        domains = fixpoint([self.X < 1, self.X > 5])
        assert domains is None
        assert refutes(domains, self.X < 200)


class TestKernelDispatch:
    """The per-operator rule tables: unknown operators, shared leaves."""

    BOGUS_BV = ast.Expr("frobnicate", BV8, (X,))
    BOGUS_BOOL = ast.Expr("frobnicate", BOOL, (X,))

    def test_unknown_operator_raises_from_forward(self):
        with pytest.raises(SolverError, match="frobnicate"):
            propagate_module.forward(self.BOGUS_BV, {}, {})

    def test_unknown_operator_raises_from_assert_true(self):
        with pytest.raises(SolverError, match="frobnicate"):
            propagate_module._assert_true(self.BOGUS_BOOL, {}, {})

    def test_unknown_operator_raises_from_assert_false(self):
        with pytest.raises(SolverError, match="frobnicate"):
            propagate_module._assert_false(self.BOGUS_BOOL, {}, {})

    def test_unknown_operator_raises_from_narrow(self):
        with pytest.raises(SolverError, match="frobnicate"):
            propagate_module._narrow(self.BOGUS_BV, Interval(0, 3), {}, {})

    def test_unknown_operator_raises_from_propagate(self):
        with pytest.raises(SolverError, match="frobnicate"):
            _run([eq(self.BOGUS_BV, bv_const(1, 8))])

    def test_known_operators_without_a_rule_are_no_ops(self):
        domains = {X: Interval(0, 9)}
        assert not propagate_module._narrow(X * Y, Interval(0, 3), domains, {})
        assert not propagate_module._assert_false(
            ast.ite(X < 3, ast.bool_var("p"), ast.bool_var("q")), domains, {})
        assert domains == {X: Interval(0, 9)}

    def test_constants_and_bool_results_are_shared(self):
        forward = propagate_module.forward
        assert forward(bv_const(7, 8), {}, {}) is iv.singleton(7)
        assert forward(X < 150, {X: Interval(0, 9)}, {}) is iv.ONE
        assert forward(X < 5, {X: Interval(6, 9)}, {}) is iv.ZERO
        wide = bv_const(1 << 31, 32)
        assert forward(wide, {}, {}) == Interval(1 << 31, 1 << 31)

    def test_wide_constants_are_not_memoized(self):
        """Only byte values have shared singletons: a table keyed by any
        constant value would grow with every 32-bit constant seen."""
        assert len(iv.SMALL_SINGLETONS) == 256
        assert iv.singleton(1 << 20) is not iv.singleton(1 << 20)

    def test_a_domain_write_clears_the_forward_cache(self):
        """The forward cache outlives a worklist visit, so a write must
        drop every cached value computed from the old domains."""
        domains = {X: Interval(0, 255)}
        cache = {}
        term = X + bv_const(1, 8)
        assert propagate_module.forward(term, domains, cache) == Interval(0, 255)
        assert term in cache
        assert propagate_module._narrow(X, Interval(3, 4), domains, cache)
        assert cache == {}
        assert propagate_module.forward(term, domains, cache) == Interval(4, 5)
