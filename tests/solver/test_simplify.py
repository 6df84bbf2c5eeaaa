"""Tests for the canonicalization pass (:mod:`repro.solver.simplify`)."""

import sys

from hypothesis import given, settings, strategies as st

from repro.solver import ast
from repro.solver.ast import (
    FALSE,
    TRUE,
    and_,
    bool_var,
    bv_const,
    bv_var,
    eq,
    ne,
    not_,
    or_,
    ule,
    ult,
)
from repro.solver.evalmodel import evaluate
from repro.solver.simplify import canonical_constraint_set, canonicalize
from repro.solver.sorts import BOOL, bitvec_sort

X = bv_var("x", 8)
Y = bv_var("y", 8)
Z = bv_var("z", 8)
P = bool_var("p")
Q = bool_var("q")


class TestCommutativeSorting:
    def test_add_operand_order_collapses(self):
        assert canonicalize(X + Y) is canonicalize(Y + X)

    def test_association_order_collapses(self):
        assert canonicalize((X + Y) + Z) is canonicalize(X + (Y + Z))
        assert canonicalize((X + Y) + Z) is canonicalize((Z + X) + Y)

    def test_bitwise_chains_collapse(self):
        assert canonicalize((X & Y) & Z) is canonicalize(Z & (Y & X))
        assert canonicalize((X | Y) | Z) is canonicalize((Z | X) | Y)
        assert canonicalize(X ^ Y) is canonicalize(Y ^ X)

    def test_constants_stay_on_the_right(self):
        canon = canonicalize(bv_const(3, 8) + X)
        assert canon.op == "add"
        assert canon.args[1].is_const

    def test_eq_operand_order_collapses(self):
        assert canonicalize(eq(X, Y)) is canonicalize(eq(Y, X))

    def test_boolean_connective_order_collapses(self):
        assert canonicalize(and_(P, Q)) is canonicalize(and_(Q, P))
        assert canonicalize(or_(P, Q)) is canonicalize(or_(Q, P))

    def test_checksum_chains_cancel_across_association(self):
        """The shape that matters for the Achilles wire equalities."""
        parts = [bv_var(f"b{i}", 8) for i in range(8)]
        left_fold = parts[0]
        for part in parts[1:]:
            left_fold = left_fold + part
        right_fold = parts[-1]
        for part in reversed(parts[:-1]):
            right_fold = part + right_fold
        assert canonicalize(eq(left_fold, right_fold)).is_true


class TestNegatedComparisons:
    def test_not_ult_flips_to_ule(self):
        canon = canonicalize(not_(ult(X, Y)))
        assert canon.op == "ule"
        assert canon.args == (Y, X)

    def test_not_ule_flips_to_ult(self):
        assert canonicalize(not_(ule(X, Y))) is canonicalize(ult(Y, X))

    def test_not_signed_comparisons_flip(self):
        assert canonicalize(not_(X.slt(Y))) is canonicalize(Y.sle(X))
        assert canonicalize(not_(X.sle(Y))) is canonicalize(Y.slt(X))


class TestTrivialComparisons:
    def test_ult_one_becomes_eq_zero(self):
        assert canonicalize(ult(X, bv_const(1, 8))) is eq(X, bv_const(0, 8))

    def test_ule_zero_becomes_eq_zero(self):
        assert canonicalize(ule(X, bv_const(0, 8))) is eq(X, bv_const(0, 8))

    def test_ule_max_is_true(self):
        assert canonicalize(ule(X, bv_const(255, 8))).is_true

    def test_ult_below_max_becomes_ne(self):
        assert canonicalize(ult(X, bv_const(255, 8))) is canonicalize(
            ne(X, bv_const(255, 8)))

    def test_max_ult_anything_is_false(self):
        assert canonicalize(ult(bv_const(255, 8), X)).is_false


_LEAF = st.sampled_from([X, Y, Z, bv_const(0, 8), bv_const(1, 8),
                         bv_const(17, 8), bv_const(255, 8)])


@st.composite
def _bv_exprs(draw, depth=3):
    if depth == 0:
        return draw(_LEAF)
    op = draw(st.sampled_from(["leaf", "add", "mul", "bvand", "bvor",
                               "bvxor", "sub", "bvnot"]))
    if op == "leaf":
        return draw(_LEAF)
    if op == "bvnot":
        return ast.bvnot(draw(_bv_exprs(depth=depth - 1)))
    a = draw(_bv_exprs(depth=depth - 1))
    b = draw(_bv_exprs(depth=depth - 1))
    return getattr(ast, op)(a, b)


@st.composite
def _bool_exprs(draw):
    kind = draw(st.sampled_from(["eq", "ult", "ule", "slt", "sle"]))
    a = draw(_bv_exprs())
    b = draw(_bv_exprs())
    pred = getattr(ast, kind)(a, b)
    if draw(st.booleans()):
        pred = not_(pred)
    return pred


class TestIdempotenceAndSoundness:
    @settings(max_examples=150, deadline=None)
    @given(expr=_bv_exprs())
    def test_canonicalize_is_idempotent_on_bitvectors(self, expr):
        canon = canonicalize(expr)
        assert canonicalize(canon) is canon

    @settings(max_examples=150, deadline=None)
    @given(expr=_bool_exprs())
    def test_canonicalize_is_idempotent_on_predicates(self, expr):
        canon = canonicalize(expr)
        assert canonicalize(canon) is canon

    @settings(max_examples=150, deadline=None)
    @given(expr=_bv_exprs(), vx=st.integers(0, 255), vy=st.integers(0, 255),
           vz=st.integers(0, 255))
    def test_canonical_form_is_equivalent(self, expr, vx, vy, vz):
        model = {X: vx, Y: vy, Z: vz}
        assert evaluate(canonicalize(expr), model) == evaluate(expr, model)

    @settings(max_examples=150, deadline=None)
    @given(expr=_bool_exprs(), vx=st.integers(0, 255), vy=st.integers(0, 255),
           vz=st.integers(0, 255))
    def test_canonical_predicates_are_equivalent(self, expr, vx, vy, vz):
        model = {X: vx, Y: vy, Z: vz}
        assert evaluate(canonicalize(expr), model) == evaluate(expr, model)


class TestCanonicalConstraintSet:
    def test_variants_share_one_key(self):
        key_a = canonical_constraint_set([and_(ult(X, Y), eq(Y, Z))])
        key_b = canonical_constraint_set([eq(Z, Y), not_(ule(Y, X))])
        assert key_a == key_b

    def test_tautologies_are_dropped(self):
        assert canonical_constraint_set([TRUE, ule(X, bv_const(255, 8))]) \
            == frozenset()

    def test_contradiction_marks_the_set(self):
        key = canonical_constraint_set([ult(X, Y), FALSE])
        assert key == frozenset((FALSE,))

    def test_duplicates_merge(self):
        key = canonical_constraint_set([ult(X, Y), not_(ule(Y, X))])
        assert len(key) == 1

    def test_conjunctions_flatten(self):
        key = canonical_constraint_set([and_(P, Q)])
        assert key == canonical_constraint_set([Q, P])


class TestSortNames:
    def test_names_are_the_printed_forms(self):
        # Structural digests hash these strings: they must not change.
        assert (BOOL.name, bitvec_sort(16).name) == ("BoolSort", "BitVec(16)")
        assert (repr(BOOL), str(bitvec_sort(8))) == ("BoolSort", "BitVec(8)")

    def test_canonicalizing_fresh_nodes_makes_no_sort_calls(self):
        """Digests and argument keys read each sort's ``name`` slot, so
        canonicalizing fresh nodes of both sorts enters no Python frame
        of :mod:`repro.solver.sorts` (``str(sort)`` would enter
        ``__repr__`` once per fresh node)."""
        fresh = []
        for i in range(50):
            a = bv_var(f"sort_name_a{i}", 16)
            b = bv_var(f"sort_name_b{i}", 16)
            fresh.append(and_(eq(b + a, bv_const(i, 16)),
                              or_(bool_var(f"sort_name_p{i}"), ult(a, b))))
        calls: dict[str, int] = {}

        def profile(frame, event, arg):
            if event == "call":
                module = frame.f_globals.get("__name__", "?")
                calls[module] = calls.get(module, 0) + 1

        sys.setprofile(profile)
        try:
            for expr in fresh:
                canonicalize(expr)
        finally:
            sys.setprofile(None)
        assert calls.get("repro.solver.simplify", 0) >= 50 * 4
        assert "repro.solver.sorts" not in calls, calls
