"""Unit tests for expression construction and simplification."""

import pytest

from repro.errors import SortError
from repro.solver import ast
from repro.solver.ast import (
    FALSE,
    TRUE,
    and_,
    bool_var,
    bv_const,
    bv_var,
    eq,
    ite,
    ne,
    not_,
    or_,
    ult,
    zext,
)
from repro.solver.sorts import BOOL, BitVecSort, BoolSort, bitvec_sort


X = bv_var("x", 8)
Y = bv_var("y", 8)


class TestConstants:
    def test_const_wraps_into_range(self):
        assert bv_const(256, 8).value == 0
        assert bv_const(-1, 8).value == 255

    def test_bool_constants(self):
        assert TRUE.is_true
        assert FALSE.is_false
        assert not TRUE.is_false

    def test_value_on_non_const_raises(self):
        with pytest.raises(SortError):
            _ = X.value


class TestConstantFolding:
    def test_arithmetic_folds(self):
        assert (bv_const(200, 8) + bv_const(100, 8)).value == 44
        assert (bv_const(5, 8) - bv_const(10, 8)).value == 251
        assert (bv_const(16, 8) * bv_const(17, 8)).value == 16

    def test_division_by_zero_is_all_ones(self):
        assert ast.udiv(bv_const(7, 8), bv_const(0, 8)).value == 255
        assert ast.urem(bv_const(7, 8), bv_const(0, 8)).value == 7

    def test_shift_folds(self):
        assert (bv_const(1, 8) << bv_const(3, 8)).value == 8
        assert (bv_const(128, 8) >> bv_const(3, 8)).value == 16
        assert (bv_const(1, 8) << bv_const(9, 8)).value == 0

    def test_comparison_folds(self):
        assert ult(bv_const(1, 8), bv_const(2, 8)).is_true
        assert ast.slt(bv_const(255, 8), bv_const(0, 8)).is_true
        assert ast.sle(bv_const(1, 8), bv_const(255, 8)).is_false


class TestIdentities:
    def test_additive_identity(self):
        assert (X + 0) is X or (X + 0) == X
        assert (X - 0) == X

    def test_add_reassociation(self):
        assert ((X + 3) + 7) == (X + 10)

    def test_multiplicative_identities(self):
        assert (X * 1) == X
        assert (X * 0).value == 0

    def test_bitwise_identities(self):
        assert (X & 0xFF) == X
        assert (X & 0).value == 0
        assert (X | 0) == X
        assert (X ^ 0) == X
        assert (X ^ X).value == 0

    def test_self_comparisons(self):
        assert eq(X, X).is_true
        assert ult(X, X).is_false
        assert ast.ule(X, X).is_true
        assert ast.sub(X, X).value == 0

    def test_double_negations(self):
        assert not_(not_(bool_var("p"))) == bool_var("p")
        assert (~(~X)) == X


class TestBooleanConnectives:
    def test_and_shortcuts(self):
        p = bool_var("p")
        assert and_(p, TRUE) == p
        assert and_(p, FALSE).is_false
        assert and_().is_true

    def test_or_shortcuts(self):
        p = bool_var("p")
        assert or_(p, FALSE) == p
        assert or_(p, TRUE).is_true
        assert or_().is_false

    def test_and_flattens_and_dedups(self):
        p, q = bool_var("p"), bool_var("q")
        nested = and_(and_(p, q), p)
        assert nested.op == "and"
        assert len(nested.args) == 2

    def test_ite_shortcuts(self):
        assert ite(TRUE, X, Y) == X
        assert ite(FALSE, X, Y) == Y
        assert ite(bool_var("p"), X, X) == X


class TestConstructorFastPaths:
    """The comparison constructors' fast path for two interned bitvector
    nodes builds exactly the node the general path builds."""

    C0, C3, C5 = bv_const(0, 8), bv_const(3, 8), bv_const(5, 8)

    def test_shapes_and_shortcuts(self):
        C0, C3, C5 = self.C0, self.C3, self.C5
        assert ult(X, C0) is FALSE and ult(C3, C5) is TRUE
        assert ult(C5, X) is ast.Expr("ult", BOOL, (C5, X))
        assert ast.ule(C0, X) is TRUE and ast.ule(C5, C3) is FALSE
        assert ast.ule(X, C5) is ast.Expr("ule", BOOL, (X, C5))
        # eq is commutative: a constant moves to the right.
        assert eq(C5, X) is eq(X, C5) is ast.Expr("eq", BOOL, (X, C5))
        assert eq(C3, C5) is FALSE and eq(C5, C5) is TRUE
        assert eq(Y, X) is ast.Expr("eq", BOOL, (Y, X))

    def test_other_operands_take_the_general_path(self):
        p, q = bool_var("p"), bool_var("q")
        assert eq(p, q) is ast.iff(p, q)
        assert ult(p, p) is FALSE
        wide = ast.concat(X, Y)
        assert eq(wide, bv_const(0x0102, 16)) is and_(
            eq(X, bv_const(1, 8)), eq(Y, bv_const(2, 8)))
        with pytest.raises(SortError):
            ult(X, bv_var("w", 16))
        with pytest.raises(SortError):
            eq(X, 5)
        with pytest.raises(SortError):
            not_(X)
        with pytest.raises(SortError):
            and_(bool_var("p"), X)


class TestSortChecking:
    def test_mixed_width_addition_rejected(self):
        with pytest.raises(SortError):
            _ = X + bv_var("w", 16)

    def test_bool_arithmetic_rejected(self):
        with pytest.raises(SortError):
            _ = bool_var("p") + bool_var("q")

    def test_symbolic_bool_coercion_raises(self):
        with pytest.raises(SortError):
            bool(ult(X, Y))

    def test_python_equality_with_int_raises(self):
        with pytest.raises(SortError):
            _ = X == 5

    def test_zext_narrowing_rejected(self):
        with pytest.raises(SortError):
            zext(bv_var("w", 16), 8)


class TestStructuralIdentity:
    def test_equal_trees_are_equal_and_hash_equal(self):
        a = (X + 1) * Y
        b = (bv_var("x", 8) + 1) * bv_var("y", 8)
        assert a == b
        assert hash(a) == hash(b)

    def test_usable_as_dict_keys(self):
        table = {X + 1: "one"}
        assert table[bv_var("x", 8) + 1] == "one"

    def test_ne_builds_negated_equality(self):
        pred = ne(X, bv_const(3, 8))
        assert pred.op == "not"
        assert pred.args[0].op == "eq"


class TestSortSingletons:
    def test_constructors_return_the_singletons(self):
        assert BitVecSort(8) is bitvec_sort(8)
        assert BitVecSort(13) is bitvec_sort(13)
        assert BoolSort() is BOOL

    def test_equality_and_hash_are_identity_in_c(self):
        # No Python-level __eq__/__hash__: comparisons and intern-key
        # hashing never enter a Python frame.
        for cls in (BoolSort, BitVecSort):
            assert cls.__eq__ is object.__eq__
            assert cls.__hash__ is object.__hash__
        assert bitvec_sort(8) != bitvec_sort(16)
        assert bitvec_sort(8) != BOOL

    def test_pickle_and_copy_return_the_singletons(self):
        import copy
        import pickle

        for sort in (BOOL, bitvec_sort(8), bitvec_sort(32)):
            assert pickle.loads(pickle.dumps(sort)) is sort
            assert copy.copy(sort) is sort
            assert copy.deepcopy(sort) is sort

    def test_width_and_mask(self):
        sort = BitVecSort(12)
        assert (sort.width, sort.mask, sort.size) == (12, 0xFFF, 4096)
        assert sort.wrap(0x1234) == 0x234
        assert sort.to_signed(0xFFF) == -1

    def test_non_positive_width_rejected(self):
        with pytest.raises(SortError):
            BitVecSort(0)
        with pytest.raises(SortError):
            bitvec_sort(-8)


class TestWidthOps:
    def test_extract_bounds(self):
        assert ast.extract(bv_const(0xAB, 8), 7, 4).value == 0xA
        assert ast.extract(bv_const(0xAB, 8), 3, 0).value == 0xB

    def test_concat_folds(self):
        assert ast.concat(bv_const(0xAB, 8), bv_const(0xCD, 8)).value == 0xABCD

    def test_sext_folds(self):
        assert ast.sext(bv_const(0x80, 8), 16).value == 0xFF80
        assert ast.sext(bv_const(0x7F, 8), 16).value == 0x007F

    def test_zext_noop_at_same_width(self):
        assert zext(X, 8) == X
