"""Unit and property tests for interval arithmetic soundness.

Soundness is the load-bearing property: for every operation and every pair
of concrete values drawn from the input intervals, the concrete result must
land inside the computed output interval.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SolverError
from repro.solver import interval as iv
from repro.solver.ast import fold_binary
from repro.solver.interval import Interval
from repro.solver.sorts import bitvec_sort

WIDTH = 8
SORT = bitvec_sort(WIDTH)


def intervals(width=WIDTH):
    mask = (1 << width) - 1
    return st.tuples(st.integers(0, mask), st.integers(0, mask)).map(
        lambda pair: Interval(min(pair), max(pair)))


class TestBasics:
    def test_malformed_interval_rejected(self):
        with pytest.raises(SolverError):
            Interval(5, 3)
        with pytest.raises(SolverError):
            Interval(-1, 3)

    def test_size_and_singleton(self):
        assert Interval(3, 3).is_singleton
        assert Interval(0, 255).size == 256

    def test_intersect(self):
        assert Interval(0, 10).intersect(Interval(5, 20)) == Interval(5, 10)
        assert Interval(0, 4).intersect(Interval(5, 9)) is None

    def test_hull(self):
        assert Interval(0, 2).hull(Interval(9, 11)) == Interval(0, 11)

    def test_immutable(self):
        interval = Interval(3, 9)
        with pytest.raises(AttributeError):
            interval.lo = 0
        with pytest.raises(AttributeError):
            interval.hi = 200
        with pytest.raises(AttributeError):
            del interval.lo
        with pytest.raises(AttributeError):
            interval.extra = 1
        assert (interval.lo, interval.hi) == (3, 9)

    def test_value_equality_and_hash(self):
        assert Interval(3, 9) == Interval(3, 9)
        assert Interval(3, 9) != Interval(3, 10)
        assert Interval(3, 9) != (3, 9)
        assert hash(Interval(3, 9)) == hash(Interval(3, 9))
        assert len({Interval(0, 1), Interval(0, 1), iv.BOOL_FULL}) == 1
        assert repr(Interval(3, 9)) == "Interval(lo=3, hi=9)"

    def test_pickle_and_copy_round_trip(self):
        import copy
        import pickle

        interval = Interval(7, 42)
        for clone in (pickle.loads(pickle.dumps(interval)),
                      copy.copy(interval), copy.deepcopy(interval)):
            assert clone == interval
            assert (clone.lo, clone.hi) == (7, 42)

    def test_full_is_one_shared_instance_per_width(self):
        assert iv.full(8) is iv.full(8)
        assert iv.full(8) == Interval(0, 255)
        assert iv.full(16) == Interval(0, 0xFFFF)
        assert iv.full(1) is not iv.full(2)


_BINARY_OPS = ["add", "sub", "mul", "udiv", "urem", "bvand", "bvor", "bvxor",
               "shl", "lshr", "ashr"]


class TestTransferSoundness:
    @pytest.mark.parametrize("op", _BINARY_OPS)
    @given(data=st.data())
    def test_binary_op_sound(self, op, data):
        a = data.draw(intervals())
        b = data.draw(intervals())
        out = getattr(iv, op)(a, b, WIDTH)
        x = data.draw(st.integers(a.lo, a.hi))
        y = data.draw(st.integers(b.lo, b.hi))
        concrete = fold_binary(op, x, y, SORT)
        assert out.contains(concrete), f"{op}({x},{y})={concrete} outside {out}"

    @given(data=st.data())
    def test_neg_sound(self, data):
        a = data.draw(intervals())
        out = iv.neg(a, WIDTH)
        x = data.draw(st.integers(a.lo, a.hi))
        assert out.contains(SORT.wrap(-x))

    @given(data=st.data())
    def test_bvnot_sound(self, data):
        a = data.draw(intervals())
        out = iv.bvnot(a, WIDTH)
        x = data.draw(st.integers(a.lo, a.hi))
        assert out.contains(SORT.wrap(~x))

    @given(data=st.data())
    def test_sext_sound(self, data):
        a = data.draw(intervals())
        out = iv.sext(a, WIDTH, 16)
        x = data.draw(st.integers(a.lo, a.hi))
        wide = bitvec_sort(16)
        assert out.contains(wide.from_signed(SORT.to_signed(x)))

    @given(data=st.data())
    def test_concat_sound(self, data):
        a = data.draw(intervals())
        b = data.draw(intervals())
        out = iv.concat(a, b, WIDTH)
        x = data.draw(st.integers(a.lo, a.hi))
        y = data.draw(st.integers(b.lo, b.hi))
        assert out.contains((x << WIDTH) | y)


class TestCompare:
    def test_eq_decides_disjoint(self):
        assert iv.compare("eq", Interval(0, 4), Interval(5, 9), WIDTH) == iv.TRI_FALSE

    def test_eq_decides_equal_singletons(self):
        assert iv.compare("eq", Interval(7, 7), Interval(7, 7), WIDTH) == iv.TRI_TRUE

    def test_eq_unknown_on_overlap(self):
        assert iv.compare("eq", Interval(0, 9), Interval(5, 20), WIDTH) == iv.TRI_UNKNOWN

    def test_ult_decides(self):
        assert iv.compare("ult", Interval(0, 4), Interval(5, 9), WIDTH) == iv.TRI_TRUE
        assert iv.compare("ult", Interval(9, 12), Interval(3, 9), WIDTH) == iv.TRI_FALSE

    def test_signed_compare_crossing_boundary_is_unknown(self):
        crossing = Interval(100, 200)  # crosses 127/128 signed boundary
        assert iv.compare("slt", crossing, Interval(0, 0), WIDTH) == iv.TRI_UNKNOWN

    def test_signed_compare_negative_range(self):
        negative = Interval(128, 255)  # [-128, -1] signed
        positive = Interval(0, 127)
        assert iv.compare("slt", negative, positive, WIDTH) == iv.TRI_TRUE

    @given(data=st.data())
    def test_compare_sound(self, data):
        op = data.draw(st.sampled_from(["eq", "ult", "ule", "slt", "sle"]))
        a = data.draw(intervals())
        b = data.draw(intervals())
        outcome = iv.compare(op, a, b, WIDTH)
        if outcome == iv.TRI_UNKNOWN:
            return
        from repro.solver.ast import fold_comparison

        x = data.draw(st.integers(a.lo, a.hi))
        y = data.draw(st.integers(b.lo, b.hi))
        assert int(fold_comparison(op, x, y, SORT)) == outcome


class TestSignedBounds:
    def test_positive_range(self):
        assert iv.signed_bounds(Interval(0, 100), WIDTH) == (0, 100)

    def test_negative_range(self):
        assert iv.signed_bounds(Interval(128, 255), WIDTH) == (-128, -1)

    def test_crossing_returns_none(self):
        assert iv.signed_bounds(Interval(100, 200), WIDTH) is None
