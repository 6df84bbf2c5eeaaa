"""Unsigned interval arithmetic for bounds propagation.

Intervals are contiguous, inclusive unsigned ranges ``[lo, hi]`` within a
bitvector width. All transfer functions are *sound over-approximations*:
the true result set of an operation is always contained in the returned
interval (falling back to the full range when wrap-around makes the result
non-contiguous). Soundness is what matters — the solver's search verifies
candidate models by concrete evaluation, so precision only affects speed.

:class:`Interval` is a slotted value class, not a dataclass: propagation
builds tens of thousands per hunt, and a frozen dataclass pays a Python
``object.__setattr__`` per field. It is immutable all the same, which is
what lets :func:`full` hand out one shared instance per width and
:func:`singleton` one per byte value (:data:`ZERO` and :data:`ONE` are the
boolean results). Each comparison has its own tri-valued decision
(``compare_eq`` ... ``compare_sle``), looked up by operator name in
:data:`COMPARISONS`.
"""

from __future__ import annotations

from repro.errors import SolverError


class Interval:
    """Inclusive unsigned range ``[lo, hi]``. Invariant: ``0 <= lo <= hi``.

    Immutable, with value equality and hashing.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo < 0 or lo > hi:
            raise SolverError(f"malformed interval [{lo}, {hi}]")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Interval is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Interval is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (Interval, (self.lo, self.hi))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Interval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))


# Slot writers that bypass the refusing ``__setattr__``; only
# ``Interval.__init__`` uses them.
_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__

_FULL: dict[int, Interval] = {}


def full(width: int) -> Interval:
    """The whole unsigned range of ``width`` bits, one shared instance per
    width (safe because intervals are immutable)."""
    interval = _FULL.get(width)
    if interval is None:
        interval = _FULL.setdefault(width, Interval(0, (1 << width) - 1))
    return interval


#: Shared singletons of the byte values (bools included), indexed by
#: value. A bounded table: wider values build a fresh interval each time.
SMALL_SINGLETONS = tuple(Interval(value, value) for value in range(256))


def singleton(value: int) -> Interval:
    """``[value, value]``; one shared instance per value below 256."""
    if 0 <= value < 256:
        return SMALL_SINGLETONS[value]
    return Interval(value, value)


ZERO = SMALL_SINGLETONS[0]
ONE = SMALL_SINGLETONS[1]
BOOL_FULL = Interval(0, 1)


def _wrap_window(lo: int, hi: int, width: int) -> Interval:
    """Normalize a possibly-shifted window [lo, hi] into the unsigned range.

    If the window spans fewer than ``2**width`` values and both endpoints
    fall in the same period, the wrapped set stays contiguous; otherwise the
    only sound contiguous answer is the full range.
    """
    size = 1 << width
    if hi - lo >= size:
        return full(width)
    if 0 <= lo and hi < size:
        return Interval(lo, hi)
    if lo >= size and hi >= size:
        return Interval(lo - size, hi - size)
    if lo < 0 and hi < 0:
        return Interval(lo + size, hi + size)
    return full(width)


def add(a: Interval, b: Interval, width: int) -> Interval:
    return _wrap_window(a.lo + b.lo, a.hi + b.hi, width)


def sub(a: Interval, b: Interval, width: int) -> Interval:
    return _wrap_window(a.lo - b.hi, a.hi - b.lo, width)


def mul(a: Interval, b: Interval, width: int) -> Interval:
    hi = a.hi * b.hi
    if hi < (1 << width):
        return Interval(a.lo * b.lo, hi)
    return full(width)


def udiv(a: Interval, b: Interval, width: int) -> Interval:
    if b.lo == 0:
        # Division by zero yields all-ones in SMT-LIB semantics.
        return full(width)
    return Interval(a.lo // b.hi, a.hi // b.lo)


def urem(a: Interval, b: Interval, width: int) -> Interval:
    # urem(a, b) <= a always (and urem(a, 0) == a). When the divisor is
    # provably nonzero the remainder is also strictly below b.
    if b.lo > 0:
        return Interval(0, min(a.hi, b.hi - 1))
    return Interval(0, a.hi)


def bvand(a: Interval, b: Interval, width: int) -> Interval:
    return Interval(0, min(a.hi, b.hi))


def _bitlen_cap(value: int) -> int:
    """Smallest all-ones value covering ``value`` (e.g. 5 -> 7)."""
    return (1 << value.bit_length()) - 1


def bvor(a: Interval, b: Interval, width: int) -> Interval:
    return Interval(max(a.lo, b.lo), _bitlen_cap(max(a.hi, b.hi)))


def bvxor(a: Interval, b: Interval, width: int) -> Interval:
    return Interval(0, _bitlen_cap(max(a.hi, b.hi)))


def shl(a: Interval, b: Interval, width: int) -> Interval:
    if b.hi >= width:
        return full(width)
    hi = a.hi << b.hi
    if hi < (1 << width):
        return Interval(a.lo << b.lo, hi)
    return full(width)


def lshr(a: Interval, b: Interval, width: int) -> Interval:
    if b.hi >= width:
        return Interval(0, a.hi)
    return Interval(a.lo >> b.hi, a.hi >> b.lo)


def ashr(a: Interval, b: Interval, width: int) -> Interval:
    if a.hi < (1 << (width - 1)):
        # Sign bit is never set; behaves like a logical shift.
        return lshr(a, b, width)
    return full(width)


def neg(a: Interval, width: int) -> Interval:
    return sub(singleton(0), a, width)


def bvnot(a: Interval, width: int) -> Interval:
    mask = (1 << width) - 1
    return Interval(mask - a.hi, mask - a.lo)


def sext(a: Interval, old_width: int, new_width: int) -> Interval:
    sign_threshold = 1 << (old_width - 1)
    shift = (1 << new_width) - (1 << old_width)
    if a.hi < sign_threshold:
        return a
    if a.lo >= sign_threshold:
        return Interval(a.lo + shift, a.hi + shift)
    return full(new_width)


def extract(a: Interval, hi_bit: int, lo_bit: int, old_width: int) -> Interval:
    width = hi_bit - lo_bit + 1
    if lo_bit == 0 and a.hi < (1 << width):
        return a
    return full(width)


def concat(hi_part: Interval, lo_part: Interval, lo_width: int) -> Interval:
    return Interval((hi_part.lo << lo_width) + lo_part.lo, (hi_part.hi << lo_width) + lo_part.hi)


def signed_bounds(a: Interval, width: int) -> tuple[int, int] | None:
    """Signed (lo, hi) if the interval does not straddle the sign boundary."""
    sign_threshold = 1 << (width - 1)
    period = 1 << width
    if a.hi < sign_threshold:
        return (a.lo, a.hi)
    if a.lo >= sign_threshold:
        return (a.lo - period, a.hi - period)
    return None


# Tri-valued comparison outcomes.
TRI_TRUE = 1
TRI_FALSE = 0
TRI_UNKNOWN = -1


def compare_eq(a: Interval, b: Interval, width: int) -> int:
    if a.hi < b.lo or b.hi < a.lo:
        return TRI_FALSE
    if a.lo == a.hi == b.lo == b.hi:
        return TRI_TRUE
    return TRI_UNKNOWN


def compare_ult(a: Interval, b: Interval, width: int) -> int:
    if a.hi < b.lo:
        return TRI_TRUE
    if a.lo >= b.hi:
        return TRI_FALSE
    return TRI_UNKNOWN


def compare_ule(a: Interval, b: Interval, width: int) -> int:
    if a.hi <= b.lo:
        return TRI_TRUE
    if a.lo > b.hi:
        return TRI_FALSE
    return TRI_UNKNOWN


def compare_slt(a: Interval, b: Interval, width: int) -> int:
    sa = signed_bounds(a, width)
    sb = signed_bounds(b, width)
    if sa is None or sb is None:
        return TRI_UNKNOWN
    if sa[1] < sb[0]:
        return TRI_TRUE
    if sa[0] >= sb[1]:
        return TRI_FALSE
    return TRI_UNKNOWN


def compare_sle(a: Interval, b: Interval, width: int) -> int:
    sa = signed_bounds(a, width)
    sb = signed_bounds(b, width)
    if sa is None or sb is None:
        return TRI_UNKNOWN
    if sa[1] <= sb[0]:
        return TRI_TRUE
    if sa[0] > sb[1]:
        return TRI_FALSE
    return TRI_UNKNOWN


#: Comparison operator -> its tri-valued decision over intervals.
COMPARISONS = {"eq": compare_eq, "ult": compare_ult, "ule": compare_ule,
               "slt": compare_slt, "sle": compare_sle}


def compare(op: str, a: Interval, b: Interval, width: int) -> int:
    """Decide a comparison over intervals, returning a TRI_* outcome."""
    decide = COMPARISONS.get(op)
    if decide is None:
        raise SolverError(f"unknown comparison operator {op}")
    return decide(a, b, width)
