"""Sorts (types) for solver expressions.

The solver works over two families of sorts, mirroring the fragment of SMT
that Achilles needs (the paper uses STP/Z3 over bitvectors and booleans):

* :class:`BoolSort` — the boolean sort.
* :class:`BitVecSort` — fixed-width bitvectors; message bytes are 8-bit
  bitvectors and multi-byte fields are wider bitvectors.

Sorts are singletons: ``BoolSort()`` is :data:`BOOL` and ``BitVecSort(w)``
is ``bitvec_sort(w)``, and unpickling returns the same objects. Equality
and hashing are therefore the inherited identity ones, decided in C —
sorts sit in every intern-table key and every ``sort == BOOL`` check.
"""

from __future__ import annotations

from repro.errors import SortError


class Sort:
    """Base class for expression sorts."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return self.__class__.__name__


class BoolSort(Sort):
    """The boolean sort. ``BoolSort()`` returns the singleton :data:`BOOL`."""

    __slots__ = ()

    def __new__(cls) -> "BoolSort":
        return BOOL

    def __reduce__(self):
        return (BoolSort, ())


class BitVecSort(Sort):
    """Fixed-width bitvector sort; ``BitVecSort(w)`` is ``bitvec_sort(w)``.

    Values of this sort are unsigned integers in ``[0, 2**width)``. Signed
    interpretations are applied by individual operators (``slt`` etc.), not
    by the sort.

    Attributes:
        width: number of bits.
        mask: bitmask covering the full width (``2**width - 1``).
        size: number of distinct values of this sort (``2**width``).
    """

    __slots__ = ("width", "mask", "size")

    def __new__(cls, width: int) -> "BitVecSort":
        sort = _BV_CACHE.get(width)
        if sort is None:
            if width <= 0:
                raise SortError(f"bitvector width must be positive, got {width}")
            sort = object.__new__(cls)
            sort.width = width
            sort.size = 1 << width
            sort.mask = sort.size - 1
            sort = _BV_CACHE.setdefault(width, sort)
        return sort

    def __reduce__(self):
        return (BitVecSort, (self.width,))

    def __repr__(self) -> str:
        return f"BitVec({self.width})"

    def wrap(self, value: int) -> int:
        """Reduce ``value`` into the unsigned range of this sort."""
        return value & self.mask

    def to_signed(self, value: int) -> int:
        """Interpret an unsigned ``value`` as two's-complement signed."""
        value = self.wrap(value)
        if value >= 1 << (self.width - 1):
            return value - (1 << self.width)
        return value

    def from_signed(self, value: int) -> int:
        """Encode a signed integer as its two's-complement unsigned value."""
        return self.wrap(value)


BOOL = object.__new__(BoolSort)

_BV_CACHE: dict[int, BitVecSort] = {}


def bitvec_sort(width: int) -> BitVecSort:
    """Return the singleton bitvector sort of the given width."""
    return _BV_CACHE.get(width) or BitVecSort(width)


BV8 = bitvec_sort(8)
BV16 = bitvec_sort(16)
BV32 = bitvec_sort(32)
BV64 = bitvec_sort(64)
