"""Expression AST for the bitvector/boolean constraint language.

This module is the foundation of the solver subsystem, which substitutes for
the Z3/STP solvers used by the Achilles paper. Expressions are immutable,
structurally hashable trees. Light simplification (constant folding and
algebraic identities) happens at construction time so that the rest of the
system can build expressions freely without ballooning formulas.

Expressions are **hash-consed**: constructing a node that is structurally
identical to a live one returns the existing instance, so structural
equality coincides with ``is`` identity and dict/set/cache lookups on
expressions hash and compare in C with no Python frame. The intern table
is a plain dict from ``(op, sort, args, params)`` to a weak reference
that carries its own key; a hit is one ``dict.get`` and one reference
call, and a node's death removes its entry through one shared callback.
Nodes are reclaimed as soon as no formula references them.

Each node also carries the per-node memos of the traversals in
:mod:`repro.solver.walk` and :mod:`repro.solver.simplify` (variable set,
size, canonical form, structural digest) in slots of its own, so a memo
hit is an attribute read and a memo dies with its node. No memo refers
back to its own node: a self-canonical node stores a sentinel, and a
variable does not cache its own variable set, so dropping the last
reference to a node frees it at once, without the cycle collector.

Conventions
-----------
* Bitvector values are stored unsigned, in ``[0, 2**width)``.
* Python's comparison operators on bitvector expressions build **unsigned**
  comparisons (message fields are byte-oriented). Use :meth:`Expr.slt` and
  friends for signed comparisons.
* ``==`` on :class:`Expr` is *structural* equality (needed for hashing and
  caching); use :meth:`Expr.eq` / :meth:`Expr.ne` to build symbolic equality
  predicates. Because of interning, structural equality is decided by a
  single identity comparison.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Sequence

from repro.errors import SortError
from repro.solver.sorts import _BV_CACHE, BOOL, BitVecSort, Sort, bitvec_sort

# Operator name constants. Grouped by family; the solver's propagation and
# evaluation switch on these strings.
OP_CONST = "const"
OP_VAR = "var"

BV_UNARY_OPS = frozenset({"neg", "bvnot"})
BV_BINARY_OPS = frozenset(
    {"add", "sub", "mul", "udiv", "urem", "bvand", "bvor", "bvxor", "shl", "lshr", "ashr"}
)
BV_COMPARISON_OPS = frozenset({"eq", "ult", "ule", "slt", "sle"})
BOOL_OPS = frozenset({"and", "or", "not", "implies"})
WIDTH_OPS = frozenset({"zext", "sext", "extract", "concat"})

_COMMUTATIVE_OPS = frozenset({"add", "mul", "bvand", "bvor", "bvxor", "eq"})


class _InternRef(weakref.ref):
    """A weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


#: Global intern table: (op, sort, args, params) -> weak reference to the
#: live Expr instance. A dead node's entry is removed by ``_forget``.
_INTERN_TABLE: dict[tuple, _InternRef] = {}


def _forget(ref: _InternRef, table: dict = _INTERN_TABLE) -> None:
    """Weakref callback: drop a dead node's entry, unless a newer node
    already took over its key."""
    if table.get(ref.key) is ref:
        del table[ref.key]


class Expr:
    """An immutable, interned expression node.

    Attributes:
        op: operator name (one of the ``OP_*`` / op-set constants above).
        sort: the sort of the expression's value.
        args: child expressions.
        params: non-expression parameters (constant value, variable name,
            extract bounds, extension width).

    The underscored ``_vars``, ``_size``, ``_canon`` and ``_digest`` slots
    are memos owned by :mod:`repro.solver.walk` and
    :mod:`repro.solver.simplify`; ``None`` means "not computed yet".
    """

    __slots__ = ("op", "sort", "args", "params",
                 "_vars", "_size", "_canon", "_digest", "__weakref__")

    def __new__(cls, op: str, sort: Sort, args: tuple["Expr", ...] = (), params: tuple = ()):
        key = (op, sort, args, params)
        ref = _INTERN_TABLE.get(key)
        if ref is not None:
            cached = ref()
            if cached is not None:
                return cached
        self = object.__new__(cls)
        self.op = op
        self.sort = sort
        self.args = args
        self.params = params
        self._vars = self._size = self._canon = self._digest = None
        ref = _InternRef(self, _forget)
        ref.key = key
        _INTERN_TABLE[key] = ref
        return self

    # -- structural identity ------------------------------------------------
    #
    # Interning makes structural equality an identity check: every
    # construction of the same (op, sort, args, params) returns the same
    # instance, and copy/pickle round-trips re-enter __new__. Hashing is
    # therefore identity hashing too, done in C with no Python frame.
    # Hash values differ between processes, so nothing may depend on them.

    __hash__ = object.__hash__

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            if isinstance(other, (int, bool)):
                # Catch the classic mistake of writing `expr == 5` expecting
                # a symbolic predicate; `==` is structural identity.
                raise SortError(
                    "`==` on expressions is structural; use .eq()/.ne() to "
                    "build symbolic (in)equality predicates")
            return NotImplemented
        return False

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __copy__(self) -> "Expr":
        return self

    def __deepcopy__(self, memo) -> "Expr":
        return self

    def __reduce__(self):
        return (Expr, (self.op, self.sort, self.args, self.params))

    # -- inspection helpers --------------------------------------------------

    @property
    def is_const(self) -> bool:
        return self.op == OP_CONST

    @property
    def is_var(self) -> bool:
        return self.op == OP_VAR

    @property
    def value(self) -> int:
        """Concrete value of a constant node (bool constants are 0/1)."""
        if self.op != OP_CONST:
            raise SortError(f"value requested from non-constant expression {self.op}")
        return self.params[0]

    @property
    def name(self) -> str:
        """Name of a variable node."""
        if self.op != OP_VAR:
            raise SortError(f"name requested from non-variable expression {self.op}")
        return self.params[0]

    @property
    def width(self) -> int:
        """Width of a bitvector expression."""
        if not isinstance(self.sort, BitVecSort):
            raise SortError(f"width requested from non-bitvector expression of sort {self.sort}")
        return self.sort.width

    @property
    def is_true(self) -> bool:
        return self.op == OP_CONST and self.sort == BOOL and self.params[0] == 1

    @property
    def is_false(self) -> bool:
        return self.op == OP_CONST and self.sort == BOOL and self.params[0] == 0

    def __repr__(self) -> str:
        from repro.solver.printer import to_string

        return to_string(self)

    def __bool__(self) -> bool:
        raise SortError(
            "symbolic expressions have no concrete truth value; route branches "
            "through ctx.branch() or use the solver"
        )

    # -- bitvector operator sugar ---------------------------------------------

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.sort != self.sort:
                raise SortError(f"sort mismatch: {self.sort} vs {other.sort}")
            return other
        if isinstance(other, int) and isinstance(self.sort, BitVecSort):
            return bv_const(other, self.sort.width)
        raise SortError(f"cannot coerce {other!r} to sort {self.sort}")

    def __add__(self, other) -> "Expr":
        return add(self, self._coerce(other))

    def __radd__(self, other) -> "Expr":
        return add(self._coerce(other), self)

    def __sub__(self, other) -> "Expr":
        return sub(self, self._coerce(other))

    def __rsub__(self, other) -> "Expr":
        return sub(self._coerce(other), self)

    def __mul__(self, other) -> "Expr":
        return mul(self, self._coerce(other))

    def __rmul__(self, other) -> "Expr":
        return mul(self._coerce(other), self)

    def __and__(self, other) -> "Expr":
        if self.sort == BOOL:
            return and_(self, other)
        return bvand(self, self._coerce(other))

    def __rand__(self, other) -> "Expr":
        return self.__and__(other)

    def __or__(self, other) -> "Expr":
        if self.sort == BOOL:
            return or_(self, other)
        return bvor(self, self._coerce(other))

    def __ror__(self, other) -> "Expr":
        return self.__or__(other)

    def __xor__(self, other) -> "Expr":
        return bvxor(self, self._coerce(other))

    def __rxor__(self, other) -> "Expr":
        return self.__xor__(other)

    def __lshift__(self, other) -> "Expr":
        return shl(self, self._coerce(other))

    def __rshift__(self, other) -> "Expr":
        return lshr(self, self._coerce(other))

    def __invert__(self) -> "Expr":
        if self.sort == BOOL:
            return not_(self)
        return bvnot(self)

    def __neg__(self) -> "Expr":
        return neg(self)

    # Unsigned comparisons via Python operators (see module docstring).

    def __lt__(self, other) -> "Expr":
        return ult(self, self._coerce(other))

    def __le__(self, other) -> "Expr":
        return ule(self, self._coerce(other))

    def __gt__(self, other) -> "Expr":
        return ult(self._coerce(other), self)

    def __ge__(self, other) -> "Expr":
        return ule(self._coerce(other), self)

    # Signed comparisons and symbolic (in)equality as methods.

    def slt(self, other) -> "Expr":
        return slt(self, self._coerce(other))

    def sle(self, other) -> "Expr":
        return sle(self, self._coerce(other))

    def sgt(self, other) -> "Expr":
        return slt(self._coerce(other), self)

    def sge(self, other) -> "Expr":
        return sle(self._coerce(other), self)

    def eq(self, other) -> "Expr":
        return eq(self, self._coerce(other))

    def ne(self, other) -> "Expr":
        return not_(eq(self, self._coerce(other)))


# -- leaf constructors --------------------------------------------------------

TRUE = Expr(OP_CONST, BOOL, params=(1,))
FALSE = Expr(OP_CONST, BOOL, params=(0,))


def bool_const(value: bool) -> Expr:
    return TRUE if value else FALSE


def bv_const(value: int, width: int) -> Expr:
    """A bitvector constant; ``value`` is wrapped into the unsigned range."""
    sort = _BV_CACHE.get(width) or bitvec_sort(width)
    return Expr(OP_CONST, sort, params=(value & sort.mask,))


def bv_var(name: str, width: int) -> Expr:
    """A bitvector variable. Variables are identified by (name, sort)."""
    return Expr(OP_VAR, _BV_CACHE.get(width) or bitvec_sort(width),
                params=(name,))


def bool_var(name: str) -> Expr:
    return Expr(OP_VAR, BOOL, params=(name,))


# -- concrete semantics (shared with the evaluator) ---------------------------


def fold_binary(op: str, a: int, b: int, sort: BitVecSort) -> int:
    """Concrete semantics of binary bitvector operators (unsigned in/out)."""
    if op == "add":
        return sort.wrap(a + b)
    if op == "sub":
        return sort.wrap(a - b)
    if op == "mul":
        return sort.wrap(a * b)
    if op == "udiv":
        # SMT-LIB semantics: division by zero yields all-ones.
        return sort.mask if b == 0 else a // b
    if op == "urem":
        return a if b == 0 else a % b
    if op == "bvand":
        return a & b
    if op == "bvor":
        return a | b
    if op == "bvxor":
        return a ^ b
    if op == "shl":
        return sort.wrap(a << b) if b < sort.width else 0
    if op == "lshr":
        return a >> b if b < sort.width else 0
    if op == "ashr":
        signed = sort.to_signed(a)
        shift = min(b, sort.width - 1)
        return sort.from_signed(signed >> shift)
    raise SortError(f"unknown binary bitvector operator {op}")


def fold_comparison(op: str, a: int, b: int, sort: BitVecSort) -> bool:
    """Concrete semantics of comparison operators on unsigned values."""
    if op == "eq":
        return a == b
    if op == "ult":
        return a < b
    if op == "ule":
        return a <= b
    if op == "slt":
        return sort.to_signed(a) < sort.to_signed(b)
    if op == "sle":
        return sort.to_signed(a) <= sort.to_signed(b)
    raise SortError(f"unknown comparison operator {op}")


# -- bitvector constructors ----------------------------------------------------


def _check_bv_pair(a: Expr, b: Expr) -> BitVecSort:
    if not isinstance(a.sort, BitVecSort) or a.sort != b.sort:
        raise SortError(f"operands must share a bitvector sort, got {a.sort} and {b.sort}")
    return a.sort


def _binary(op: str, a: Expr, b: Expr) -> Expr:
    sort = _check_bv_pair(a, b)
    if a.is_const and b.is_const:
        return bv_const(fold_binary(op, a.value, b.value, sort), sort.width)
    # Canonical order: constants on the right for commutative operators, so
    # that propagation rules only need to match one shape.
    if op in _COMMUTATIVE_OPS and a.is_const and not b.is_const:
        a, b = b, a
    return Expr(op, sort, args=(a, b))


def add(a: Expr, b: Expr) -> Expr:
    sort = _check_bv_pair(a, b)
    if a.is_const and a.value == 0:
        return b
    if b.is_const and b.value == 0:
        return a
    # Re-associate (x + c1) + c2 into x + (c1 + c2).
    if b.is_const and a.op == "add" and a.args[1].is_const:
        folded = bv_const(fold_binary("add", a.args[1].value, b.value, sort), sort.width)
        return add(a.args[0], folded)
    return _binary("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if b.is_const and b.value == 0:
        return a
    if a == b:
        return bv_const(0, a.width)
    return _binary("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return bv_const(0, y.width)
            if x.value == 1:
                return y
    return _binary("mul", a, b)


def udiv(a: Expr, b: Expr) -> Expr:
    if b.is_const and b.value == 1:
        return a
    return _binary("udiv", a, b)


def urem(a: Expr, b: Expr) -> Expr:
    return _binary("urem", a, b)


def bvand(a: Expr, b: Expr) -> Expr:
    sort = _check_bv_pair(a, b)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return bv_const(0, sort.width)
            if x.value == sort.mask:
                return y
    if a == b:
        return a
    return _binary("bvand", a, b)


def bvor(a: Expr, b: Expr) -> Expr:
    sort = _check_bv_pair(a, b)
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return y
            if x.value == sort.mask:
                return bv_const(sort.mask, sort.width)
    if a == b:
        return a
    return _binary("bvor", a, b)


def bvxor(a: Expr, b: Expr) -> Expr:
    if a == b:
        return bv_const(0, a.width)
    for x, y in ((a, b), (b, a)):
        if x.is_const and x.value == 0:
            return y
    return _binary("bvxor", a, b)


def shl(a: Expr, b: Expr) -> Expr:
    if b.is_const and b.value == 0:
        return a
    return _binary("shl", a, b)


def lshr(a: Expr, b: Expr) -> Expr:
    if b.is_const and b.value == 0:
        return a
    return _binary("lshr", a, b)


def ashr(a: Expr, b: Expr) -> Expr:
    if b.is_const and b.value == 0:
        return a
    return _binary("ashr", a, b)


def neg(a: Expr) -> Expr:
    if a.is_const:
        return bv_const(-a.value, a.width)
    return Expr("neg", a.sort, args=(a,))


def bvnot(a: Expr) -> Expr:
    if a.is_const:
        return bv_const(~a.value, a.width)
    if a.op == "bvnot":
        return a.args[0]
    return Expr("bvnot", a.sort, args=(a,))


def zext(a: Expr, width: int) -> Expr:
    """Zero-extend ``a`` to ``width`` bits."""
    if not isinstance(a.sort, BitVecSort):
        raise SortError("zext applies to bitvectors")
    if width < a.width:
        raise SortError(f"cannot zero-extend {a.width}-bit value to {width} bits")
    if width == a.width:
        return a
    if a.is_const:
        return bv_const(a.value, width)
    return Expr("zext", bitvec_sort(width), args=(a,), params=(width,))


def sext(a: Expr, width: int) -> Expr:
    """Sign-extend ``a`` to ``width`` bits."""
    if not isinstance(a.sort, BitVecSort):
        raise SortError("sext applies to bitvectors")
    if width < a.width:
        raise SortError(f"cannot sign-extend {a.width}-bit value to {width} bits")
    if width == a.width:
        return a
    if a.is_const:
        return bv_const(bitvec_sort(width).from_signed(a.sort.to_signed(a.value)), width)
    return Expr("sext", bitvec_sort(width), args=(a,), params=(width,))


def extract(a: Expr, hi: int, lo: int) -> Expr:
    """Extract bits ``hi..lo`` (inclusive, zero-indexed from LSB).

    Rewrites extraction over ``concat``/``extract``/``zext`` structurally,
    which lets the solver's byte-splitting pass reduce wide-variable
    arithmetic to byte-level expressions.
    """
    if not isinstance(a.sort, BitVecSort):
        raise SortError("extract applies to bitvectors")
    if not (0 <= lo <= hi < a.width):
        raise SortError(f"invalid extract bounds [{hi}:{lo}] on width {a.width}")
    width = hi - lo + 1
    if width == a.width:
        return a
    if a.is_const:
        return bv_const(a.value >> lo, width)
    if a.op == "concat":
        hi_part, lo_part = a.args
        low_width = lo_part.width
        if hi < low_width:
            return extract(lo_part, hi, lo)
        if lo >= low_width:
            return extract(hi_part, hi - low_width, lo - low_width)
        return concat(extract(hi_part, hi - low_width, 0),
                      extract(lo_part, low_width - 1, lo))
    if a.op == "extract":
        inner_lo = a.params[1]
        return extract(a.args[0], inner_lo + hi, inner_lo + lo)
    if a.op == "zext":
        inner = a.args[0]
        if hi < inner.width:
            return extract(inner, hi, lo)
        if lo >= inner.width:
            return bv_const(0, width)
        return concat(bv_const(0, hi - inner.width + 1),
                      extract(inner, inner.width - 1, lo))
    return Expr("extract", bitvec_sort(width), args=(a,), params=(hi, lo))


def concat(hi: Expr, lo: Expr) -> Expr:
    """Concatenate two bitvectors; ``hi`` occupies the most significant bits."""
    hi_sort, lo_sort = hi.sort, lo.sort
    if hi_sort.__class__ is not BitVecSort or lo_sort.__class__ is not BitVecSort:
        raise SortError("concat applies to bitvectors")
    lo_width = lo_sort.width
    width = hi_sort.width + lo_width
    if hi.op == OP_CONST and lo.op == OP_CONST:
        return bv_const((hi.params[0] << lo_width) | lo.params[0], width)
    return Expr("concat", _BV_CACHE.get(width) or bitvec_sort(width),
                args=(hi, lo))


# -- comparisons ----------------------------------------------------------------
#
# The hot comparisons open with a fast path for two interned nodes of one
# bitvector sort: identity stands in for ``==``, and ``op``/``params``
# reads for the ``is_const``/``value`` properties, so an intern hit makes
# no Python call but ``Expr.__new__``. Everything else (bool operands,
# sort errors, non-Expr operands, concat splitting) takes the general path
# below it, which the fast path agrees with wherever both apply.


def _comparison(op: str, a: Expr, b: Expr) -> Expr:
    sort = _check_bv_pair(a, b)
    if a.is_const and b.is_const:
        return bool_const(fold_comparison(op, a.value, b.value, sort))
    if op in _COMMUTATIVE_OPS and a.is_const and not b.is_const:
        a, b = b, a
    return Expr(op, BOOL, args=(a, b))


def eq(a: Expr, b: Expr) -> Expr:
    if (a.__class__ is Expr and b.__class__ is Expr and a.sort is b.sort
            and a.sort.__class__ is BitVecSort
            and a.op != "concat" and b.op != "concat"):
        if a is b:
            return TRUE
        if a.op == OP_CONST:
            if b.op == OP_CONST:
                return TRUE if a.params[0] == b.params[0] else FALSE
            return Expr("eq", BOOL, (b, a))
        return Expr("eq", BOOL, (a, b))
    if a.sort == BOOL and b.sort == BOOL:
        return iff(a, b)
    if a == b:
        return TRUE
    # Structural decomposition: equality of concatenations splits into
    # per-part equalities when the split points line up, turning wide
    # message-field comparisons into byte-level constraints.
    if a.op == "concat" and b.op == "concat":
        if a.args[1].width == b.args[1].width:
            return and_(eq(a.args[0], b.args[0]), eq(a.args[1], b.args[1]))
    if a.op == "concat" and b.is_const:
        low_width = a.args[1].width
        return and_(eq(a.args[0], bv_const(b.value >> low_width,
                                           a.args[0].width)),
                    eq(a.args[1], bv_const(b.value, low_width)))
    if b.op == "concat" and a.is_const:
        return eq(b, a)
    return _comparison("eq", a, b)


def ne(a: Expr, b: Expr) -> Expr:
    return not_(eq(a, b))


def ult(a: Expr, b: Expr) -> Expr:
    if (a.__class__ is Expr and b.__class__ is Expr and a.sort is b.sort
            and a.sort.__class__ is BitVecSort):
        if a is b:
            return FALSE
        if b.op == OP_CONST:
            if b.params[0] == 0:
                return FALSE
            if a.op == OP_CONST:
                return TRUE if a.params[0] < b.params[0] else FALSE
        return Expr("ult", BOOL, (a, b))
    if a == b:
        return FALSE
    if b.is_const and b.value == 0:
        return FALSE
    return _comparison("ult", a, b)


def ule(a: Expr, b: Expr) -> Expr:
    if (a.__class__ is Expr and b.__class__ is Expr and a.sort is b.sort
            and a.sort.__class__ is BitVecSort):
        if a is b:
            return TRUE
        if a.op == OP_CONST:
            if a.params[0] == 0:
                return TRUE
            if b.op == OP_CONST:
                return TRUE if a.params[0] <= b.params[0] else FALSE
        return Expr("ule", BOOL, (a, b))
    if a == b:
        return TRUE
    if a.is_const and a.value == 0:
        return TRUE
    return _comparison("ule", a, b)


def ugt(a: Expr, b: Expr) -> Expr:
    return ult(b, a)


def uge(a: Expr, b: Expr) -> Expr:
    return ule(b, a)


def slt(a: Expr, b: Expr) -> Expr:
    if a == b:
        return FALSE
    return _comparison("slt", a, b)


def sle(a: Expr, b: Expr) -> Expr:
    if a == b:
        return TRUE
    return _comparison("sle", a, b)


def sgt(a: Expr, b: Expr) -> Expr:
    return slt(b, a)


def sge(a: Expr, b: Expr) -> Expr:
    return sle(b, a)


# -- boolean connectives ----------------------------------------------------------


def _check_bool(a: Expr) -> None:
    if a.sort != BOOL:
        raise SortError(f"boolean operand required, got sort {a.sort}")


# The connectives compare with the interned TRUE/FALSE nodes by identity
# (the only boolean constants) instead of reading ``is_true``/``is_false``.


def not_(a: Expr) -> Expr:
    if a.sort is not BOOL:
        _check_bool(a)
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if a.op == "not":
        return a.args[0]
    return Expr("not", BOOL, args=(a,))


def and_(*operands: Expr) -> Expr:
    """N-ary conjunction with constant shortcuts and flattening."""
    flat: list[Expr] = []
    for operand in operands:
        if operand.sort is not BOOL:
            _check_bool(operand)
        if operand is FALSE:
            return FALSE
        if operand is TRUE:
            continue
        if operand.op == "and":
            flat.extend(operand.args)
        else:
            flat.append(operand)
    # Deduplicate while preserving order.
    unique = tuple(dict.fromkeys(flat))
    if not unique:
        return TRUE
    if len(unique) == 1:
        return unique[0]
    return Expr("and", BOOL, args=unique)


def or_(*operands: Expr) -> Expr:
    """N-ary disjunction with constant shortcuts and flattening."""
    flat: list[Expr] = []
    for operand in operands:
        if operand.sort is not BOOL:
            _check_bool(operand)
        if operand is TRUE:
            return TRUE
        if operand is FALSE:
            continue
        if operand.op == "or":
            flat.extend(operand.args)
        else:
            flat.append(operand)
    unique = tuple(dict.fromkeys(flat))
    if not unique:
        return FALSE
    if len(unique) == 1:
        return unique[0]
    return Expr("or", BOOL, args=unique)


def implies(a: Expr, b: Expr) -> Expr:
    return or_(not_(a), b)


def iff(a: Expr, b: Expr) -> Expr:
    _check_bool(a)
    _check_bool(b)
    if a == b:
        return TRUE
    if a.is_true:
        return b
    if b.is_true:
        return a
    if a.is_false:
        return not_(b)
    if b.is_false:
        return not_(a)
    return and_(implies(a, b), implies(b, a))


def ite(cond: Expr, then: Expr, otherwise: Expr) -> Expr:
    _check_bool(cond)
    if then.sort != otherwise.sort:
        raise SortError(f"ite branches must share a sort: {then.sort} vs {otherwise.sort}")
    if cond.is_true:
        return then
    if cond.is_false:
        return otherwise
    if then == otherwise:
        return then
    return Expr("ite", then.sort, args=(cond, then, otherwise))


def all_of(operands: Iterable[Expr]) -> Expr:
    return and_(*operands)


def any_of(operands: Iterable[Expr]) -> Expr:
    return or_(*operands)


def bytes_to_exprs(data: bytes | Sequence[int]) -> list[Expr]:
    """Lift concrete bytes into a list of 8-bit constant expressions."""
    return [bv_const(b, 8) for b in data]
