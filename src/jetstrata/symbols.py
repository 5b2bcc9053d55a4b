"""Boardman symbol arithmetic: validation, codimension bounds, jet dimensions.

A Boardman symbol is a nonincreasing sequence of nonnegative integers
indexing a stratum of the k-jet space of map germs (R^n, 0) -> (R^p, 0).
Only the codimension *lower bound* is computed here; whether a given stratum
is nonempty beyond the basic rank checks is the caller's responsibility.

Every other module imports this one, so it also holds what they all share:
``is_integer``, the ``Record`` base of the immutable records, and
``ConsistencyError``.
"""

from __future__ import annotations

import sys


class ConsistencyError(RuntimeError):
    """An identity the toolkit itself guarantees failed; indicates a bug."""


def is_integer(value) -> bool:
    """True for an int that is not a bool: JSON ``true`` is not the number 1."""
    return isinstance(value, int) and not isinstance(value, bool)


class Record:
    """Base of the immutable records.  A record lists its fields in
    ``__slots__`` and is built from their values in slot order; only a record
    that validates or defaults a field has its own ``__init__``.  Assigning a
    field afterwards raises AttributeError.  Records of one type compare, hash
    and print by their fields, those in ``_hidden`` left out."""

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} field values, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _shown(self) -> tuple:
        return tuple((name, getattr(self, name)) for name in self.__slots__ if name not in self._hidden)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._shown() == other._shown()

    def __hash__(self):
        return hash(self._shown())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in self._shown())})"


class SymbolError(ValueError):
    """Base class for symbol and jet-context failures."""


class NotMonotone(SymbolError):
    pass


class ExceedsSource(SymbolError):
    pass


class EmptyStratum(SymbolError):
    pass


class HypothesisViolated(SymbolError):
    pass


class KTooSmall(SymbolError):
    pass


class NonzeroTail(SymbolError):
    pass


class _InfiniteOrder:
    """Marker for infinite jet order; finite-order arithmetic rejects it, and
    every consumer asks ``is_finite_order`` before comparing an order."""

    def __repr__(self):
        return "inf"


INFINITE_ORDER = _InfiniteOrder()


def is_finite_order(k) -> bool:
    return not isinstance(k, _InfiniteOrder)


def parse_integer(text: str) -> int:
    """Integer from user input: an optional ``-`` and ASCII digits, nothing else
    (``int`` would also take spaces, ``_``, ``+`` and non-ASCII digits)."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise SymbolError(f"expected an optional '-' followed by ASCII digits, got {text!r}")
    return int(text)


def parse_symbol(text: str) -> tuple[int, ...]:
    """Symbol entries from user input: integers separated by commas."""
    return tuple(parse_integer(part) for part in text.split(","))


def parse_order(value) -> int | _InfiniteOrder:
    """Jet order from user input: a positive integer or the string ``inf``."""
    if value == "inf":
        return INFINITE_ORDER
    if isinstance(value, str):
        value = parse_integer(value)
    if not is_integer(value) or value < 1:
        raise SymbolError(f"jet order must be a positive integer or inf, got {value!r}")
    return value


class JetContext(Record):
    """Source dimension, target dimension and jet order.

    Positive dimensions suffice for the counting and bound arithmetic here;
    the statements about deforming maps additionally presuppose n >= p >= 2
    or n < p, which is the caller's hypothesis, not a constructor constraint.
    """

    __slots__ = ("n", "p", "k")

    def __init__(self, n: int, p: int, k: int | _InfiniteOrder = INFINITE_ORDER):
        if not is_integer(n) or n < 1:
            raise SymbolError(f"source dimension must be a positive integer, got {n!r}")
        if not is_integer(p) or p < 1:
            raise SymbolError(f"target dimension must be a positive integer, got {p!r}")
        if is_finite_order(k):
            if not is_integer(k) or k < 1:
                raise SymbolError(f"jet order must be a positive integer or inf, got {k!r}")
        super().__init__(n, p, k)


class BoardmanSymbol(Record):
    """Nonincreasing tuple of nonnegative integers, length at least 1."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        entries = tuple(entries)
        if not entries:
            raise SymbolError("symbol must be nonempty")
        for e in entries:
            if not is_integer(e) or e < 0:
                raise SymbolError(f"symbol entries must be nonnegative integers, got {e!r}")
        for a, b in zip(entries, entries[1:]):
            if a < b:
                raise NotMonotone(f"symbol entries increase: {a} < {b} in {entries}")
        super().__init__(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]


def validate_symbol(entries, ctx: JetContext) -> BoardmanSymbol:
    """Symbol validated against a jet context; no normalization is applied."""
    symbol = entries if isinstance(entries, BoardmanSymbol) else BoardmanSymbol(tuple(entries))
    if symbol.entries[0] > ctx.n:
        raise ExceedsSource(
            f"leading entry {symbol.entries[0]} exceeds source dimension {ctx.n}"
        )
    return symbol


def first_order_codim(i: int, ctx: JetContext) -> int:
    """Codimension of the first-order stratum of kernel rank i: (p-n+i)*i."""
    if not is_integer(i) or i < 1:
        raise SymbolError(f"kernel rank must be a positive integer, got {i!r}")
    if i > ctx.n:
        raise ExceedsSource(f"kernel rank {i} exceeds source dimension {ctx.n}")
    if ctx.p - ctx.n + i < 0:
        raise EmptyStratum(
            f"kernel rank below {ctx.n - ctx.p}: every jet (R^{ctx.n} -> R^{ctx.p}) "
            f"drops rank by at least n-p"
        )
    return (ctx.p - ctx.n + i) * i


def codim_lower_bound(sym: BoardmanSymbol, ctx: JetContext) -> int:
    """Lower bound for the stratum codimension of a symbol:
    (p-n+i1)*i1 + (1/2) * sum of i_j*(i_j+1) over the tail entries.

    Requires i1 >= max(n-p+1, 1); the sum is exactly divisible by 2 because
    consecutive integers pair up, so the result is an exact integer.
    """
    first = sym.entries[0]
    floor = max(ctx.n - ctx.p + 1, 1)
    if first < floor:
        raise HypothesisViolated(
            f"leading entry {first} below max(n-p+1, 1) = {floor}"
        )
    tail = sum(e * (e + 1) for e in sym.entries[1:])
    return first_order_codim(first, ctx) + tail // 2


def tail_vanishing(sym: BoardmanSymbol, ctx: JetContext) -> bool:
    """Whether the next-to-last entry forces the stratum codimension above n.

    For symbols of length k >= n - |n-p| + 2, a positive next-to-last entry
    pushes the codimension to at least |n-p| + k - 1 > n, so any symbol whose
    stratum could meet a source of dimension n must end in two zeros.
    """
    k = len(sym.entries)
    threshold = max(ctx.n - abs(ctx.n - ctx.p) + 2, 2)
    if k < threshold:
        raise KTooSmall(f"symbol length {k} below the forcing threshold {threshold}")
    return sym.entries[-2] > 0


def truncate_symbol(sym: BoardmanSymbol) -> BoardmanSymbol:
    """Drop the final zero of a symbol that ends in 0."""
    if len(sym.entries) < 2:
        raise SymbolError("cannot truncate a length-1 symbol")
    if sym.entries[-1] != 0:
        raise NonzeroTail(f"symbol {sym.entries} does not end in 0")
    return BoardmanSymbol(sym.entries[:-1])


def jet_fiber_dim(ctx: JetContext) -> int:
    """Dimension of the space of k-jets of germs (R^n, 0) -> (R^p, 0):
    p * (C(n+k, n) - 1), the number of target coordinates times the number
    of monomials of degree 1..k in n variables.
    """
    if not is_finite_order(ctx.k):
        raise SymbolError("jet dimension requires a finite jet order")
    # C(n+k, min(n, k)) step by step: the i-th step is at least 2^i, so a
    # value too long to print is refused within about 14,300 steps.
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    small, large = sorted((ctx.n, ctx.k))
    monomials, ceiling = 1, 10**limit
    for i in range(1, small + 1):
        monomials = monomials * (large + i) // i
        if monomials > ceiling:
            break
    if ctx.p * (monomials - 1) >= ceiling:
        raise SymbolError(f"jet dimension has more than {limit} digits, the limit for printing an integer")
    return ctx.p * (monomials - 1)
