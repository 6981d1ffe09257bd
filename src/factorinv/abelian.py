"""Finite abelian groups presented as products of cyclic factors.

A group is a tuple of cyclic orders (n1, ..., nr); the empty tuple is the
trivial group.  Elements are plain residue tuples, always stored normalized
(0 <= residue_i < order_i), so equality and hashing are structural.  All
values are immutable and all operations pure.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from math import gcd, prod
from operator import mul

from .errors import InvalidElementError, InvalidSpecificationError

Element = tuple[int, ...]


@dataclass(frozen=True)
class FinAbGroup:
    """Direct sum Z/n1 + ... + Z/nr of cyclic groups.

    The factor list is taken as given; it is not required to be in
    invariant-factor (divisibility) form.
    """

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(self.orders)
        if any(not _is_int(n) or n < 1 for n in orders):
            raise InvalidSpecificationError(
                f"cyclic factor orders must be positive integers, got {self.orders!r}"
            )
        object.__setattr__(self, "orders", orders)

    @classmethod
    def from_doc(cls, doc) -> "FinAbGroup":
        """Build a group from a ``{"orders": [n1, n2, ...]}`` document."""
        if not isinstance(doc, dict) or "orders" not in doc:
            raise InvalidSpecificationError(f"group document needs an 'orders' key: {doc!r}")
        orders = doc["orders"]
        if not isinstance(orders, (list, tuple)):
            raise InvalidSpecificationError(f"'orders' must be a list, got {orders!r}")
        return cls(tuple(orders))

    def to_doc(self) -> dict:
        return {"orders": list(self.orders)}

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def cardinality(self) -> int:
        return prod(self.orders)

    @property
    def exponent(self) -> int:
        out = 1
        for n in self.orders:
            out = out * n // gcd(out, n)
        return out

    @property
    def zero(self) -> Element:
        return (0,) * len(self.orders)

    def element(self, residues) -> Element:
        """Normalize a residue tuple into this group.

        Normalization is idempotent: re-normalizing a returned element is a
        no-op.
        """
        residues = tuple(residues)
        if len(residues) != len(self.orders):
            raise InvalidElementError(
                f"expected {len(self.orders)} residues, got {len(residues)}: {residues!r}"
            )
        if not all(map(_is_int, residues)):
            raise InvalidElementError(f"residues must be integers: {residues!r}")
        return tuple(r % n for r, n in zip(residues, self.orders))

    def contains(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == len(self.orders)
            and all(_is_int(r) and 0 <= r < n for r, n in zip(a, self.orders))
        )

    def check(self, a) -> Element:
        if not self.contains(a):
            raise InvalidElementError(f"{a!r} is not a normalized element of {self}")
        return a

    def add(self, a: Element, b: Element) -> Element:
        self.check(a)
        self.check(b)
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def neg(self, a: Element) -> Element:
        self.check(a)
        return tuple((-x) % n for x, n in zip(a, self.orders))

    def scale(self, k: int, a: Element) -> Element:
        self.check(a)
        return tuple((k * x) % n for x, n in zip(a, self.orders))

    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic order of residue tuples."""
        return tuple(itertools.product(*(range(n) for n in self.orders)))

    def index_of(self, a: Element) -> int:
        """Position of ``a`` in :meth:`elements` (mixed-radix value)."""
        self.check(a)
        idx = 0
        for r, n in zip(a, self.orders):
            idx = idx * n + r
        return idx

    def order_of(self, a: Element) -> int:
        """Least k >= 1 with k*a = 0."""
        self.check(a)
        out = 1
        for r, n in zip(a, self.orders):
            k = n // gcd(n, r)  # order of r in Z/n
            out = out * k // gcd(out, k)
        return out

    def __str__(self) -> str:
        if not self.orders:
            return "C1"
        return "x".join(f"C{n}" for n in self.orders)


def make_group(orders) -> FinAbGroup:
    """Group with the given list of cyclic factor orders."""
    return FinAbGroup(tuple(orders))


def _is_int(x) -> bool:
    """Whether ``x`` is an integer and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _tuple_of(items, what: str) -> tuple:
    """``items`` as a tuple, which must be iterable: ``what`` names them in the error."""
    if not isinstance(items, Iterable):
        raise InvalidSpecificationError(f"{what} must be iterable, got {items!r}")
    return tuple(items)


class _ZeroSumTest(tuple):
    """Whether a count vector has class sum zero, from the (order, letter residues) column of each cyclic factor:
    a tuple, so its monoid makes no reference cycle."""

    def __call__(self, v) -> bool:
        return not any(sum(map(mul, column, v)) % n for n, column in self)


def _zero_sum_test(group: FinAbGroup, classes) -> _ZeroSumTest:
    """Whether a count vector over ``classes`` has class sum zero."""
    return _ZeroSumTest(zip(group.orders, zip(*classes)))


def _tables(group: FinAbGroup, letters):
    """(index -> index of the negative, per element g of ``letters`` its
    addition row h -> h + g and its moves for :func:`_translate`), over the
    indices of ``group.elements()``, where the zero element has index 0.

    Coordinate i, of order n and stride s (the product of the later orders),
    moves on its own: in each aligned block of n·s indices, the residues below
    n − g_i (``low``) go up by g_i·s and the rest (``high``) down by (n − g_i)·s."""
    elements, orders = group.elements(), group.orders
    index = {g: i for i, g in enumerate(elements)}
    neg = [index[tuple(-x % n for x, n in zip(h, orders))] for h in elements]
    rows = [
        [index[tuple((x + y) % n for x, y, n in zip(h, g, orders))] for h in elements]
        for g in letters
    ]
    full, coordinates = (1 << len(elements)) - 1, [(n, prod(orders[i + 1:])) for i, n in enumerate(orders)]
    moves = [
        tuple((low, x * s, full ^ low, (n - x) * s) for x, (n, s) in zip(elements[row[0]], coordinates) if x
              for low in [((1 << (n - x) * s) - 1) * (full // ((1 << n * s) - 1))])
        for row in rows
    ]
    return neg, rows, moves


def _translate(mask: int, moves) -> int:
    """The bitmask of element indices ``mask`` moved by one letter's ``moves``
    from :func:`_tables`, one rotation per nonzero coordinate."""
    for low, up, high, down in moves:
        mask = (mask & low) << up | (mask & high) >> down
    return mask
