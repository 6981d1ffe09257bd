"""Sequences over a subset of a finite abelian group and the monoid of
zero-sum sequences.

A sequence is a finite multiset of group elements; the zero-sum sequences
over a subset G0 form a reduced commutative monoid whose atoms are the
minimal zero-sum sequences (nonempty, with no proper nonempty zero-sum
subsequence).  The Davenport constant of the group is the maximal length of
such an atom.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .abelian import Element, FinAbGroup
from .errors import InvalidElementError, InvalidSpecificationError
from .factorize import PresentedMonoid


@dataclass(frozen=True)
class Sequence:
    """Multiset of group elements, stored as sorted (element, exponent) pairs.

    Exponents are >= 1; zero exponents are dropped on construction, so equal
    multisets are structurally equal.
    """

    group: FinAbGroup
    counts: tuple[tuple[Element, int], ...]

    @classmethod
    def from_counts(cls, group: FinAbGroup, counts) -> "Sequence":
        merged: dict[Element, int] = {}
        for g, m in dict(counts).items():
            if not isinstance(m, int) or m < 0:
                raise InvalidElementError(f"exponent of {g!r} must be a nonnegative integer")
            if m:
                merged[group.check(g)] = merged.get(g, 0) + m
        return cls(group, tuple(sorted(merged.items())))

    @classmethod
    def from_elements(cls, group: FinAbGroup, elements) -> "Sequence":
        counts: dict[Element, int] = {}
        for g in elements:
            g = group.check(tuple(g))
            counts[g] = counts.get(g, 0) + 1
        return cls(group, tuple(sorted(counts.items())))

    @classmethod
    def empty(cls, group: FinAbGroup) -> "Sequence":
        return cls(group, ())

    @property
    def length(self) -> int:
        return sum(m for _, m in self.counts)

    @property
    def support(self) -> tuple[Element, ...]:
        return tuple(g for g, _ in self.counts)

    def exponent_of(self, g: Element) -> int:
        return dict(self.counts).get(g, 0)

    def elements(self) -> Iterator[Element]:
        for g, m in self.counts:
            for _ in range(m):
                yield g

    def sum(self) -> Element:
        orders = self.group.orders
        return tuple(
            sum(m * g[i] for g, m in self.counts) % n for i, n in enumerate(orders)
        )

    def __mul__(self, other: "Sequence") -> "Sequence":
        if self.group != other.group:
            raise InvalidElementError("sequences live over different groups")
        counts = dict(self.counts)
        for g, m in other.counts:
            counts[g] = counts.get(g, 0) + m
        return Sequence(self.group, tuple(sorted(counts.items())))

    def divides(self, other: "Sequence") -> bool:
        if self.group != other.group:
            return False
        theirs = dict(other.counts)
        return all(theirs.get(g, 0) >= m for g, m in self.counts)

    def quotient(self, other: "Sequence") -> "Sequence":
        """Remove ``other`` from this multiset; ``other`` must divide it."""
        if not other.divides(self):
            raise InvalidElementError(f"{other} does not divide {self}")
        counts = dict(self.counts)
        for g, m in other.counts:
            counts[g] -= m
        return Sequence(self.group, tuple(sorted((g, m) for g, m in counts.items() if m)))

    def __str__(self) -> str:
        if not self.counts:
            return "empty"

        def fmt(g: Element) -> str:
            if len(g) == 1:
                return str(g[0])
            return "(" + ",".join(map(str, g)) + ")"

        return "·".join(fmt(g) if m == 1 else f"{fmt(g)}^{m}" for g, m in self.counts)


def subset_nonzero(group: FinAbGroup) -> tuple[Element, ...]:
    """The preset subset G \\ {0}."""
    return tuple(g for g in group.elements() if g != group.zero)


def subset_from_doc(group: FinAbGroup, spec) -> tuple[Element, ...]:
    """Parse the ``"nonzero" | "all" | [[residues...], ...]`` subset forms."""
    if spec == "nonzero":
        return subset_nonzero(group)
    if spec == "all":
        return group.elements()
    if isinstance(spec, (list, tuple)):
        out = []
        for residues in spec:
            if not isinstance(residues, (list, tuple)):
                raise InvalidSpecificationError(f"subset entries must be residue lists: {residues!r}")
            out.append(group.element(residues))
        return tuple(sorted(set(out)))
    raise InvalidSpecificationError(f"unrecognized subset specification {spec!r}")


class BlockMonoid:
    """The zero-sum sequences over a fixed subset G0 of a finite abelian group.

    Wraps a :class:`PresentedMonoid` over the alphabet G0 (sorted by residue
    tuple), with atoms the minimal zero-sum sequences.
    """

    def __init__(self, group: FinAbGroup, subset=None):
        self.group = group
        if subset is None:
            subset = group.elements()
        subset = tuple(sorted({group.check(tuple(g)) for g in subset}))
        if not subset:
            raise InvalidSpecificationError("the subset G0 must be nonempty")
        self.subset = subset
        orders = group.orders
        # closes over tuples, not self: the presented form makes no cycle
        self._vector_is_zero_sum = lambda v: not any(
            sum(m * g[i] for g, m in zip(subset, v)) % n for i, n in enumerate(orders)
        )
        self._presented: PresentedMonoid | None = None

    # -- conversions -------------------------------------------------------

    def sequence(self, elements) -> Sequence:
        seq = Sequence.from_elements(self.group, elements)
        self._check_support(seq)
        return seq

    def _check_support(self, seq: Sequence) -> Sequence:
        for g in seq.support:
            if g not in self.subset:
                raise InvalidElementError(f"{g!r} lies outside the allowed subset")
        return seq

    def vector_of(self, seq: Sequence) -> tuple[int, ...]:
        self._check_support(seq)
        counts = dict(seq.counts)
        return tuple(counts.get(g, 0) for g in self.subset)

    def sequence_of(self, vector) -> Sequence:
        vector = tuple(vector)
        if len(vector) != len(self.subset):
            raise InvalidElementError(f"vector arity {len(vector)} != |G0| = {len(self.subset)}")
        return Sequence.from_counts(self.group, dict(zip(self.subset, vector)))

    # -- the monoid --------------------------------------------------------

    def presented(self) -> PresentedMonoid:
        """The exponent-vector presentation of this monoid (cached)."""
        if self._presented is None:
            atom_vectors = [self.vector_of(a) for a in self.atoms()]
            self._presented = PresentedMonoid(
                alphabet=self.subset,
                membership=self._vector_is_zero_sum,
                atoms=sorted(atom_vectors),
            )
        return self._presented

    def atoms(self) -> tuple[Sequence, ...]:
        """All minimal zero-sum sequences over the subset, sorted.

        Depth-first search over sequences with nondecreasing element index;
        a branch dies as soon as some proper nonempty subsequence sums to
        zero.  All atoms have length <= |G|, which bounds the search.
        """
        return tuple(sorted(self._atoms_raw(), key=lambda s: s.counts))

    def _atoms_raw(self) -> list[Sequence]:
        group, subset = self.group, self.subset
        card = group.cardinality
        zero_idx = group.index_of(group.zero)
        idx = {g: group.index_of(g) for g in group.elements()}
        # adding a fixed element permutes the mask bits
        shift = {
            g: [idx[group.add(h, g)] for h in group.elements()]
            for g in subset
        }

        found: list[Sequence] = []
        stack: list[Element] = []

        def extend(start: int, total: Element, proper_mask: int):
            # proper_mask: bit i set iff some nonempty proper subsequence of
            # the current stack sums to the i-th group element
            if total == group.zero and stack and not (proper_mask >> zero_idx) & 1:
                found.append(Sequence.from_elements(group, stack))
                return  # any extension would contain this zero-sum properly
            if len(stack) >= card:
                return
            for j in range(start, len(subset)):
                g = subset[j]
                if stack:
                    new_mask = proper_mask | (1 << idx[total]) | (1 << idx[g])
                    table = shift[g]
                    rest = proper_mask
                    while rest:
                        low = rest & -rest
                        new_mask |= 1 << table[low.bit_length() - 1]
                        rest ^= low
                else:
                    new_mask = 0
                if (new_mask >> zero_idx) & 1:
                    continue
                stack.append(g)
                extend(j, group.add(total, g), new_mask)
                stack.pop()

        extend(0, group.zero, 0)
        return found

    def zero_sum_up_to(self, maxlen: int) -> list[Sequence]:
        """All zero-sum sequences over the subset of length <= maxlen,
        ordered by (length, lexicographic element word)."""
        if maxlen < 0:
            raise InvalidSpecificationError("maxlen must be >= 0")
        group, subset = self.group, self.subset
        out: list[tuple[int, tuple, Sequence]] = []
        stack: list[Element] = []

        def extend(start: int, total: Element):
            if total == group.zero:
                out.append((len(stack), tuple(stack), Sequence.from_elements(group, stack)))
            if len(stack) >= maxlen:
                return
            for j in range(start, len(subset)):
                g = subset[j]
                stack.append(g)
                extend(j, group.add(total, g))
                stack.pop()

        extend(0, group.zero)
        out.sort(key=lambda t: (t[0], t[1]))
        return [seq for _, _, seq in out]


def minimal_zero_sum_sequences(group: FinAbGroup, subset=None) -> tuple[Sequence, ...]:
    """Atoms of the monoid of zero-sum sequences over ``subset`` (default: all of G)."""
    return BlockMonoid(group, subset).atoms()


def davenport(group: FinAbGroup) -> int:
    """Davenport constant: maximal length of a minimal zero-sum sequence.

    Computed as 1 + (maximal length of a zero-sum-free sequence): appending
    the inverse of the sum of a maximal zero-sum-free sequence yields a
    minimal zero-sum sequence, and dropping one element of a maximal minimal
    zero-sum sequence yields a zero-sum-free one.  The search runs over
    nondecreasing element indices and memoizes on (next index, achievable
    subset sums), the sums encoded as a bitmask over group elements.
    """
    elements = [g for g in group.elements() if g != group.zero]
    if not elements:
        return 1
    idx = {g: group.index_of(g) for g in group.elements()}
    zero_idx = idx[group.zero]
    shift = {g: [idx[group.add(h, g)] for h in group.elements()] for g in elements}

    memo: dict[tuple[int, int], int] = {}

    def longest(start: int, sums_mask: int) -> int:
        key = (start, sums_mask)
        cached = memo.get(key)
        if cached is not None:
            return cached
        best = 0
        for j in range(start, len(elements)):
            g = elements[j]
            new_mask = sums_mask | (1 << idx[g])
            table = shift[g]
            rest = sums_mask
            while rest:
                low = rest & -rest
                new_mask |= 1 << table[low.bit_length() - 1]
                rest ^= low
            if (new_mask >> zero_idx) & 1:
                continue
            best = max(best, 1 + longest(j, new_mask))
        memo[key] = best
        return best

    return 1 + longest(0, 0)
