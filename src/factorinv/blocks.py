"""Sequences over a subset of a finite abelian group and the monoid of
zero-sum sequences.

A sequence is a finite multiset of group elements; the zero-sum sequences
over a subset G0 form a reduced commutative monoid whose atoms are the
minimal zero-sum sequences (nonempty, with no proper nonempty zero-sum
subsequence).  The Davenport constant of the group is the maximal length of
such an atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .abelian import Element, FinAbGroup, _is_int, _tables, _translate, _tuple_of, _zero_sum_test
from .errors import InvalidElementError, InvalidSpecificationError
from .factorize import PresentedMonoid, _bound, _evaluate, _zero_sum_vectors


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
        """The sequence of (element, exponent) pairs, or of a mapping's items; repeated elements add up."""
        pairs = []
        for g, m in counts.items() if isinstance(counts, Mapping) else counts:
            if not _is_int(m) or m < 0:
                raise InvalidElementError(f"exponent of {g!r} must be a nonnegative integer")
            if not isinstance(g, (list, tuple)):
                raise InvalidElementError(f"an element is a list or tuple of residues, got {g!r}")
            pairs.append((group.check(tuple(g)), m))
        return cls._merged(group, pairs)

    @classmethod
    def from_elements(cls, group: FinAbGroup, elements) -> "Sequence":
        return cls.from_counts(group, ((g, 1) for g in elements))

    @classmethod
    def _merged(cls, group: FinAbGroup, pairs) -> "Sequence":
        """The sequence of checked (element, exponent) pairs; a repeated element's exponents add up."""
        merged: dict[Element, int] = {}
        for g, m in pairs:
            merged[g] = merged.get(g, 0) + m
        return cls(group, tuple(sorted((g, m) for g, m in merged.items() if m)))

    @classmethod
    def empty(cls, group: FinAbGroup) -> "Sequence":
        return cls(group, ())

    @property
    def length(self) -> int:
        return sum(m for _, m in self.counts)

    @property
    def support(self) -> tuple[Element, ...]:
        return tuple(g for g, _ in self.counts)

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
        return Sequence._merged(self.group, self.counts + other.counts)

    def divides(self, other: "Sequence") -> bool:
        if self.group != other.group:
            return False
        theirs = dict(other.counts)
        return all(theirs.get(g, 0) >= m for g, m in self.counts)

    def __str__(self) -> str:
        if not self.counts:
            return "empty"
        return "·".join(_fmt_element(g) if m == 1 else f"{_fmt_element(g)}^{m}" for g, m in self.counts)


def _fmt_element(g: Element) -> str:
    if len(g) == 1:
        return str(g[0])
    return "(" + ",".join(map(str, g)) + ")"


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
        if not isinstance(group, FinAbGroup):
            raise InvalidSpecificationError(f"a block monoid needs a FinAbGroup, got {group!r}")
        self.group = group
        if subset is None:
            subset = group.elements()
        subset = tuple(sorted({group.check(_tuple_of(g, "an element")) for g in _tuple_of(subset, "a subset")}))
        if not subset:
            raise InvalidSpecificationError("the subset G0 must be nonempty")
        self.subset = subset

    # -- conversions -------------------------------------------------------

    def sequence(self, elements) -> Sequence:
        seq = Sequence.from_elements(self.group, elements)
        self._check_support(seq)
        return seq

    def _check_support(self, seq: Sequence) -> Sequence:
        if seq.group != self.group:
            raise InvalidElementError("sequences live over different groups")
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
        """The exponent-vector presentation of this monoid, built on each call: keep it to reuse it."""
        return object.__new__(PresentedMonoid)._present(self.subset, **_zero_sum_presentation(self.group, self.subset))

    def atoms(self) -> tuple[Sequence, ...]:
        """All minimal zero-sum sequences over the subset, sorted."""
        vectors = sorted(
            _atom_vectors(self.group, self.subset), key=lambda v: [(s, m) for s, m in enumerate(v) if m]
        )
        return tuple(self._sequence(v) for v in vectors)

    def _sequence(self, vector) -> Sequence:
        """The sequence of a trusted count vector over the subset."""
        return Sequence(self.group, tuple((g, m) for g, m in zip(self.subset, vector) if m))

    def zero_sum_up_to(self, maxlen: int) -> list[Sequence]:
        """All zero-sum sequences over the subset of length <= maxlen,
        ordered by (length, lexicographic element word).

        The members-only walk yields the count vectors of each length in lex
        order, and for one length ascending words are descending count
        vectors.  The walk needs no atoms, so it does not build
        :meth:`presented`.
        """
        if _bound(maxlen) < 0:
            raise InvalidSpecificationError("maxlen must be >= 0")
        walk = _zero_sum_vectors(*_tables(self.group, self.subset), maxlen, [[0]] * len(self.subset))  # no atoms
        return [self._sequence(v) for v, _, _ in sorted(walk, key=lambda row: (sum(row[0]), [-m for m in row[0]]))]


def minimal_zero_sum_sequences(group: FinAbGroup, subset=None) -> tuple[Sequence, ...]:
    """Atoms of the monoid of zero-sum sequences over ``subset`` (default: all of G)."""
    return BlockMonoid(group, subset).atoms()


def _zero_sum_presentation(group: FinAbGroup, letters) -> dict:
    """The ``membership``, sorted ``atoms`` and ``grading`` arguments of
    :class:`PresentedMonoid` for the zero-sum words over ``letters``."""
    return dict(membership=_zero_sum_test(group, letters), atoms=sorted(_atom_vectors(group, letters)),
                grading=(group, letters))


def _atom_vectors(group: FinAbGroup, letters) -> Iterator[tuple[int, ...]]:
    """Count vectors over ``letters`` of the minimal zero-sum words, each once.

    Letters are elements of ``group`` and may share a class.  S·g is a
    minimal zero-sum word exactly when S is zero-sum-free and g = −σ(S), so
    every atom is its sorted word minus the last letter, closed by that
    letter.  An explicit stack walks the zero-sum-free words with
    nondecreasing slots, each with the bitmask of its nonempty subsequence
    sums; a word whose last slot is t is closed by every letter of class
    −σ at a slot no smaller than t.
    """
    width = len(letters)
    neg, rows, moves = _tables(group, letters)
    closers: dict[int, list[int]] = {}  # index of a class -> its slots, ascending
    for s, row in enumerate(rows):
        closers.setdefault(row[0], []).append(s)
    # (least slot that may follow, subsequence sums, index of the sum, counts)
    stack = [(0, 0, 0, (0,) * width)]
    while stack:
        start, sums, total, counts = stack.pop()
        for close in closers.get(neg[total], ()):
            if close >= start:
                yield counts[:close] + (counts[close] + 1,) + counts[close + 1:]
        for s in range(start, width):
            grown = _grow(sums, rows[s], moves[s])
            if not grown & 1:
                stack.append((s, grown, rows[s][total], counts[:s] + (counts[s] + 1,) + counts[s + 1:]))


def davenport(group: FinAbGroup) -> int:
    """Davenport constant: maximal length of a minimal zero-sum sequence.

    One more than the maximal length of a zero-sum-free sequence: appending
    −σ(S) to a zero-sum-free S gives a minimal zero-sum sequence, and
    dropping one element of one gives a zero-sum-free S.  The longest-word
    search runs over nondecreasing nonzero elements, memoized on (next
    element, subsequence sums) by the engine's explicit-stack walker.
    """
    _, rows, moves = _tables(group, group.elements()[1:])

    def children(key):
        start, sums = key
        grown = ((j, _grow(sums, rows[j], moves[j])) for j in range(start, len(rows)))
        return [(j, (j, mask)) for j, mask in grown if not mask & 1]

    def longest(steps):
        return max((1 + length for _, length in steps), default=0)

    return 1 + _evaluate((0, 0), {}, children, longest, 0)


def _grow(sums: int, row, moves) -> int:
    """The subsequence-sum bitmask ``sums`` of a sequence after appending the
    element g of addition row ``row`` (g's own index is ``row[0]``) and ``moves``."""
    return sums | 1 << row[0] | _translate(sums, moves)
