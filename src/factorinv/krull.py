"""Krull monoids given by a class map on a finite prime alphabet, the
transfer homomorphism onto the block monoid over the image classes, and the
synthetic tower model.

Members are exponent vectors over the primes whose class-weighted sum
vanishes.  Replacing each prime occurrence by its class is a length-
preserving monoid homomorphism onto the zero-sum sequences over the set of
occupied classes; block-level factorizations lift back by assigning primes
of the right class to each block.  So the atoms are the minimal zero-sum
words over the primes, each read through its class, and they come from the
same zero-sum-free walk as the block atoms.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter, mul, sub
from typing import Mapping, Optional

from .abelian import FinAbGroup, _tables, _tuple_of, _zero_sum_test
from .blocks import BlockMonoid, Sequence, _zero_sum_presentation
from .errors import (
    FaithfulTowerError,
    InternalConsistencyError,
    InvalidElementError,
    InvalidSpecificationError,
    NotAMemberError,
)
from .factorize import PresentedMonoid, Vector, _bound, _lengths
from .towers import FAITHFUL, TowerSpec


class KrullMonoid(PresentedMonoid):
    """Exponent vectors over named primes with vanishing class sum."""

    def __init__(self, group: FinAbGroup, primes, class_map: dict):
        if not isinstance(group, FinAbGroup):
            raise InvalidSpecificationError(f"a Krull monoid needs a FinAbGroup, got {group!r}")
        if not isinstance(class_map, Mapping):
            raise InvalidSpecificationError(f"a class map must map prime names to classes, got {class_map!r}")
        self.group = group
        self.primes = _tuple_of(primes, "primes")
        if not self.primes:
            raise InvalidSpecificationError("a Krull monoid needs at least one prime")
        if not all(isinstance(p, str) for p in self.primes):
            raise InvalidSpecificationError(f"prime names must be strings: {self.primes}")
        if len(set(self.primes)) != len(self.primes):
            raise InvalidSpecificationError(f"prime names must be unique: {self.primes}")
        unknown = set(class_map) - set(self.primes)
        if unknown:
            raise InvalidSpecificationError(f"class map mentions unknown primes: {sorted(unknown)}")
        missing = set(self.primes) - set(class_map)
        if missing:
            raise InvalidSpecificationError(f"class map must be total on primes; missing {sorted(missing)}")
        self.classes = {p: group.check(_tuple_of(class_map[p], f"the class of {p!r}")) for p in self.primes}
        self.image_classes = tuple(sorted(set(self.classes.values())))
        # prime index -> image-class slot, and slot -> its primes in prime order
        self._slot = tuple(self.image_classes.index(self.classes[p]) for p in self.primes)
        self._slot_primes = [[] for _ in self.image_classes]
        for i, slot in enumerate(self._slot):
            self._slot_primes[slot].append(i)
        self._blocks = BlockMonoid(group, self.image_classes)
        # the image map closes over the slot map, not self: a dropped monoid
        # makes no reference cycle
        slots, width = self._slot, len(self.image_classes)

        def image(v: Vector) -> Vector:
            """Class counts of a trusted exponent vector, over ``image_classes``."""
            counts = [0] * width
            for s, m in zip(slots, v):
                counts[s] += m
            return tuple(counts)

        self._image = image
        classes = tuple(self.classes[p] for p in self.primes)
        self._present(self.primes, **_zero_sum_presentation(group, classes))

    @classmethod
    def from_doc(cls, doc) -> "KrullMonoid":
        """Build from ``{"group": {...}, "primes": [{"name": ..., "class": [...]}, ...]}``."""
        try:
            group = FinAbGroup.from_doc(doc["group"])
            primes = [entry["name"] for entry in doc["primes"]]
            class_map = {entry["name"]: group.element(entry["class"]) for entry in doc["primes"]}
        except (KeyError, TypeError) as exc:
            raise InvalidSpecificationError(f"malformed Krull monoid document: {doc!r}") from exc
        return cls(group, primes, class_map)

    # -- the transfer map --------------------------------------------------

    def block_monoid(self) -> BlockMonoid:
        """The zero-sum sequences over the occupied classes (the transfer target)."""
        return self._blocks

    def beta(self, v) -> Sequence:
        """Replace every prime occurrence of a member by its class."""
        return self._blocks._sequence(self._image(self.check_member(v)))

    def lift_factorization(self, v, blocks) -> list[Vector]:
        """Split a member into factors with prescribed class images.

        ``blocks`` is a list of zero-sum sequences over the image classes
        multiplying to ``beta(v)``.  Each block is realized by consuming
        primes of the required classes from ``v`` in canonical prime order
        (first fit), so the result is deterministic; the pieces multiply to
        ``v`` and have the given blocks as their class images.  When the
        blocks are atoms of the block monoid, the pieces are atoms.
        """
        v = self.check_member(v)
        if not isinstance(blocks, (list, tuple)) or not all(isinstance(block, Sequence) for block in blocks):
            raise InvalidElementError(f"blocks must be a list of Sequences, got {blocks!r}")
        product = Sequence.empty(self.group)
        for block in blocks:
            product = product * block
            if block.sum() != self.group.zero:
                raise NotAMemberError(f"{block} is not a zero-sum sequence")
        if product != self._blocks._sequence(self._image(v)):
            raise InvalidSpecificationError("blocks do not multiply to the class image of the element")
        return self._lift(v, [self._blocks.vector_of(block) for block in blocks])

    def _lift(self, v: Vector, parts) -> list[Vector]:
        """First-fit lift of class-count vectors ``parts`` summing to the
        image of the trusted member ``v``."""
        remaining = list(v)
        pieces: list[Vector] = []
        for part in parts:
            piece = [0] * len(v)
            for slot, (needed, primes) in enumerate(zip(part, self._slot_primes)):
                takes = _first_fit([remaining[i] for i in primes], needed)
                if sum(takes) != needed:
                    raise InternalConsistencyError(
                        f"cannot realize class {self.image_classes[slot]!r} with the remaining primes"
                    )
                for i, take in zip(primes, takes):
                    piece[i], remaining[i] = take, remaining[i] - take
            pieces.append(tuple(piece))
        if any(remaining):
            raise InternalConsistencyError("primes left over after assigning all blocks")
        return pieces

    # -- verification ------------------------------------------------------

    def two_splits(self, seq: Sequence) -> list[tuple[Sequence, Sequence]]:
        """All ordered splits of a zero-sum sequence into two zero-sum parts."""
        if not isinstance(seq, Sequence):
            raise InvalidElementError(f"a zero-sum sequence must be a Sequence, got {seq!r}")
        if seq.group != self.group:
            raise InvalidElementError("sequences live over different groups")
        if seq.sum() != self.group.zero:
            raise NotAMemberError(f"{seq} is not a zero-sum sequence")
        def part(counts: Vector) -> Sequence:
            return Sequence(self.group, tuple((g, m) for g, m in zip(seq.support, counts) if m))

        counts = tuple(m for _, m in seq.counts)
        lefts = self._two_splits(seq.support, counts)
        return [(part(left), part(tuple(map(sub, counts, left)))) for left in lefts]

    def _two_splits(self, classes, counts) -> list[Vector]:
        """The zero-sum sub-count vectors of ``counts`` over ``classes``, in lexicographic order."""
        is_zero_sum = _zero_sum_test(self.group, classes)
        return list(filter(is_zero_sum, itertools.product(*(range(m + 1) for m in counts))))

    def verify_transfer(self, size_bound: int) -> "TransferReport":
        """Exhaustively check the transfer properties up to a size bound.

        For every member v with |v| <= size_bound: its length set equals its
        image's in the block monoid (so only the empty member has the empty
        image, of lengths {0}), and every 2-split of the image lifts to a
        product decomposition of v with the prescribed images; and every
        zero-sum sequence over the image classes of length <= size_bound is
        the image of a scanned member.  Stops at the first violation.  A
        split's first-fit lift is its slots' rows side by side (a row: the
        pieces that take k of a slot's exponents and the rest), each checked
        once per call; splits are counted from class sums, once per image, and
        listed only at a failing row.  Permuting the primes within classes keeps
        length sets, images and splits (Geroldinger, Halter-Koch, §3.4), so one
        member per orbit is read, weighted by the distinct orders of its slots'
        exponents, whose rows are all checked; every member is read only to name
        a failing length set or row, the first in (norm, lex) order.
        """
        images = {w: lengths for w, _, lengths, _ in self._blocks.presented()._members(size_bound)}
        order = [i for primes in self._slot_primes for i in primes]  # a member's exponents slot by slot
        by_slot = itemgetter(*order) if len(order) > 1 else tuple  # itemgetter of one index gives a bare entry
        ends = list(itertools.accumulate(map(len, self._slot_primes)))
        slices = list(map(slice, [0, *ends], ends))  # each slot's part of them
        adds = _tables(self.group, self.image_classes)[1]  # class -> its addition row, for the split counts

        @functools.cache  # for this call: count -> failure, over the rows of ``have``
        def failing_rows(have: Vector) -> dict[int, str]:
            total, failing = sum(have), {}
            for k in range(total + 1):
                b = _first_fit(have, k)
                rest = list(map(sub, have, b))
                if _first_fit(rest, total - k) != rest:
                    failing[k] = "does not multiply back"
                elif sum(b) != k:
                    failing[k] = "has wrong images"
            return failing

        @functools.cache  # for this call: a slot's exponents -> their distinct orders and the counts failing in any
        def orbit_rows(have: Vector) -> tuple[int, dict[int, str]]:
            return len(orders := _orders(have)), {k: f for o in orders for k, f in failing_rows(o).items()}

        def scan(classes) -> TransferReport:
            """The report over every member, or with ``classes`` over one per orbit (void if a length or row fails)."""
            rows_of = orbit_rows if classes else lambda have: (1, failing_rows(have))
            elements = splits = 0
            split_counts: dict[Vector, int] = {}
            for v, _, mine, _ in self._members(size_bound, classes):
                image, exponents = self._image(v), by_slot(v)
                weights, rows = zip(*map(rows_of, map(exponents.__getitem__, slices)))
                elements += (weight := functools.reduce(mul, weights))
                theirs = images.get(image, 0)  # an image missing from the table has no lengths
                if mine != theirs:
                    failure = f"length sets differ at {v}: {_lengths(mine)} vs {_lengths(theirs)}"
                    return TransferReport(False, elements, splits, failure)
                if image not in split_counts:
                    split_counts[image] = _split_count(adds, image)
                lefts = self._two_splits(self.image_classes, image) if any(rows) else ()
                for count, left in enumerate(lefts, splits + 1):
                    failures = [row[k] for row, k in zip(rows, left) if k in row]
                    if failures:  # "does not multiply back" sorts first, and wins
                        return TransferReport(False, elements, count, f"lift of {v} {min(failures)}")
                splits += weight * split_counts[image]
            for surjectivity, target in enumerate(images, 1):
                if target not in split_counts:
                    failure = f"no preimage found for {self._blocks._sequence(target)}"
                    return TransferReport(False, elements, splits, failure, surjectivity)
            return TransferReport(True, elements, splits, None, len(images))

        orbits = scan(self._slot)  # a surjectivity failure comes after every orbit has passed: it is final
        return orbits if orbits.ok or orbits.surjectivity_checked else scan(None)

    def atom_image(self, atom_index: int) -> Sequence:
        return self._blocks._sequence(self._image(self.atoms[atom_index]))

    def fiber_catenary(self, size_bound: int) -> int:
        """Worst catenary degree inside a fiber of the transfer map, over the
        members of 1-norm <= size_bound, listing no factorization.

        The factorizations in one fiber have the same class images, so any
        two are linked by swaps of primes p != q of one class between two of
        their atoms a, b: steps of distance 2 (Geroldinger, Halter-Koch,
        Thm. 3.4.10).  Such a swap also refactors a + b, which divides the
        member, so the value is 2 when a pair of atoms with |a| + |b| <=
        size_bound has a swap with a - p + q != b, and 0 otherwise.
        """
        pairs = self._atom_pairs(_bound(size_bound))
        swaps = [(i, j) for primes in self._slot_primes for i, j in itertools.permutations(primes, 2)]
        for a, b in pairs if swaps else ():  # no swaps: one prime per class
            near = sum(abs(x - y) for x, y in zip(a, b)) == 2  # b = a - p + q for one swap at most
            if any(a[i] and b[j] and not (near and a[i] > b[i] and a[j] < b[j]) for i, j in swaps):
                return 2
        return 0


@dataclass(frozen=True)
class TransferReport:
    ok: bool
    elements_checked: int
    splits_checked: int
    failure: Optional[str] = None
    surjectivity_checked: int = 0


def _first_fit(have, needed: int) -> list[int]:
    """What first fit takes from each count of ``have`` towards ``needed`` (short when too few)."""
    takes = [0] * len(have)
    for i, m in enumerate(have):
        if needed <= m:
            takes[i] = needed
            break
        takes[i] = m
        needed -= m
    return takes


def _split_count(adds, counts: Vector) -> int:
    """How many sub-count vectors of ``counts`` have class sum 0, over the addition rows ``adds`` of its classes."""
    sums = [1] + [0] * (len(adds[0]) - 1)  # class-sum index -> sub-counts of the classes folded in so far
    for row, m in zip(itertools.compress(adds, counts), filter(None, counts)):
        sums, before = [0] * len(row), sums
        for h, c in enumerate(before):
            for _ in range(m + 1 if c else 0):
                sums[h], h = sums[h] + c, row[h]
    return sums[0]


def _orders(have) -> list[Vector]:
    """Every distinct order of ``have``, each once: each value in turn goes into every gap up to its first copy."""
    orders = [()]
    for x in sorted(have):
        orders = [o[:i] + (x,) + o[i:] for o in orders for i in range((o + (x,)).index(x) + 1)]
    return orders


def make_krull(group: FinAbGroup, primes, class_map: dict) -> KrullMonoid:
    """Krull monoid with the given primes and class map."""
    return KrullMonoid(group, primes, class_map)


def synth_hnp(spec: TowerSpec) -> KrullMonoid:
    """The combinatorial model of the non-zero-divisors of a bounded
    hereditary Noetherian prime ring with the given tower data.

    Primes are the tower names and the class map sends a tower to its class;
    members model cyclically presented modules as formal tower sums with
    vanishing class sum.  Every faithful tower must be trivial: a
    non-trivial faithful tower breaks the model (and the transfer theory it
    encodes), so it is rejected.
    """
    for tower in spec.towers:
        if tower.kind == FAITHFUL and tower.length > 1:
            raise FaithfulTowerError(
                f"faithful tower {tower.name!r} has length {tower.length} > 1"
            )
    return KrullMonoid(
        spec.group,
        [t.name for t in spec.towers],
        {t.name: t.cls for t in spec.towers},
    )
