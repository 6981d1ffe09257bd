"""Factorization engine for reduced atomic commutative monoids.

A monoid is given by a finite alphabet of prime labels, a membership
predicate on exponent vectors and its finite atom set; a factorization is a
multiset of atoms.  One table per monoid, per letter and value, ANDs to the
atoms dividing a vector, for the quotient walk and the atom check; the member
walk ANDs it slot by slot and hands each member that mask and its code.
Bounded scans (delta, half-factoriality, the Betti-element catenary degree,
the transfer check) read one member table, filled in (norm, lex) order from
that walk: each member's dividing atoms and length set as int bitmasks, from
the rows of its quotients (the transfer check reads one per orbit of
same-class letters).  One element's length set is a memoized walk and
its catenary degree the Prim bottleneck of its factorizations; rho2, the
first pass of catenary and delta, and the Krull fiber catenary walk the pairs
of atoms, the first three in one loop, which sifts them.
Each public call builds its own memo, so no query changes a monoid.

Public methods validate their input once; internal scans work on trusted
int count vectors with explicit stacks, so no element meets a recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate, chain, compress
from operator import add, and_, mul, sub, xor
from struct import pack
from typing import Callable, Iterable, Iterator, Optional

from .abelian import FinAbGroup, _is_int, _tables, _translate, _tuple_of, _zero_sum_test
from .errors import (
    IncomparableError,
    InvalidSpecificationError,
    NotAMemberError,
    TruncatedEnumerationError,
)

Vector = tuple[int, ...]

#: Cap on the number of factorizations enumerated for a single element.
DEFAULT_FACTORIZATION_LIMIT = 1_000_000
#: Cap on the factorizations ``catenary_of`` lists, as its Prim step is quadratic in their number.
CATENARY_FACTORIZATION_LIMIT = 1000

#: Per byte b, the ``bytes.translate`` table that maps b to "1" and every other byte to "0".
_ONE_AT = [b"0" * b + b"1" + b"0" * (255 - b) for b in range(256)]


@dataclass(frozen=True)
class Factorization:
    """A multiset of atoms, stored as sorted (atom index, multiplicity) pairs."""

    counts: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return sum(m for _, m in self.counts)

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)


def permutable_distance(z1: Factorization, z2: Factorization) -> int:
    """Cancel the common atom multiset, return the larger remaining length."""
    return _multiset_distance(z1.as_dict(), z2.as_dict())


def _multiset_distance(c1: dict, c2: dict) -> int:
    """Cancel the common part of two item -> multiplicity mappings and
    return the larger remainder."""
    shared = sum(min(m, c2.get(i, 0)) for i, m in c1.items())
    return max(sum(c1.values()), sum(c2.values())) - shared


def delta_of_set(lengths) -> tuple[int, ...]:
    """Successive gaps of a set of integers, sorted ascending."""
    ordered = sorted(set(lengths))
    return tuple(sorted({b - a for a, b in zip(ordered, ordered[1:])}))


def _bottleneck(factorizations) -> int:
    """Catenary degree of a list of factorization count tuples: the least N
    linking all of them by steps of permutable distance <= N, which is the
    largest edge of a minimum spanning tree of the complete distance graph
    (Prim on the dense graph: O(n^2) time, O(n) memory)."""
    if len(factorizations) <= 1:
        return 0
    dicts = [dict(c) for c in factorizations]
    # cheapest edge from the tree grown so far to each vertex outside it
    reach = {b: _multiset_distance(dicts[0], dicts[b]) for b in range(1, len(dicts))}
    threshold = 0
    while reach:
        nearest = min(reach, key=reach.get)
        threshold = max(threshold, reach.pop(nearest))
        for b, d in reach.items():
            reach[b] = min(d, _multiset_distance(dicts[nearest], dicts[b]))
    return threshold


class PresentedMonoid:
    """Reduced atomic commutative monoid over a finite prime alphabet.

    ``membership`` must describe a submonoid of the free abelian monoid on
    the alphabet, and the atom list must be its complete set of atoms
    (irreducible members), no one below another as vectors.

    ``grading``, when given, is a pair (finite abelian group, class of each
    letter) such that the members are exactly the vectors whose class sum
    vanishes, as for block and Krull monoids.  :meth:`elements` then walks
    the members only; without it, it tests every composition.
    """

    def __init__(self, alphabet, membership: Callable[[Vector], bool], atoms, grading=None):
        self.alphabet = _tuple_of(alphabet, "an alphabet")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InvalidSpecificationError("alphabet labels must be distinct")
        if not callable(membership):
            raise InvalidSpecificationError(f"a membership test must be callable, got {membership!r}")
        if grading is not None:
            group, classes = grading if isinstance(grading, (list, tuple)) and len(grading) == 2 else (None, None)
            if not isinstance(group, FinAbGroup) or not isinstance(classes, (list, tuple)):
                raise InvalidSpecificationError(f"a grading is a pair (FinAbGroup, list of classes), got {grading!r}")
            if len(classes) != len(self.alphabet):
                raise InvalidSpecificationError("a grading needs one class per letter")
            for g in classes:
                group.check(g)
        atoms = tuple(tuple(a) if isinstance(a, Iterable) else a for a in _tuple_of(atoms, "atoms"))
        graded, seen = grading and _zero_sum_test(*grading), set()
        for a in atoms:
            if not self._is_vector(a):
                raise InvalidSpecificationError(f"bad atom vector {a!r}")
            if not any(a):
                raise InvalidSpecificationError("atoms must be nonzero")
            if not membership(a):
                raise InvalidSpecificationError(f"atom {a!r} fails membership")
            if graded and not graded(a):
                raise InvalidSpecificationError(f"atom {a!r} has a nonzero class sum in the grading")
            if a in seen:
                raise InvalidSpecificationError(f"duplicate atom {a!r}")
            seen.add(a)
        self._present(self.alphabet, membership, atoms, grading)
        # name the first divided atom b, and its least divider a, by (1-norm, vector)
        for _, b, j in sorted((sum(b), b, j) for j, b in enumerate(self.atoms)):
            if others := self._dividing(b) ^ 1 << j:
                _, a = min((sum(a), a) for k, a in enumerate(self.atoms) if others >> k & 1)
                raise InvalidSpecificationError(f"atom {a!r} divides atom {b!r}")

    def _present(self, alphabet, membership, atoms, grading) -> PresentedMonoid:
        """Set the monoid up from trusted arguments, unchecked, and return it: the library builders call this alone."""
        self.alphabet, self.membership, self.atoms, self.grading = tuple(alphabet), membership, tuple(atoms), grading
        # ungraded: in the trivial group every vector has class sum zero, so the walk yields and tests every composition
        self._grading = _tables(*(grading or (FinAbGroup(()), [()] * len(self.alphabet))))
        self._scan_test = membership if grading is None else None
        self._divides = []  # per letter, value x up to its largest entry: the atoms with entry <= x
        for column in zip(*self.atoms) if self.atoms else [()] * len(self.alphabet):
            values, top = set(column), max(column, default=0)
            # the entries as 8-byte little-endian words, last atom first, cut into byte lanes (lane i: byte i of
            # each): the atoms with entry x are the AND over lanes of the lane, "1" at x's byte i, as a binary numeral
            words = pack(f"<{len(column)}Q", *reversed(column))
            lanes = [words[i::8] for i in range((top.bit_length() + 7) // 8)]
            below, row = 0, []
            for x in range(top):
                if x in values:  # a value no atom has keeps the mask before it
                    exact = -1
                    for i, lane in enumerate(lanes):
                        exact &= int(lane.translate(_ONE_AT[x >> 8 * i & 255]), 2)
                    below |= exact
                row.append(below)
            row.append((1 << len(column)) - 1)  # every atom has an entry <= top
            self._divides.append(row)
        self._least_norm = min(map(sum, self.atoms), default=2)  # 2 without atoms, where 0 is the only member
        self._sifts = grading is not None and self._least_norm == 2  # :meth:`_cap_test` applies
        return self

    def _dividing(self, v: Vector) -> int:
        """Bitmask of the atoms dividing the trusted vector ``v``."""
        mask = -1 if self._divides else 0  # no letter: no atoms
        for row, x in zip(self._divides, v):
            mask &= row[x] if x < len(row) else row[-1]
        return mask

    # -- element handling ------------------------------------------------

    def _is_vector(self, v: tuple) -> bool:
        return isinstance(v, tuple) and len(v) == len(self.alphabet) and all(_is_int(x) and x >= 0 for x in v)

    def contains(self, v) -> bool:
        v = tuple(v)
        return self._is_vector(v) and bool(self.membership(v))

    def check_member(self, v) -> Vector:
        v = tuple(v)
        if not self.contains(v):
            raise NotAMemberError(f"{v!r} is not an element of the monoid")
        return v

    def elements(self, size_bound: int) -> Iterator[Vector]:
        """All members of 1-norm <= size_bound, by (norm, lex) order."""
        test = self._scan_test
        for v, _, _ in _zero_sum_vectors(*self._grading, _bound(size_bound), self._divides):
            if test is None or test(v):
                yield v

    # -- factorizations --------------------------------------------------

    def factorizations(self, v, limit: Optional[int] = DEFAULT_FACTORIZATION_LIMIT):
        """Complete duplicate-free tuple of factorizations of ``v``.

        Atom multisets are enumerated with nondecreasing atom indices so
        each multiset appears once, from a memo of this call alone.  An
        enumeration that would exceed ``limit`` (None, or an int >= 0)
        raises :class:`TruncatedEnumerationError` instead of silently
        truncating.
        """
        if limit is not None and not (_is_int(limit) and limit >= 0):
            raise InvalidSpecificationError(f"a factorization limit must be None or an integer >= 0, got {limit!r}")
        v = self.check_member(v)
        return tuple(Factorization(counts) for counts in self._factorizations_from(v, 0, limit))

    def factorization_of(self, v, multiplicities) -> Factorization:
        """Validated factorization of ``v`` from an atom-index -> multiplicity
        mapping: multiplicities must be positive and the weighted atom sum
        must equal ``v``."""
        v = self.check_member(v)
        try:
            counts = dict(multiplicities)  # left unsorted if an index is no int, which weighted_sum then names
        except (TypeError, ValueError):
            raise InvalidSpecificationError(f"multiplicities must map indices to counts: {multiplicities!r}") from None
        z = Factorization(tuple(sorted(counts.items()) if all(map(_is_int, counts)) else counts.items()))
        if self.weighted_sum(z) != v:
            raise NotAMemberError(f"{z.counts} does not factor {v}")
        return z

    def _factorizations_from(self, v: Vector, start: int, limit: Optional[int] = None) -> tuple:
        """Count tuples of the factorizations of ``v`` into atoms >= ``start``,
        from a memo of this call alone.

        Every key the walk reaches maps its factorizations injectively into
        those of ``v`` (prefix the atoms taken on the way), so a key with more
        than ``limit`` of them raises as soon as it is combined."""

        def capped(out):
            if limit is not None and len(out) > limit:
                raise TruncatedEnumerationError(f"element has more than {limit} factorizations")
            return out

        if not any(v):
            return capped(((),))

        def children(key):
            return [(j, None if rest is None else (rest, j)) for j, rest in self._quotients(*key)]

        def combine(steps):
            out = []
            for j, tails in steps:
                for tail in tails:
                    if tail and tail[0][0] == j:
                        out.append(((j, tail[0][1] + 1),) + tail[1:])
                    else:
                        out.append(((j, 1),) + tail)
            return capped(tuple(out))

        return _evaluate((v, start), {}, children, combine, ((),))

    def length_set(self, v) -> tuple[int, ...]:
        """Sorted set of factorization lengths of ``v``.

        Computed by a walk over atoms, memoized for this call on the
        exponent vector, which agrees with the lengths of :meth:`factorizations`.
        """
        v = self.check_member(v)
        return _lengths(self._length_set(v, {(0,) * len(v): 1}))

    def _length_set(self, v: Vector, memo: dict) -> int:
        """Bitmask of the lengths of a trusted member, bit l set for length l.
        ``memo`` maps the vectors walked so far to theirs; a zero ``v`` must be in it, as 1."""

        def combine(steps):
            out = 0
            for _, lengths in steps:
                out |= lengths
            return out << 1

        return _evaluate(v, memo, lambda u: self._quotients(u, 0), combine, 1)

    def _quotients(self, v: Vector, start: int) -> list:
        """(j, v - atom j) for each atom j >= ``start`` dividing ``v``; None for a zero quotient."""
        out = []
        mask = self._dividing(v) >> start
        while mask:
            low = mask & -mask
            mask ^= low
            j = start + low.bit_length() - 1
            rest = tuple(map(sub, v, self.atoms[j]))
            out.append((j, rest if any(rest) else None))
        return out

    # -- distances and catenary degrees ----------------------------------

    def weighted_sum(self, z: Factorization) -> Vector:
        """The element that ``z`` names: its atom indices must ascend and its multiplicities be counts >= 1."""
        try:
            counts = [(idx, mult) for idx, mult in z.counts]
        except (TypeError, ValueError):
            raise InvalidSpecificationError(f"counts must be (atom index, multiplicity) pairs: {z.counts!r}") from None
        total = [0] * len(self.alphabet)
        for idx, mult in counts:
            if not _is_int(idx) or not 0 <= idx < len(self.atoms):
                raise InvalidSpecificationError(f"no atom with index {idx!r}")
            if not _is_int(mult) or mult < 1:
                raise InvalidSpecificationError(f"multiplicity of atom {idx} must be >= 1")
            for i, x in enumerate(self.atoms[idx]):
                total[i] += mult * x
        if [idx for idx, _ in counts] != sorted({idx for idx, _ in counts}):
            raise InvalidSpecificationError(f"atom indices must ascend, without repeats: {z.counts}")
        return tuple(total)

    def distance(self, z1: Factorization, z2: Factorization) -> int:
        """Permutable distance between two factorizations of one element."""
        if self.weighted_sum(z1) != self.weighted_sum(z2):
            raise IncomparableError("factorizations do not factor the same element")
        return permutable_distance(z1, z2)

    def catenary_of(self, v):
        """Bottleneck connectivity threshold of the factorization graph of ``v``.

        Equals the catenary degree in the permutable distance; 0 when the
        factorization is unique; raises past CATENARY_FACTORIZATION_LIMIT factorizations.
        """
        v = self.check_member(v)
        return _bottleneck(self._factorizations_from(v, 0, CATENARY_FACTORIZATION_LIMIT))

    def _members(self, size_bound: int, classes=None) -> Iterator[tuple[Vector, int, int, dict]]:
        """The member table: (v, mask, lengths, below) per member v of 1-norm <= size_bound, by (norm, lex)
        order: the bitmasks of the atoms a that divide v in the monoid and of its lengths, and per such a, by
        its bit, the row of v - a, an earlier member keyed by its code in base size_bound + 1.  The walk hands
        each member its code and the atoms dividing it as a vector.  With ``classes``, an int per letter (permuting
        the letters of a class must keep the monoid), only the member of each orbit whose counts do not increase
        along a class; v - a reads the row of its orbit's (the same lengths), keyed by v - a + class x base, sorted."""
        base, test, atoms = _bound(size_bound) + 1, self._scan_test, self.atoms
        weights = [base**i for i in range(len(self.alphabet))]
        shift = [c * base for c in classes or ()]
        step = {} if classes else {1 << j: sum(map(mul, a, weights)) for j, a in enumerate(atoms)}  # atom bit -> code
        links = classes and [max((j for j in range(i) if classes[j] == c), default=None) for i, c in enumerate(classes)]
        table: dict = {}  # member code, or key with classes -> its (mask, lengths) row
        for v, code, rest in _zero_sum_vectors(*self._grading, size_bound, self._divides, links):
            if test is not None and not test(v):
                continue
            below, lengths, key = {}, 0, classes and tuple(map(add, v, shift))  # v - a has a row iff a divides v
            while rest:
                bit = rest & -rest
                rest ^= bit
                if row := table.get(code - step[bit] if not classes else
                                    tuple(sorted(map(sub, key, atoms[bit.bit_length() - 1])))):
                    below[bit] = row
                    lengths |= row[1]
            # the mask is below's bits; L(0) = {0}; code | 0 drops the spare digit an int sum allocates, 8 bytes a row
            row = table[code | 0 if not classes else tuple(sorted(key))] = sum(below), lengths << 1 or 1
            yield (v, *row, below)

    def _prime_free(self) -> tuple[PresentedMonoid, Optional[Callable[[Vector], Vector]]]:
        """(H', embed) with H = F(P) x H': P the letters of the atoms of norm 1, primes, as no other atom holds one
        (none lies below another), and H' the monoid on the other letters with the other atoms; ``embed`` puts zeros
        back at P.  (self, None) without a prime.  Built per call of a scan, as no query changes a monoid."""
        if self._least_norm > 1:
            return self, None
        primes = {a.index(1) for a in self.atoms if sum(a) == 1}
        kept = [i for i in range(len(self.alphabet)) if i not in primes]
        spots = [0 if i in primes else kept.index(i) + 1 for i in range(len(self.alphabet))]  # into (0, *w)
        membership, embed = self.membership, lambda w: tuple(map((0, *w).__getitem__, spots))
        grading = self.grading and (self.grading[0], [self.grading[1][i] for i in kept])
        columns = zip(*(a for a in self.atoms if sum(a) > 1))
        atoms = list(zip(*(column for i, column in enumerate(columns) if i not in primes)))  # the others, off P
        H = object.__new__(PresentedMonoid)
        return H._present([self.alphabet[i] for i in kept], lambda w: membership(embed(w)), atoms, grading), embed

    def catenary(self, size_bound: int) -> int:
        """Max of :meth:`catenary_of` over members of 1-norm <= size_bound,
        from the Betti elements, listing no factorization.

        The catenary degree is the largest μ(b) over the Betti elements b
        (Chapman, García-Sánchez, Llena, Ponomarenko, Rosales, Manuscripta
        Math. 120 (2006)); the bounded form holds as every divisor of a
        member is a smaller member.  The R-classes of v (its factorizations
        linked by shared atoms) are the components of the graph on the atoms
        dividing v with a ~ a' when a' divides v - a (the member table); μ(v)
        is the largest least length of a class, and a Betti element has two
        classes or more.  0 when no member has two classes.  It runs on the
        prime-free part, where μ(v) <= max L(v) <= the length cap: the walk
        stops at the cap.  First, above a cap of 2, a pair product uv at the cap
        that :meth:`_cap_test` passes (no other has length cap) with L(uv) = {2,
        cap} settles it as the cap: uv is a member within the bound, and a length-2
        factorization shares no atom with another (u' | z means z = u'v'), so
        the class of a length-cap one has least length cap."""
        H = self._prime_free()[0]
        worst, cap = 0, H._length_cap(size_bound)
        if cap > 2 and any(l == 4 | 1 << cap for l in H._pair_lengths(size_bound, lambda: cap)):
            return cap
        for _, mask, _, below in H._members(size_bound):
            classes, rest = [], mask  # the R-classes, as atom bitmasks
            while rest:
                component = frontier = rest & -rest
                while frontier:
                    bit = frontier & -frontier
                    new = below[bit][0] & ~component
                    component |= new
                    frontier = frontier ^ bit | new
                classes.append(component)
                rest &= ~component
            if len(classes) > 1:  # through atom a, the least length is 1 + that of v - a
                lows = (min((l & -l).bit_length() for b, (_, l) in below.items() if b & c) for c in classes)
                worst = max(worst, *lows)
                if worst >= cap:
                    break
        return worst

    def delta(self, size_bound: int) -> tuple[int, ...]:
        """Union of the gap sets of the members of 1-norm <= size_bound; stops at [1, length cap - 2].
        Pair products at the cap come first, sifted as in :meth:`catenary`, then all once one has the gap cap - 2."""
        H = self._prime_free()[0]
        cap, seen, gaps = H._length_cap(size_bound), set(), set()
        pairs = H._pair_lengths(size_bound, lambda: 0 if cap - 2 in gaps else cap)
        for lengths in chain(pairs, (row[2] for row in H._members(size_bound))):
            if lengths not in seen:
                seen.add(lengths)
                gaps.update(delta_of_set(_lengths(lengths)))
                if len(gaps) >= cap - 2:
                    break
        return tuple(sorted(gaps))

    def _length_cap(self, size_bound: int) -> int:
        """No member of 1-norm <= size_bound has a factorization longer than this."""
        return _bound(size_bound) // self._least_norm

    def _atom_pairs(self, size_bound: int) -> Iterator[tuple[Vector, Vector]]:
        """Atom pairs a <= b with |a| + |b| <= size_bound, by descending |a| + |b|, then (norm, vector)."""
        by_norm: dict[int, list[Vector]] = {}
        for a in sorted(self.atoms):
            by_norm.setdefault(sum(a), []).append(a)
        for _, n, m in sorted((-n - m, n, m) for n in by_norm for m in by_norm if n <= m <= size_bound - n):
            for i, a in enumerate(by_norm[n]):
                for b in by_norm[m][i:] if n == m else by_norm[m]:
                    yield a, b

    def rho2(self, size_bound: int) -> int:
        """Largest factorization length of a product of two atoms of total 1-norm <= size_bound,
        from the pair loop, which :meth:`catenary` and :meth:`delta` share: it stops at the first
        pair whose length cap is at most the best, and a pair it sifts out cannot beat the best."""
        if _bound(size_bound) < 2:
            raise InvalidSpecificationError("rho2 needs size_bound >= 2")
        best = 0 if (H := self._prime_free()[0]) is self else 2  # a prime p adds p·p, of L = {2}
        for lengths in H._pair_lengths(size_bound, lambda: best + 1):
            best = max(best, lengths.bit_length() - 1)
        return best

    def _pair_lengths(self, size_bound: int, floor: Callable[[], int]) -> Iterator[int]:
        """The pair loop: length-set bitmasks of the products of :meth:`_atom_pairs`, in its order, from one memo,
        up to the first pair whose own cap, (|a| + |b|) // least norm, is below ``floor()``.  Where ``_sifts`` it
        passes over each pair of own cap ``floor()`` that :meth:`_cap_test` fails: no caller needs its lengths."""
        memo, reaches = {}, self._sifts and self._cap_test(size_bound)
        for a, b in self._atom_pairs(size_bound):
            if (own := (sum(a) + sum(b)) // self._least_norm) < (top := floor()):
                return
            if not reaches or own != top or reaches(a, b):
                yield self._length_set(tuple(map(add, a, b)), memo)

    def _cap_test(self, size_bound: int) -> Callable[[Vector, Vector], bool]:
        """Where ``_sifts``: for atoms u, v, |u| + |v| <= size_bound, false only if uv has no factorization of length
        k = (|u| + |v|) // 2 >= 3.  The class defect (N_g - N_-g per class g != -g, N_g mod 2 per g = -g) is additive,
        0 on atoms of norm 2, and keyed per atom when first met as (signed digits in base 2 size_bound + 1, parity
        bits).  Such a factorization takes norm-2 atoms and, for odd |u| + |v|, one of norm 3, w: the defects of u and
        v add to 0, or to w's."""
        neg, rows, _ = self._grading
        base, classes = 2 * size_bound + 1, [(row[0], neg[row[0]]) for row in rows]  # of each letter and its negative
        weights = [0 if g == h else base ** min(g, h) * (1 if g < h else -1) for g, h in classes]
        bits = [1 << g if g == h else 0 for g, h in classes]
        key = cache(lambda w: (sum(map(mul, w, weights)), reduce(xor, compress(bits, (x & 1 for x in w)), 0)))
        threes = cache(lambda: {key(w) for w in self.atoms if sum(w) == 3})

        def reaches(u, v):
            n, (s, p), (t, q) = sum(u) + sum(v), key(u), key(v)
            return n < 6 or (s + t, p ^ q) in ({(0, 0)} if n % 2 == 0 else threes())

        return reaches

    def half_factorial(self, size_bound: int):
        """(True, None) when every member of 1-norm <= size_bound has a
        singleton length set, else (False, (witness vector, its length set)).

        Members are scanned by (1-norm, lex) order, so the witness is the
        first violator in that order, which holds no prime.
        """
        H, embed = self._prime_free()
        for v, _, lengths, _ in H._members(size_bound):
            if lengths & (lengths - 1):
                return False, (embed(v) if embed else v, _lengths(lengths))
        return True, None


def _bound(size_bound) -> int:
    """A size bound, which must be an int and not a bool."""
    if not _is_int(size_bound):
        raise InvalidSpecificationError(f"a size bound must be an integer, got {size_bound!r}")
    return size_bound


def _lengths(mask: int) -> tuple[int, ...]:
    """The lengths in a length-set bitmask, ascending."""
    return tuple(l for l in range(mask.bit_length()) if mask >> l & 1)


def _evaluate(root, cache, children, combine, empty):
    """``value(root)`` for the memoized recursion ``value(key) =
    combine([(step, value(child)) for step, child in children(key)])``, on an
    explicit stack.  A child None is the zero vector, of value ``empty``."""
    expanded: dict = {}
    stack = [root]
    while stack:
        key = stack[-1]
        if key in cache:
            stack.pop()
            continue
        steps = expanded.get(key)
        if steps is None:
            steps = expanded[key] = children(key)
            missing = [child for _, child in steps if child is not None and child not in cache]
            if missing:
                stack.extend(missing)
                continue
        cache[key] = combine([(step, empty if child is None else cache[child]) for step, child in steps])
        del expanded[key]
        stack.pop()
    return cache[root]


def _zero_sum_vectors(neg, rows, moves, size_bound: int, divides, links=None) -> Iterator[tuple[Vector, int, int]]:
    """Count vectors v over letters with addition rows ``rows`` and moves
    ``moves`` (from ``abelian._tables``, negation map ``neg``) whose class
    sum vanishes, of 1-norm <= size_bound, by (norm, lex) order, each with its
    code, sum v_i (size_bound + 1)^i, and the AND of ``divides[i][v_i]`` (a
    count past a row's end reads its last entry): the atoms dividing v.

    Each norm layer is an explicit-stack walk that assigns the slots left to
    right, each in ascending order, carrying the code and mask so far; with
    ``reach[s][r]`` the bitmask of the class sums of exactly r letters from
    slots >= s, a slot value is taken only when the later slots can still
    close the class sum, and every leaf is a member.  Each layer extends it by
    reach[s][r] = reach[s+1][r] | (reach[s][r-1] moved by slot s's class).  ``links`` (per slot, an earlier
    slot or None) caps each slot's count at that slot's, checked as a child is pushed and at the last leaf.
    """
    width = len(rows)
    if not width:
        if size_bound >= 0:
            yield (), 0, 0
        return
    last, closing, weights = width - 1, divides[-1], [(size_bound + 1) ** i for i in range(width)]
    # per slot s, the AND of the zero entries of slots s, ..., last - 1
    tail = list(accumulate((row[0] for row in reversed(divides[:last])), and_, initial=-1))[::-1]
    reach = [[1] for _ in rows]
    v = [0] * width
    zeros = [0] * width
    for n in range(size_bound + 1):
        if n:
            column = 0
            for s in range(last, -1, -1):
                column |= _translate(reach[s][n - 1], moves[s])
                reach[s].append(column)
        if not reach[0][n] & 1:
            continue
        # (slot, units left for it and later slots, class sum before it,
        # units of the slot before it, code and mask of the slots before it)
        stack = [(0, n, 0, 0, 0, -1)]
        while stack:
            s, r, h, k, code, mask = stack.pop()
            if s:
                v[s - 1] = k
            if not r or s == last:  # the later slots are empty, or slot s takes the rest
                if r and links and links[last] is not None and r > v[links[last]]:
                    continue
                v[s:] = zeros[s:]
                v[last] = r
                yield tuple(v), code + r * weights[last], mask & tail[s] & closing[r if r < len(closing) else -1]
                continue
            row, later, w, entries, top = rows[s], reach[s + 1], weights[s], divides[s], len(divides[s]) - 1
            children = []
            for k in range(r + 1 if links is None or links[s] is None else min(r, v[links[s]]) + 1):
                if later[r - k] >> neg[h] & 1:
                    children.append((s + 1, r - k, h, k, code, mask & entries[k if k < top else top]))
                h = row[h]
                code += w
            stack.extend(reversed(children))
