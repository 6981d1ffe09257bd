"""Factorization engine for reduced atomic commutative monoids.

A monoid is presented by a finite alphabet of prime labels, a membership
predicate on exponent vectors, and an explicit finite atom set.  In the
reduced commutative case a factorization is just a multiset of atoms, so the
engine computes sets of lengths, distance sets, permutable distances,
elasticities, and catenary degrees by direct enumeration over exponent
vectors of bounded 1-norm.

Public methods validate their input once; internal scans work on trusted
int count vectors with explicit stacks, so no element meets a recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .errors import (
    IncomparableError,
    InvalidSpecificationError,
    NotAMemberError,
    TruncatedEnumerationError,
)

Vector = tuple[int, ...]

#: Stands for a catenary degree with no finite bound.  The factorization
#: graph of an element is complete, so no computation here returns it.
INFINITE = float("inf")

#: Cap on the number of factorizations enumerated for a single element.
DEFAULT_FACTORIZATION_LIMIT = 1_000_000


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
    c1, c2 = z1.as_dict(), z2.as_dict()
    shared = sum(min(m, c2[i]) for i, m in c1.items() if i in c2)
    return max(z1.length - shared, z2.length - shared)


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
    lengths = [sum(m for _, m in c) for c in factorizations]

    def distance(a, b):
        other = dicts[b]
        shared = sum(min(m, other.get(i, 0)) for i, m in factorizations[a])
        return max(lengths[a], lengths[b]) - shared

    # cheapest edge from the tree grown so far to each vertex outside it
    reach = {b: distance(0, b) for b in range(1, len(factorizations))}
    threshold = 0
    while reach:
        nearest = min(reach, key=reach.get)
        threshold = max(threshold, reach.pop(nearest))
        for b, d in reach.items():
            reach[b] = min(d, distance(nearest, b))
    return threshold


class PresentedMonoid:
    """Reduced atomic commutative monoid over a finite prime alphabet.

    ``membership`` must describe a submonoid of the free abelian monoid on
    the alphabet that is divisor-closed in the sense that quotients of
    members by members are members whenever they exist; the atom list must
    be the complete set of minimal nonzero members.
    """

    def __init__(self, alphabet, membership: Callable[[Vector], bool], atoms):
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InvalidSpecificationError("alphabet labels must be distinct")
        self.membership = membership
        self.atoms = tuple(tuple(a) for a in atoms)
        self._sparse = tuple(tuple((i, x) for i, x in enumerate(a) if x) for a in self.atoms)
        self._validate_atoms()
        self._fact_cache: dict[tuple[Vector, int], tuple] = {}
        self._lenset_cache: dict[Vector, frozenset[int]] = {}

    def _validate_atoms(self):
        width = len(self.alphabet)
        seen = set()
        for a in self.atoms:
            if len(a) != width or any(x < 0 for x in a):
                raise InvalidSpecificationError(f"bad atom vector {a!r}")
            if not any(a):
                raise InvalidSpecificationError("atoms must be nonzero")
            if not self.membership(a):
                raise InvalidSpecificationError(f"atom {a!r} fails membership")
            if a in seen:
                raise InvalidSpecificationError(f"duplicate atom {a!r}")
            seen.add(a)
        # distinct atoms of equal 1-norm cannot divide each other
        ranked = sorted(zip(map(sum, self.atoms), self.atoms, self._sparse))
        for j, (norm, b, _) in enumerate(ranked):
            for smaller, a, support in ranked[:j]:
                if smaller < norm and all(b[i] >= x for i, x in support):
                    raise InvalidSpecificationError(f"atom {a!r} divides atom {b!r}")

    # -- element handling ------------------------------------------------

    def contains(self, v) -> bool:
        v = tuple(v)
        return (
            len(v) == len(self.alphabet)
            and all(isinstance(x, int) and x >= 0 for x in v)
            and bool(self.membership(v))
        )

    def check_member(self, v) -> Vector:
        v = tuple(v)
        if not self.contains(v):
            raise NotAMemberError(f"{v!r} is not an element of the monoid")
        return v

    def elements(self, size_bound: int) -> Iterator[Vector]:
        """All members of 1-norm <= size_bound, by (norm, lex) order."""
        width = len(self.alphabet)
        for w in range(size_bound + 1):
            for v in _compositions(w, width):
                if self.membership(v):
                    yield v

    # -- factorizations --------------------------------------------------

    def factorizations(self, v, limit: Optional[int] = DEFAULT_FACTORIZATION_LIMIT):
        """Complete duplicate-free tuple of factorizations of ``v``.

        Atom multisets are enumerated with nondecreasing atom indices so
        each multiset appears once; results are memoized per monoid.  An
        enumeration that would exceed ``limit`` raises
        :class:`TruncatedEnumerationError` instead of silently truncating.
        """
        v = self.check_member(v)
        return tuple(Factorization(counts) for counts in self._factorizations_from(v, 0, limit))

    def factorization_of(self, v, multiplicities) -> Factorization:
        """Validated factorization of ``v`` from an atom-index -> multiplicity
        mapping: multiplicities must be positive and the weighted atom sum
        must equal ``v``."""
        v = self.check_member(v)
        counts = tuple(sorted(dict(multiplicities).items()))
        for idx, mult in counts:
            if not 0 <= idx < len(self.atoms):
                raise InvalidSpecificationError(f"no atom with index {idx}")
            if not isinstance(mult, int) or mult < 1:
                raise InvalidSpecificationError(f"multiplicity of atom {idx} must be >= 1")
        z = Factorization(counts)
        if self.weighted_sum(z) != v:
            raise NotAMemberError(f"{counts} does not factor {v}")
        return z

    def _factorizations_from(self, v: Vector, start: int, limit: Optional[int] = None) -> tuple:
        """Count tuples of the factorizations of ``v`` into atoms >= ``start``.

        Every key the walk reaches maps its factorizations injectively into
        those of ``v`` (prefix the atoms taken on the way), so a key with more
        than ``limit`` of them raises as soon as it is combined; a root cached
        by an earlier call is checked on return."""

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

        return capped(_evaluate((v, start), self._fact_cache, children, combine, ((),)))

    def length_set(self, v) -> tuple[int, ...]:
        """Sorted set of factorization lengths of ``v``.

        Computed by a memoized walk over atoms (keyed on the exponent
        vector), which agrees with the lengths of :meth:`factorizations`.
        """
        v = self.check_member(v)
        return tuple(sorted(self._length_set(v)))

    def _length_set(self, v: Vector) -> frozenset[int]:
        if not any(v):
            return frozenset({0})

        def combine(steps):
            return frozenset(l + 1 for _, lengths in steps for l in lengths)

        return _evaluate(
            v, self._lenset_cache, lambda u: self._quotients(u, 0), combine, frozenset({0})
        )

    def _quotients(self, v: Vector, start: int) -> list:
        """(j, v - atom j) for every atom j >= ``start`` dividing ``v``, the
        quotient None when it is the zero vector."""
        out = []
        for j, atom in enumerate(self._sparse[start:], start):
            for i, x in atom:
                if v[i] < x:
                    break
            else:
                rest = list(v)
                for i, x in atom:
                    rest[i] -= x
                out.append((j, tuple(rest) if any(rest) else None))
        return out

    # -- distances and catenary degrees ----------------------------------

    def weighted_sum(self, z: Factorization) -> Vector:
        total = [0] * len(self.alphabet)
        for idx, mult in z.counts:
            for i, x in enumerate(self.atoms[idx]):
                total[i] += mult * x
        return tuple(total)

    def distance(self, z1: Factorization, z2: Factorization) -> int:
        """Permutable distance between two factorizations of one element."""
        if self.weighted_sum(z1) != self.weighted_sum(z2):
            raise IncomparableError("factorizations do not factor the same element")
        return permutable_distance(z1, z2)

    def catenary_of(self, v):
        """Bottleneck connectivity threshold of the factorization graph of ``v``.

        Equals the catenary degree in the permutable distance; 0 when the
        factorization is unique.
        """
        v = self.check_member(v)
        return _bottleneck(self._factorizations_from(v, 0))

    def catenary(self, size_bound: int):
        """Max of :meth:`catenary_of` over members of 1-norm <= size_bound."""
        return max((self.catenary_of(v) for v in self.elements(size_bound)), default=0)

    def delta(self, size_bound: int) -> tuple[int, ...]:
        """Union of successive-gap sets over members of 1-norm <= size_bound."""
        out: set[int] = set()
        for v in self.elements(size_bound):
            out.update(delta_of_set(self._length_set(v)))
        return tuple(sorted(out))

    def rho2(self, size_bound: int) -> int:
        """Largest factorization length of a product of two atoms of total
        1-norm <= size_bound."""
        if size_bound < 2:
            raise InvalidSpecificationError("rho2 needs size_bound >= 2")
        best = 0
        for i, a in enumerate(self.atoms):
            for b in self.atoms[i:]:
                v = tuple(x + y for x, y in zip(a, b))
                if sum(v) <= size_bound:
                    best = max(best, max(self._length_set(v)))
        return best

    def half_factorial(self, size_bound: int):
        """(True, None) when every member of 1-norm <= size_bound has a
        singleton length set, else (False, (witness vector, its length set)).

        Members are scanned by (1-norm, lex) order, so the witness is the
        first violator in that order.
        """
        for v in self.elements(size_bound):
            lengths = self._length_set(v)
            if len(lengths) > 1:
                return False, (v, tuple(sorted(lengths)))
        return True, None


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


def _compositions(total: int, width: int) -> Iterator[Vector]:
    """Nonnegative integer vectors of given width summing to total, lex order.

    The lex successor moves one unit from the last nonzero entry to the entry
    before it and the rest of that entry to the end."""
    if width == 0:
        if total == 0:
            yield ()
        return
    v = [0] * width
    v[-1] = total
    last = width - 1 if total else 0  # position of the last nonzero entry
    while True:
        yield tuple(v)
        if last == 0:
            return
        rest = v[last] - 1
        v[last] = 0
        v[last - 1] += 1
        v[-1] = rest
        last = width - 1 if rest else last - 1
