"""Independent brute-force oracles used to cross-check the library.

Each oracle deliberately follows a different algorithmic route than the
implementation it checks: generate-and-test enumeration instead of pruned
search, explicit submultiset scans instead of incremental masks, and plain
recursive splitting instead of memoized index-ordered search.
"""

from __future__ import annotations

import itertools
from collections import Counter

from factorinv.abelian import FinAbGroup


def submultiset_sums(group: FinAbGroup, elements) -> set:
    """Sums of all nonempty submultisets of a list of group elements."""
    sums: set = set()
    for g in elements:
        new = {group.add(s, g) for s in sums}
        new.add(g)
        sums |= new
    return sums


def is_minimal_zero_sum(group: FinAbGroup, elements) -> bool:
    """Nonempty, zero-sum, and no proper nonempty submultiset sums to zero,
    checked by dropping one copy of each distinct element in turn."""
    elements = list(elements)
    if not elements:
        return False
    total = group.zero
    for g in elements:
        total = group.add(total, g)
    if total != group.zero:
        return False
    for g in set(elements):
        rest = list(elements)
        rest.remove(g)
        if group.zero in submultiset_sums(group, rest):
            return False
    return True


def minimal_zero_sum_brute(group: FinAbGroup, subset=None, max_length=None):
    """Exhaustive enumeration of minimal zero-sum sequences.

    Candidates are generated in nondecreasing element order; a candidate may
    be minimal only if its internal prefix sums are pairwise distinct and
    nonzero (a repeat or an early zero exhibits a proper zero-sum block),
    which also caps the length at |G|.  Survivors get the full
    :func:`is_minimal_zero_sum` check.
    """
    elems = sorted(subset) if subset is not None else list(group.elements())
    cap = group.cardinality if max_length is None else max_length
    found = []
    stack = []

    def extend(start, total, seen_sums):
        if stack and total == group.zero:
            if is_minimal_zero_sum(group, stack):
                found.append(Counter(stack))
            return
        if len(stack) >= cap:
            return
        for j in range(start, len(elems)):
            g = elems[j]
            s = group.add(total, g)
            if s != group.zero and s in seen_sums:
                continue
            stack.append(g)
            seen_sums.add(s)
            extend(j, s, seen_sums)
            seen_sums.discard(s)
            stack.pop()

    extend(0, group.zero, set())
    return found


def davenport_brute(group: FinAbGroup) -> int:
    """Davenport constant from the exhaustive minimal-sequence enumeration."""
    return max(sum(c.values()) for c in minimal_zero_sum_brute(group))


def zero_sum_multisets_brute(group: FinAbGroup, subset, maxlen: int):
    """All zero-sum multisets over the subset of length <= maxlen, via plain
    combinations-with-replacement enumeration."""
    out = []
    for length in range(maxlen + 1):
        for combo in itertools.combinations_with_replacement(sorted(subset), length):
            total = group.zero
            for g in combo:
                total = group.add(total, g)
            if total == group.zero:
                out.append(Counter(combo))
    return out


def naive_factorizations(atoms, v) -> set:
    """All atom multisets summing to ``v``, by trying every dividing atom at
    every step and deduplicating the resulting multisets."""
    v = tuple(v)
    if not any(v):
        return {()}
    out = set()
    for i, a in enumerate(atoms):
        if all(x <= y for x, y in zip(a, v)):
            rest = tuple(y - x for x, y in zip(a, v))
            for tail in naive_factorizations(atoms, rest):
                out.add(tuple(sorted(tail + (i,))))
    return out


def naive_length_set(atoms, v) -> set:
    return {len(f) for f in naive_factorizations(atoms, v)}


def catenary_minimax(factorizations) -> int:
    """Catenary degree from the chain definition, via minimax path weights.

    For each pair of factorizations, the cheapest chain cost is the minimal
    over connecting paths of the maximal step distance (Floyd-Warshall on
    the max-of-mins semiring); the catenary degree is the largest such cost.
    """
    feet = [Counter(dict(z.counts)) for z in factorizations]
    lengths = [z.length for z in factorizations]
    n = len(feet)
    if n <= 1:
        return 0
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            shared = sum((feet[i] & feet[j]).values())
            dist[i][j] = dist[j][i] = max(lengths[i] - shared, lengths[j] - shared)
    cost = [row[:] for row in dist]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = max(cost[i][k], cost[k][j])
                if through < cost[i][j]:
                    cost[i][j] = through
    return max(cost[i][j] for i in range(n) for j in range(n))


def first_fit_lift(monoid, v, blocks) -> list[tuple[int, ...]]:
    """Pieces of ``v`` with the given block images, each class of each block
    filled from the primes of that class in prime order, scanning all primes."""
    remaining = list(v)
    pieces = []
    for block in blocks:
        piece = [0] * len(v)
        for g, needed in block.counts:
            for i, p in enumerate(monoid.primes):
                if monoid.classes[p] == g:
                    take = min(needed, remaining[i])
                    piece[i] += take
                    remaining[i] -= take
                    needed -= take
        pieces.append(tuple(piece))
    return pieces


def prefix_tuple_solutions(n: int, progressions) -> list[tuple[int, ...]]:
    """All prefix-size tuples (m_i in [0, k_i + 1], sum n) whose prefixes are
    pairwise disjoint and cover Z/nZ, by scanning every candidate tuple."""
    full = (1 << n) - 1
    masks = []
    for a, k in progressions:
        row = []
        for m in range(k + 2):
            bits = 0
            for j in range(m):
                bits |= 1 << ((a + j) % n)
            row.append((m, bits))
        masks.append(row)
    solutions = []

    def scan(i, total, mask, chosen):
        if total > n:
            return
        if i == len(masks):
            if total == n and mask == full:
                solutions.append(tuple(chosen))
            return
        for m, bits in masks[i]:
            if mask & bits:
                continue  # prefixes overlap
            chosen.append(m)
            scan(i + 1, total + m, mask | bits, chosen)
            chosen.pop()

    scan(0, 0, 0, [])
    return solutions
