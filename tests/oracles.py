"""Independent brute-force oracles used to cross-check the library.

Each oracle deliberately follows a different algorithmic route than the
implementation it checks: generate-and-test enumeration instead of pruned
search, explicit submultiset scans instead of incremental masks, plain
recursive splitting instead of memoized index-ordered search, and tables
pushed forward from each member by the atoms that fit instead of walks over
the atoms dividing an element.  Each oracle call builds its own tables.
"""

from __future__ import annotations

import itertools
from collections import Counter

from factorinv.abelian import FinAbGroup
from factorinv.errors import (
    CoverCycleError,
    ExtremaError,
    IncomparableError,
    LabelMultisetError,
    NonPrincipalBoundError,
    NotACoveringError,
)
from factorinv.factorize import Factorization
from factorinv.krull import TransferReport


def submultiset_sums(group: FinAbGroup, elements) -> set:
    """Sums of all nonempty submultisets of a list of group elements."""
    sums: set = set()
    for g in elements:
        new = {group.add(s, g) for s in sums}
        new.add(g)
        sums |= new
    return sums


def translate_bit_by_bit(mask: int, row) -> int:
    """The bitmask of element indices ``mask`` moved by the addition row
    ``row`` (index h -> index of h + g), one set bit at a time."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << row[low.bit_length() - 1]
        mask ^= low
    return out


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


def naive_rho2(atoms, bound: int) -> int:
    """The most factorization lengths of a product of two atoms, over every
    pair of atoms whose product has 1-norm <= bound (0 when there is none).
    The product is symmetric, so each unordered pair is taken once."""
    pairs = itertools.combinations_with_replacement(atoms, 2)
    products = (tuple(x + y for x, y in zip(a, b)) for a, b in pairs)
    return max((max(naive_length_set(atoms, v)) for v in products if sum(v) <= bound), default=0)


def composition_scan(monoid, bound: int) -> list[tuple[int, ...]]:
    """Members of 1-norm <= bound in (norm, lex) order, by asking the
    monoid's membership predicate about every count vector: the vectors of
    one norm are the letter multisets of that size, sorted."""
    width = len(monoid.alphabet)
    members = []
    for norm in range(bound + 1):
        layer = []
        for letters in itertools.combinations_with_replacement(range(width), norm):
            counts = [0] * width
            for i in letters:
                counts[i] += 1
            layer.append(tuple(counts))
        members.extend(v for v in sorted(layer) if monoid.membership(v))
    return members


def pushed_table(monoid, bound: int, start, extend) -> dict:
    """A table over the members of 1-norm <= bound, in the (norm, lex) order
    of the composition scan: the zero vector holds ``start``, and each member
    u, once every smaller member is done, adds ``extend(i, x)`` for each of
    its entries x to the member u + a_i, for every atom a_i that fits under
    the bound.  So each member's entries come from the earlier members it
    divides by an atom."""
    table = {v: set() for v in composition_scan(monoid, bound)}
    table[(0,) * len(monoid.alphabet)] = {start}
    by_norm = sorted((sum(a), i, a) for i, a in enumerate(monoid.atoms))
    for u, entries in table.items():
        room = bound - sum(u)
        for norm, i, a in by_norm:
            if norm > room:
                break
            table[tuple(x + y for x, y in zip(u, a))].update(extend(i, x) for x in entries)
    return {v: frozenset(entries) for v, entries in table.items()}


def length_table(monoid, bound: int) -> dict:
    """Each member of 1-norm <= bound -> the set of its factorization lengths."""
    return pushed_table(monoid, bound, 0, lambda i, length: length + 1)


def factorization_table(monoid, bound: int) -> dict:
    """Each member of 1-norm <= bound -> its factorizations, as sorted tuples of atom indices."""
    return pushed_table(monoid, bound, (), lambda i, z: tuple(sorted(z + (i,))))


def gap_scan(monoid, bound: int) -> tuple[int, ...]:
    """Union of the successive gaps of the length sets of the members of
    1-norm <= bound, from the length table."""
    gaps = set()
    for lengths in length_table(monoid, bound).values():
        lengths = sorted(lengths)
        gaps.update(b - a for a, b in zip(lengths, lengths[1:]))
    return tuple(sorted(gaps))


def first_member_with_two_lengths(monoid, bound: int):
    """(True, None), or (False, (v, its length set)) for the first member v
    of the length table, in (norm, lex) order, with more than one length."""
    for v, lengths in length_table(monoid, bound).items():
        if len(lengths) > 1:
            return False, (v, tuple(sorted(lengths)))
    return True, None


def prim_bottleneck(factorizations) -> int:
    """Catenary degree of a set of factorizations (sorted atom-index tuples):
    the heaviest edge that Prim adds to a minimum spanning tree of the
    complete graph on them, weighted by the permutable distance, whose
    shared atoms come from merging the two sorted tuples."""
    if len(factorizations) <= 1:
        return 0

    def distance(x, y):
        i = j = shared = 0
        while i < len(x) and j < len(y):
            if x[i] == y[j]:
                shared, i, j = shared + 1, i + 1, j + 1
            elif x[i] < y[j]:
                i += 1
            else:
                j += 1
        return max(len(x), len(y)) - shared

    tree, *rest = factorizations
    cheapest = [distance(tree, z) for z in rest]
    worst = 0
    while rest:
        k = min(range(len(rest)), key=cheapest.__getitem__)
        worst = max(worst, cheapest.pop(k))
        tree = rest.pop(k)
        cheapest = [min(c, distance(tree, z)) for c, z in zip(cheapest, rest)]
    return worst


def prim_catenary(monoid, bound: int) -> int:
    """Catenary degree up to a bound as the largest catenary degree of one
    member (the Prim bottleneck of its factorizations, from the
    factorization table)."""
    return max(map(prim_bottleneck, factorization_table(monoid, bound).values()), default=0)


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


def fiber_catenary_by_listing(monoid, bound: int) -> int:
    """Largest catenary degree of a fiber of a Krull monoid's transfer map
    over the members of 1-norm <= bound, by listing: each member's
    factorizations from the factorization table, grouped by the sorted class
    images of their atoms, each group's catenary degree from the chain
    definition."""
    images = [monoid.atom_image(i).counts for i in range(len(monoid.atoms))]
    worst = 0
    for factorizations in factorization_table(monoid, bound).values():
        fibers: dict = {}
        for z in factorizations:
            key = tuple(sorted(images[i] for i in z))
            fibers.setdefault(key, []).append(Factorization(tuple(sorted(Counter(z).items()))))
        worst = max(worst, *map(catenary_minimax, fibers.values()))
    return worst


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


def transfer_report_by_lifting(monoid, bound: int, lift=first_fit_lift):
    """A Krull monoid's transfer report up to a bound with every split lifted
    on its own: members in (norm, lex) order, each compared by the length
    sets from the length tables of the monoid and of the block monoid;
    each public 2-split of its image lifted by ``lift`` and checked to
    multiply back and to have the split's class counts; then the first block
    member that no member maps to."""
    blocks = monoid.block_monoid()
    presented = blocks.presented()
    classes = [monoid.classes[p] for p in monoid.primes]

    def class_counts(piece):
        counts: dict = {}
        for g, m in zip(classes, piece):
            if m:
                counts[g] = counts.get(g, 0) + m
        return tuple(sorted(counts.items()))

    lengths, image_lengths = length_table(monoid, bound), length_table(presented, bound)
    elements = splits = surjectivity = 0
    two_splits: dict = {}  # image -> its public 2-splits
    for elements, v in enumerate(monoid.elements(bound), 1):
        image = monoid.beta(v)
        mine, theirs = tuple(sorted(lengths[v])), tuple(sorted(image_lengths[blocks.vector_of(image)]))
        if mine != theirs:
            return TransferReport(False, elements, splits, f"length sets differ at {v}: {mine} vs {theirs}")
        if image not in two_splits:
            two_splits[image] = monoid.two_splits(image)
        for left, right in two_splits[image]:
            splits += 1
            b, c = lift(monoid, v, [left, right])
            if tuple(x + y for x, y in zip(b, c)) != v:
                return TransferReport(False, elements, splits, f"lift of {v} does not multiply back")
            if class_counts(b) != left.counts or class_counts(c) != right.counts:
                return TransferReport(False, elements, splits, f"lift of {v} has wrong images")
    for surjectivity, w in enumerate(presented.elements(bound), 1):
        if blocks.sequence_of(w) not in two_splits:
            failure = f"no preimage found for {blocks.sequence_of(w)}"
            return TransferReport(False, elements, splits, failure, surjectivity)
    return TransferReport(True, elements, splits, None, surjectivity)


def krull_atoms_by_expansion(monoid) -> list[tuple[int, ...]]:
    """Atoms of a Krull monoid, sorted: every choice of primes of the right
    classes for every minimal zero-sum sequence over the occupied classes
    (from the brute-force enumeration), deduplicated."""
    class_primes = {
        g: [i for i, p in enumerate(monoid.primes) if monoid.classes[p] == g]
        for g in monoid.image_classes
    }
    atoms = set()
    for block_atom in minimal_zero_sum_brute(monoid.group, monoid.image_classes):
        choices = [
            [Counter(combo) for combo in itertools.combinations_with_replacement(class_primes[g], m)]
            for g, m in block_atom.items()
        ]
        for picks in itertools.product(*choices):
            vec = [0] * len(monoid.primes)
            for counter in picks:
                for idx, mult in counter.items():
                    vec[idx] += mult
            atoms.add(tuple(vec))
    return sorted(atoms)


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


def set_prefix_cover(n: int, progressions) -> list[int]:
    """Prefix sizes of the disjoint-prefix covering lemma on Python sets of
    residues: drop the largest-index progression contained in the union of
    the other active ones until each has a private residue, then extend
    each prefix to its last private residue.  Raises
    :class:`NotACoveringError` naming the lowest uncovered residue."""
    progs = [(a % n, k) for a, k in progressions]
    full = set(range(n))
    sets = [{(a + j) % n for j in range(k + 1)} for a, k in progs]
    covered = set().union(*sets)
    if covered != full:
        raise NotACoveringError(f"residue {min(full - covered)} mod {n} is not covered")
    m = [0] * len(progs)
    active = list(range(len(progs)))
    while len(active) > 1:
        redundant = None
        for i in reversed(active):
            others = set().union(*(sets[j] for j in active if j != i))
            if sets[i] <= others:
                redundant = i
                break
        if redundant is None:
            break
        active.remove(redundant)
    if len(active) == 1:
        m[active[0]] = n
        return m
    for i in active:
        a, k = progs[i]
        others = set().union(*(sets[j] for j in active if j != i))
        m[i] = max(step + 1 for step in range(k + 1) if (a + step) % n not in others)
    return m


class ExhaustiveLattice:
    """Ideal-lattice validator and queries by path enumeration.

    Acyclicity by recursive depth-first search, the Hasse condition by one
    reachability search per cover, Jordan-Hoelder consistency by walking
    every cover path from every node, interval labels by path search, and
    chains by recursive climbing; exponential in general, fine for the small
    lattices the tests build.  Raises the error classes of
    :class:`factorinv.chains.IdealLattice`; documents are assumed
    well-formed (node ids, flags and labels declared).
    """

    def __init__(self, doc):
        self.principal = {node["id"]: node["principal"] for node in doc["nodes"]}
        self.covers = [(c["upper"], c["lower"], c["label"]) for c in doc["covers"]]
        self.top, self.bottom = doc["top"], doc["bottom"]
        self.below = {n: [] for n in self.principal}
        for upper, lower, label in self.covers:
            self.below[upper].append((lower, label))
        self._validate()

    def _validate(self):
        nodes = set(self.principal)
        if self.top not in nodes or self.bottom not in nodes:
            raise ExtremaError("top or bottom")
        state: dict = {}

        def visit(node):
            state[node] = 1
            for child, _ in self.below[node]:
                mark = state.get(child)
                if mark == 1:
                    raise CoverCycleError(child)
                if mark is None:
                    visit(child)
            state[node] = 2

        for node in nodes:
            if node not in state:
                visit(node)
        maximal = nodes - {l for _, l, _ in self.covers}
        minimal = nodes - {u for u, _, _ in self.covers}
        if len(nodes) == 1:
            maximal = minimal = nodes
        if maximal != {self.top} or minimal != {self.bottom}:
            raise ExtremaError("extrema")
        for upper, lower, _ in self.covers:
            for child, _ in self.below[upper]:
                if child != lower and self.comparable(child, lower):
                    raise CoverCycleError(f"shortcut {upper!r} -> {lower!r}")
        for upper in nodes:
            collected = {upper: Counter()}

            def walk(node, labels):
                for child, label in self.below[node]:
                    next_labels = labels + Counter([label])
                    if collected.setdefault(child, next_labels) != next_labels:
                        raise LabelMultisetError(f"{upper!r} to {child!r}")
                    walk(child, next_labels)

            walk(upper, Counter())
        if not self.principal[self.top] or not self.principal[self.bottom]:
            raise NonPrincipalBoundError("extrema not principal")

    def comparable(self, upper, lower) -> bool:
        stack, seen = [upper], set()
        while stack:
            node = stack.pop()
            if node == lower:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(child for child, _ in self.below[node])
        return False

    def interval_labels(self, upper, lower) -> Counter:
        def search(node, labels):
            if node == lower:
                return labels
            for child, label in self.below[node]:
                found = search(child, labels + Counter([label]))
                if found is not None:
                    return found
            return None

        labels = search(upper, Counter())
        if labels is None:
            raise IncomparableError(f"{lower!r} is not below {upper!r}")
        return labels

    def principal_covers_above(self, node) -> list:
        above = [p for p in self.principal if p != node and self.principal[p] and self.comparable(p, node)]
        return sorted(p for p in above if not any(r != p and self.comparable(p, r) for r in above))

    def chains(self) -> list[tuple[tuple, tuple]]:
        """(nodes, step labels) of every maximal principal chain, sorted."""
        out = []

        def climb(path):
            if path[-1] == self.top:
                steps = tuple(
                    tuple(sorted(self.interval_labels(b, a).elements()))
                    for a, b in zip(path, path[1:])
                )
                out.append((tuple(path), steps))
                return
            for upper in self.principal_covers_above(path[-1]):
                climb(path + [upper])

        climb([self.bottom])
        return sorted(out)


def principal_grid(rows: int, cols: int) -> dict:
    """Lattice document of the product of two chains with every node
    principal: its maximal principal chains are the lattice paths, so there
    are C(rows + cols - 2, rows - 1) of them, each of length rows + cols - 2."""

    def node(i, j):
        return f"g{i}.{j}"

    down = [{"upper": node(i, j), "lower": node(i + 1, j), "label": "a"}
            for i in range(rows - 1) for j in range(cols)]
    across = [{"upper": node(i, j), "lower": node(i, j + 1), "label": "b"}
              for i in range(rows) for j in range(cols - 1)]
    return {
        "simples": ["a", "b"],
        "nodes": [{"id": node(i, j), "principal": True} for i in range(rows) for j in range(cols)],
        "covers": down + across,
        "top": node(0, 0),
        "bottom": node(rows - 1, cols - 1),
    }
