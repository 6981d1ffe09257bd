"""The members-only graded walk, the Betti-element catenary degree and the
member-table scans, against the composition scan, the Prim catenary and the
single-element length walk of ``oracles``."""

import functools
import random
import time
from itertools import product
from math import comb
from operator import add, sub

import pytest

from factorinv import blocks
from factorinv.abelian import make_group
from factorinv.blocks import BlockMonoid, subset_nonzero
from factorinv.errors import InvalidSpecificationError
from factorinv.factorize import PresentedMonoid, _lengths, _zero_sum_vectors
from factorinv.krull import make_krull

import oracles
from conftest import SingleElementWalk, abelian_groups_up_to, refuse_single_element_walks
from oracles import composition_scan, first_member_with_two_lengths, gap_scan, naive_rho2, prim_catenary
from test_acceptance import krull_batch
from test_krull import random_krull_monoids

GROUPS = abelian_groups_up_to(12)
BOUND = 6


def subsets(orders, rng):
    """G, G minus zero (when nonempty) and three seeded random subsets."""
    elements = make_group(orders).elements()
    out = [elements]
    if len(elements) > 1:
        out.append(elements[1:])
    out.extend(rng.sample(elements, rng.randint(1, len(elements))) for _ in range(3))
    return out


def test_groups_include_the_trivial_group():
    assert [] in GROUPS and [3, 4] in GROUPS and [2, 2, 3] in GROUPS


@pytest.mark.parametrize("orders", GROUPS, ids=lambda o: "x".join(map(str, o)) or "1")
def test_graded_elements_and_catenary_match_the_oracles(orders):
    rng = random.Random(f"graded:{orders}")
    G = make_group(orders)
    for subset in subsets(orders, rng):
        P = BlockMonoid(G, subset).presented()
        for bound in (0, 1, BOUND):
            assert list(P.elements(bound)) == composition_scan(P, bound), (subset, bound)
        assert_scans_match_the_oracles(P, subset)


def test_graded_elements_and_catenary_on_the_krull_batch():
    for H in krull_batch():
        assert list(H.elements(BOUND)) == composition_scan(H, BOUND), H.classes
        assert_scans_match_the_oracles(H, H.classes)
        blocks = H.block_monoid().presented()
        assert blocks.catenary(BOUND) == prim_catenary(blocks, BOUND), H.classes


# -- the walk carries each member's code and dividing-atom mask into the member table

WALKED_GROUPS = [[3], [4], [5], [6], [7], [8], [2, 4], [3, 3], [2, 2, 2]]


def assert_walk_and_table_match_the_oracles(P, bound, label):
    """Every vector the walk yields carries its code in base bound + 1 and the
    mask of the atoms dividing it, and the member table's rows come in the
    composition scan's order, with the oracle's length sets."""
    for v, code, mask in _zero_sum_vectors(*P._grading, bound, P._divides):
        assert mask == P._dividing(v), (label, bound, v)
        assert code == sum(x * (bound + 1) ** i for i, x in enumerate(v)), (label, bound, v)
    rows = list(P._members(bound))
    assert [row[0] for row in rows] == composition_scan(P, bound), (label, bound)
    assert {v: frozenset(_lengths(lengths)) for v, _, lengths, _ in rows} == oracles.length_table(P, bound), label


@pytest.mark.parametrize("orders", WALKED_GROUPS, ids=lambda o: "x".join(map(str, o)))
def test_the_walk_hands_the_member_table_its_codes_and_masks(orders):
    rng = random.Random(f"carried walk:{orders}")
    G = make_group(orders)
    elements = G.elements()
    for subset in (elements, elements[1:], rng.sample(elements, rng.randint(1, len(elements)))):
        P = BlockMonoid(G, subset).presented()
        for bound in (0, 1, BOUND):
            assert_walk_and_table_match_the_oracles(P, bound, subset)


def test_the_walk_hands_ungraded_monoids_and_the_krull_batch_their_codes_and_masks():
    rng = random.Random("carried walk, ungraded")
    for orders in ([3], [4], [5], [6], [2, 2], [2, 3]):
        G = make_group(orders)
        graded = BlockMonoid(G, rng.sample(G.elements(), rng.randint(2, len(G.elements())))).presented()
        plain = PresentedMonoid(graded.alphabet, graded.membership, graded.atoms)
        for bound in (0, 1, BOUND):
            assert_walk_and_table_match_the_oracles(plain, bound, graded.atoms)

    def member(v):  # i (0,2) + j (1,1) + k (4,0), not closed under quotients
        x, y = v
        return any((x - j) % 4 == 0 and y >= j and (y - j) % 2 == 0 for j in range(x + 1))

    assert_walk_and_table_match_the_oracles(PresentedMonoid(["a", "b"], member, [(0, 2), (1, 1), (4, 0)]), 10, "")
    # the empty alphabet: one member, the empty vector, of code 0 and no dividing atom
    empty = PresentedMonoid([], lambda v: True, [])
    assert list(_zero_sum_vectors(*empty._grading, 5, empty._divides)) == [((), 0, 0)]
    assert_walk_and_table_match_the_oracles(empty, 5, "empty")
    # letters but no atom: every vector walked divides by no atom, and only 0 is a member
    assert_walk_and_table_match_the_oracles(PresentedMonoid(["a", "b"], lambda v: not any(v), []), 4, "no atom")
    for H in krull_batch():
        assert_walk_and_table_match_the_oracles(H, BOUND, H.classes)


# -- class links: one member per orbit of the prime permutations within classes


def class_links(H):
    """Per prime of a Krull monoid, the prime before it in its class, or None."""
    links = [None] * len(H.primes)
    for primes in H._slot_primes:
        for earlier, later in zip(primes, primes[1:]):
            links[later] = earlier
    return links


def is_representative(H, v):
    """Whether the exponents of ``v`` do not increase along any class, in prime order."""
    return all(v[i] >= v[j] for primes in H._slot_primes for i, j in zip(primes, primes[1:]))


def test_the_linked_walk_and_table_keep_the_representatives_of_the_unlinked_ones():
    shrunk = 0
    for H in [*krull_batch(), *random_krull_monoids(40, 20261021)]:
        for bound in (0, 1, BOUND):
            walk = list(_zero_sum_vectors(*H._grading, bound, H._divides))
            linked = list(_zero_sum_vectors(*H._grading, bound, H._divides, class_links(H)))
            # the same order, codes and masks, member by member
            assert linked == [row for row in walk if is_representative(H, row[0])], (H.classes, bound)
            shrunk += len(linked) < len(walk)
            rows = list(H._members(bound))
            lengths_of = {v: lengths for v, _, lengths, _ in rows}
            linked_rows = list(H._members(bound, H._slot))
            assert [row[:3] for row in linked_rows] == [row[:3] for row in rows if is_representative(H, row[0])]
            for v, mask, _, below in linked_rows:  # each quotient's row carries the lengths of v - a
                assert sum(below) == mask
                for bit, (_, lengths) in below.items():
                    assert lengths == lengths_of[tuple(map(sub, v, H.atoms[bit.bit_length() - 1]))], (H.classes, v)
    assert shrunk >= 40


def test_eight_primes_of_one_class_leave_one_member_per_partition():
    primes = [f"p{i}" for i in range(8)]
    H = make_krull(make_group([1]), primes, {p: (0,) for p in primes})
    assert len(list(H._members(5))) == comb(13, 8) == 1287
    # the partitions of 0, ..., 5 into at most eight parts, by (norm, lex) order
    partitions = [v for v in product(range(6), repeat=8) if sum(v) <= 5 and list(v) == sorted(v, reverse=True)]
    assert [v for v, *_ in H._members(5, H._slot)] == sorted(partitions, key=lambda v: (sum(v), v))
    assert len(partitions) == 19


def test_the_walk_reads_a_count_past_the_largest_atom_entry_as_that_entry():
    # 1^3 2^3, of norm 6, is the first member over C3 minus 0 with two lengths: the walk
    # builds nothing whose size grows with the bound, so a huge bound costs nothing more
    P = full_block_monoid([3])
    started = time.perf_counter()
    assert P.half_factorial(10**9) == (False, ((3, 3), (2, 3)))
    assert time.perf_counter() - started < 1


def assert_scans_match_the_oracles(P, label):
    """The member-table scans at BOUND against the oracles."""
    assert P.catenary(BOUND) == prim_catenary(P, BOUND), label
    assert P.delta(BOUND) == gap_scan(P, BOUND), label
    assert P.half_factorial(BOUND) == first_member_with_two_lengths(P, BOUND), label


def test_ungraded_monoid_scans_compositions_and_agrees():
    G = make_group([2, 3])
    B = BlockMonoid(G, subset_nonzero(G))
    graded = B.presented()
    tested = []
    plain = PresentedMonoid(graded.alphabet, lambda v: tested.append(v) or graded.membership(v), graded.atoms)
    tested.clear()
    assert list(plain.elements(7)) == list(graded.elements(7)) == composition_scan(graded, 7)
    # every composition of norm <= 7 over 5 letters, each tested once
    assert len(tested) == len(set(tested)) == sum(comb(n + 4, 4) for n in range(8))
    assert plain.catenary(7) == graded.catenary(7) == prim_catenary(graded, 7)


def test_scans_of_a_monoid_not_closed_under_quotients():
    def member(v):  # i (0,2) + j (1,1) + k (4,0)
        x, y = v
        return any((x - j) % 4 == 0 and y >= j and (y - j) % 2 == 0 for j in range(x + 1))

    P = PresentedMonoid(["a", "b"], member, [(0, 2), (1, 1), (4, 0)])
    # (0,2) lies below (1,1)^2 = (2,2) as a vector, but (2,0) is no member:
    # the member table leaves it out of the atoms dividing (2,2)
    assert member((2, 2)) and not member((2, 0))
    assert P.catenary(10) == prim_catenary(P, 10) == 4
    assert P.delta(10) == gap_scan(P, 10) == (1,)
    assert P.half_factorial(10) == first_member_with_two_lengths(P, 10) == (False, ((4, 4), (3, 4)))


def test_grading_needs_one_class_per_letter():
    G = make_group([2])
    with pytest.raises(InvalidSpecificationError):
        PresentedMonoid(["a"], lambda v: v[0] % 2 == 0, [(2,)], grading=(G, [(1,), (1,)]))


def test_graded_elements_test_no_composition(monkeypatch):
    G = make_group([2, 2, 2])
    expected = composition_scan(BlockMonoid(G, subset_nonzero(G)).presented(), 8)
    calls = {True: 0, False: 0}
    zero_sum_test = blocks._zero_sum_test

    def counting(group, letters):
        predicate = zero_sum_test(group, letters)

        def counted(v):
            result = predicate(v)
            calls[result] += 1
            return result

        return counted

    monkeypatch.setattr(blocks, "_zero_sum_test", counting)
    P = BlockMonoid(G, subset_nonzero(G)).presented()
    # construction tests the atoms only, each of them a member
    assert calls == {True: len(P.atoms), False: 0}
    calls[True] = 0
    assert list(P.elements(8)) == expected
    assert calls == {True: 0, False: 0}


def test_catenary_lists_no_factorizations(monkeypatch):
    G = make_group([2, 4])
    P = BlockMonoid(G, subset_nonzero(G)).presented()
    H = make_krull(G, ["p", "q", "r"], {"p": (0, 1), "q": (1, 3), "r": (1, 2)})
    K = make_krull(G, ["p", "q", "r"], {"p": (0, 1), "q": (0, 1), "r": (0, 3)})
    # the scans read the member table or the atom pairs: no factorization is
    # listed, and no length set is walked but those of atom pair products
    refuse_single_element_walks(monkeypatch, lambda: 10)
    assert P.catenary(10) == 4
    assert P.delta(10) == (1, 2) and not P.half_factorial(10)[0]
    assert H.verify_transfer(BOUND).ok
    # the fiber catenary reads the atom pairs: (q·r)(p·q^3) = (p·r)(q^4), one fiber
    assert H.fiber_catenary(BOUND) == 0 and K.fiber_catenary(BOUND) == 2
    # the patch is live: one element's catenary degree and length set take the walks
    with pytest.raises(SingleElementWalk):
        P.catenary_of(P.atoms[0])
    with pytest.raises(SingleElementWalk):
        P.length_set(P.atoms[0])


def test_catenary_below_the_first_betti_element_is_zero():
    G = make_group([3])
    P = BlockMonoid(G, subset_nonzero(G)).presented()
    # the first Betti element is 1^3 2^3, of 1-norm 6
    assert [P.catenary(bound) for bound in range(8)] == [0] * 6 + [3, 3]


# -- the length cap: rho2, catenary and delta stop once it settles the answer

CAPPED_GROUPS = [[3], [4], [5], [6], [7], [8], [2, 4], [3, 3], [2, 2, 2]]


def full_block_monoid(orders):
    G = make_group(orders)
    return BlockMonoid(G, subset_nonzero(G)).presented()


@pytest.fixture
def memoized_oracles(monkeypatch):
    """The oracles with their tables and walks memoized, so that asking them
    at every bound, from the top down, costs about one table at the top
    bound.  The values are unchanged: the members of norm <= b, in (norm, lex)
    order, are a prefix of the members up to a larger bound, and each row of
    a table comes from smaller members only."""
    monkeypatch.setattr(oracles, "naive_factorizations", functools.lru_cache(maxsize=None)(oracles.naive_factorizations))
    monkeypatch.setattr(oracles, "prim_bottleneck", functools.lru_cache(maxsize=None)(oracles.prim_bottleneck))

    def prefix(table_of):
        made = {}  # keyed by the monoid itself, which the key keeps alive: an id can be reused once freed

        def table(monoid, bound):
            top, rows = made.get(monoid, (-1, {}))
            if bound > top:
                top, rows = made[monoid] = bound, table_of(monoid, bound)
            return {v: row for v, row in rows.items() if sum(v) <= bound}

        return table

    for name in ("length_table", "factorization_table"):
        monkeypatch.setattr(oracles, name, prefix(getattr(oracles, name)))


def assert_capped_scans_match_the_oracles(P, bounds, prim_bounds=None):
    """rho2, delta and catenary at each bound, from the top down, against the
    oracles.  The Prim oracle runs at ``prim_bounds`` (default: every bound);
    at the others the catenary degree is checked against the same scan with
    the length cap lifted."""
    for bound in sorted(bounds, reverse=True):
        label = (P.atoms, bound)
        assert P.rho2(bound) == naive_rho2(P.atoms, bound), label
        assert P.delta(bound) == gap_scan(P, bound), label
        catenary = P.catenary(bound)
        if prim_bounds is None or bound in prim_bounds:
            assert catenary == prim_catenary(P, bound), label
        else:
            P._length_cap = lambda size_bound: float("inf")
            assert catenary == P.catenary(bound), label
            del P._length_cap


@pytest.mark.parametrize("orders", CAPPED_GROUPS, ids=lambda o: "x".join(map(str, o)))
def test_capped_scans_match_the_oracles_at_every_bound_to_twice_davenport(orders, memoized_oracles):
    P = full_block_monoid(orders)
    davenport = max(map(sum, P.atoms))
    # the Prim oracle lists every factorization: over C8 it takes about 8 s at
    # bound 15 and 60 s at 17 on a 2-vCPU host, so above 13 the uncapped scan
    # stands in for it
    prim_bounds = range(2, 14) if orders == [8] else None
    assert_capped_scans_match_the_oracles(P, range(2, 2 * davenport + 2), prim_bounds)
    if orders == [8]:  # c(C_n) = n, reached at 1^n (n-1)^n, of 1-norm 2n
        assert [P.catenary(bound) for bound in (14, 15, 16, 17)] == [6, 7, 8, 8]


def test_capped_scans_match_the_oracles_with_an_atom_of_norm_one(memoized_oracles):
    rng = random.Random("class-0 prime")
    for _ in range(12):
        G = make_group(rng.choice([[2], [3], [4], [2, 2], [5], [6]]))
        primes = [f"p{i}" for i in range(rng.randint(2, 5))]
        classes = {p: rng.choice(G.elements()) for p in primes}
        classes["p0"] = G.zero  # p0 is an atom of norm 1, a prime: it sets no cap
        H = make_krull(G, primes, classes)
        assert H._length_cap(8) < 8 or all(sum(a) == 1 for a in H.atoms)
        assert_capped_scans_match_the_oracles(H, range(2, 9))


def test_capped_scans_match_the_oracles_on_ungraded_monoids(memoized_oracles):
    rng = random.Random("ungraded capped scans")
    for orders in ([3], [4], [2, 2], [2, 3]):
        G = make_group(orders)
        graded = BlockMonoid(G, rng.sample(G.elements(), rng.randint(2, len(G.elements())))).presented()
        plain = PresentedMonoid(graded.alphabet, graded.membership, graded.atoms)
        assert_capped_scans_match_the_oracles(plain, range(2, 10))

    def member(v):  # i (0,2) + j (1,1) + k (4,0), not closed under quotients
        x, y = v
        return any((x - j) % 4 == 0 and y >= j and (y - j) % 2 == 0 for j in range(x + 1))

    assert_capped_scans_match_the_oracles(PresentedMonoid(["a", "b"], member, [(0, 2), (1, 1), (4, 0)]), range(2, 13))


def test_rho2_stops_once_the_pair_totals_cannot_beat_the_best():
    P = full_block_monoid([8])
    walked, quotients = [], P._quotients
    P._quotients = lambda v, start: walked.append(v) or quotients(v, start)
    # the pairs of total 16 come first, and 1^8 7^8 has length 8 = 16 // 2, the
    # cap, so the walk stops there after 29 vectors; a walk over every pair walks 1,896
    assert P.rho2(16) == 8 and len(walked) <= 40


@pytest.mark.parametrize("orders, scan, bound, value, table", [
    ([3, 3], "catenary", 7, 3, 715),
    ([2, 4], "delta", 8, (1, 2), 819),
])
def test_catenary_and_delta_stop_at_the_length_cap(orders, scan, bound, value, table):
    P = full_block_monoid(orders)
    rows, members = [], P._members
    P._members = lambda bound: (rows.append(row) or row for row in members(bound))
    assert getattr(P, scan)(bound) == value
    assert len(rows) < table == sum(1 for _ in members(bound))


def test_delta_tests_the_cap_without_building_it():
    P = full_block_monoid([2, 4])
    # length sets {0}, {2, 4} and {2, 3}
    P._members = lambda bound: iter([((), 0, 0b1, {}), ((), 0, 0b10100, {}), ((), 0, 0b1100, {})])
    started = time.perf_counter()
    assert P.delta(10**20) == (1, 2)
    assert time.perf_counter() - started < 0.5


# -- the pair pass: catenary and delta settled by an atom pair product at the length cap


class MemberTable(Exception):
    """Raised by a patched member table."""


@pytest.mark.parametrize("orders", [[n] for n in range(3, 13)] + [[2, 2, 2], [2, 2, 2, 2]],
                         ids=lambda o: "x".join(map(str, o)))
def test_a_pair_product_settles_catenary_and_delta_without_the_member_table(orders):
    G = make_group(orders)
    # over G the atom 0 is a prime, which sets no cap: the cap is the same as over G minus 0
    for P in (full_block_monoid(orders), BlockMonoid(G, G.elements()).presented()):
        davenport = max(map(sum, P.atoms))
        # C2^4 at bound 10, as in criterion 12, and every other group at 2 D(G):
        # the cap is D(G), reached by U (-U) for an atom U of norm D(G)
        bound = 10 if orders == [2, 2, 2, 2] else 2 * davenport
        cap = bound // 2
        P._members = refuse_the_member_table
        assert P.catenary(bound) == cap
        assert P.delta(bound) == tuple(range(1, cap - 1))
        with pytest.raises(MemberTable):  # the patch is live
            P.half_factorial(bound)


def refuse_the_member_table(bound):  # a generator, as the table is: it raises once read
    raise MemberTable(bound)
    yield


@pytest.mark.parametrize("orders, catenary, delta", [([3, 3], 3, (1,)), ([2, 4], 4, (1, 2))])
def test_no_pair_settles_where_the_catenary_degree_is_below_the_cap(orders, catenary, delta):
    P = full_block_monoid(orders)
    bound = 2 * max(map(sum, P.atoms))
    rows, members = [], P._members
    P._members = lambda bound: (rows.append(row) or row for row in members(bound))
    assert P.catenary(bound) == catenary and rows
    rows.clear()
    assert P.delta(bound) == delta and rows


def test_a_pair_settles_below_twice_the_largest_atom_norm_even_with_a_prime():
    # C7 at 13 is below 2 D(C7) = 14: an odd pair total 13 = 2·6 + 1 settles it, with one norm-3 atom
    # in its length-6 factorization, and the sift lets the pair through
    P = full_block_monoid([7])
    G = make_group([5])
    with_zero = BlockMonoid(G, G.elements()).presented()  # 0 is an atom of norm 1, a prime
    assert with_zero.delta(10) == (1, 2, 3)
    P._members = with_zero._members = refuse_the_member_table
    assert P.catenary(13) == 6 and P.delta(13) == (1, 2, 3, 4)
    # the prime sets no cap: 1^5 4^5 has L = {2, 5} and settles catenary at the cap 10 // 2
    assert with_zero.catenary(10) == 5
    with pytest.raises(MemberTable):  # the patch is live
        P.half_factorial(13)


def test_a_pair_product_with_the_single_length_two_settles_nothing():
    G = make_group([3])
    P = BlockMonoid(G, [(1,)]).presented()  # one atom, 1^3: every member factors uniquely
    assert [(P.catenary(bound), P.delta(bound)) for bound in (6, 7, 8)] == [(0, ())] * 3


def test_the_pair_pass_reads_no_pair_without_a_finite_cap(monkeypatch):
    P = full_block_monoid([5])
    P._length_cap = lambda size_bound: float("inf")  # 1 << cap would raise TypeError
    refuse_single_element_walks(monkeypatch)
    assert P.catenary(10) == 5 and P.delta(10) == (1, 2, 3)


# -- an atom of norm 1 is a prime: it adds one to every length of a member holding it


def test_rho2_of_a_pair_holding_a_prime_is_two():
    # primes of classes 0 and 1 over C3: the atoms are p, q^3, and every pair product has L = {2},
    # though the pair's own cap (|a| + |b|) // 3 is 0 or 1 below 6
    H = make_krull(make_group([3]), ["p", "q"], {"p": (0,), "q": (1,)})
    assert [H.rho2(bound) for bound in range(2, 8)] == [2] * 6


@pytest.mark.parametrize("orders", CAPPED_GROUPS + [[2, 2]], ids=lambda o: "x".join(map(str, o)))
def test_the_atom_zero_changes_no_catenary_degree_nor_gap(orders):
    # B(G) = F({0}) x B(G minus 0): 0 adds one to every length, so catenary and delta agree over
    # the two subsets, and rho2 over G adds the pair 0·0 of L = {2}
    G = make_group(orders)
    whole, nonzero = BlockMonoid(G, G.elements()).presented(), full_block_monoid(orders)
    davenport = max(map(sum, nonzero.atoms))
    top = 12 if orders in ([8], [2, 4], [3, 3]) else 2 * davenport + 1
    for bound in range(2, top + 1):
        assert whole.catenary(bound) == nonzero.catenary(bound), bound
        assert whole.delta(bound) == nonzero.delta(bound), bound
        assert whole.rho2(bound) == max(nonzero.rho2(bound), 2), bound


# -- the cap sift: a pair at the cap whose class defects do not cancel is not walked


def assert_the_sift_is_sound(P, bound):
    """Every pair at the cap that the sift of the pair pass drops has no factorization of the cap's length."""
    cap, reaches = P._length_cap(bound), P._cap_test(bound)
    for a, b in P._atom_pairs(bound):
        if (sum(a) + sum(b)) // P._least_norm == cap and not reaches(a, b):
            assert cap not in oracles.naive_length_set(P.atoms, tuple(map(add, a, b))), (P.atoms, bound, a, b)


@pytest.mark.parametrize("orders", CAPPED_GROUPS + [[2, 2]], ids=lambda o: "x".join(map(str, o)))
def test_the_cap_sift_drops_only_pairs_without_the_cap_length(orders, memoized_oracles):
    G = make_group(orders)
    for P in (full_block_monoid(orders), BlockMonoid(G, G.elements()).presented()):
        assert P._sifts
        davenport = max(map(sum, P.atoms))
        for bound in range(2 * davenport + 1, 3, -1):
            assert_the_sift_is_sound(P, bound)
            # the Prim oracle lists every factorization, too slowly over C8 above 13: there the
            # capped-scan test checks G minus 0 against the scan with the length cap lifted
            if orders != [8] or bound <= 13:
                assert P.catenary(bound) == prim_catenary(P, bound), (P.atoms, bound)
                assert P.delta(bound) == gap_scan(P, bound), (P.atoms, bound)


def test_the_cap_sift_is_sound_on_the_krull_batch(memoized_oracles):
    sifted = [H for H in krull_batch() if H._sifts]
    assert len(sifted) >= 20
    for H in sifted:
        for bound in range(6, 10):
            assert_the_sift_is_sound(H, bound)


def test_the_cap_sift_walks_few_of_the_pairs_at_the_cap():
    P = full_block_monoid([3, 3])
    walked, length_set = [], P._length_set
    P._length_set = lambda v, memo: walked.append(v) or length_set(v, memo)
    assert P.catenary(8) == 3  # c(C3²) = 3 is below the cap 4: no pair settles, and the table answers
    assert sum(1 for a, b in P._atom_pairs(8) if sum(a) + sum(b) == 8) == 684
    assert 0 < len(walked) <= 12


def test_the_cap_sift_needs_a_grading_and_atoms_of_norm_two():
    G = make_group([3])
    plain = full_block_monoid([3])
    assert plain._sifts and not PresentedMonoid(plain.alphabet, plain.membership, plain.atoms)._sifts
    # primes of classes 0 and 1 over C3: the least non-prime atom norm is 3
    assert not make_krull(G, ["p", "q"], {"p": (0,), "q": (1,)})._sifts
