"""The members-only graded walk, the Betti-element catenary degree and the
member-table scans, against the composition scan, the Prim catenary and the
single-element length walk of ``oracles``."""

import random
from math import comb

import pytest

from factorinv import blocks
from factorinv.abelian import make_group
from factorinv.blocks import BlockMonoid, subset_nonzero
from factorinv.errors import InvalidSpecificationError
from factorinv.factorize import PresentedMonoid
from factorinv.krull import make_krull

from conftest import abelian_groups_up_to
from oracles import composition_scan, first_member_with_two_lengths, gap_scan, prim_catenary
from test_acceptance import krull_batch

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


def test_catenary_lists_no_factorizations():
    G = make_group([2, 4])
    P = BlockMonoid(G, subset_nonzero(G)).presented()
    assert P.catenary(10) == 4
    assert P.delta(10) == (1, 2) and not P.half_factorial(10)[0]
    H = make_krull(G, ["p", "q", "r"], {"p": (0, 1), "q": (1, 3), "r": (1, 2)})
    assert H.verify_transfer(BOUND).ok
    # the fiber catenary reads the atom pairs: (q·r)(p·q^3) = (p·r)(q^4), one fiber
    K = make_krull(G, ["p", "q", "r"], {"p": (0, 1), "q": (0, 1), "r": (0, 3)})
    assert H.fiber_catenary(BOUND) == 0 and K.fiber_catenary(BOUND) == 2
    for monoid in (P, H, H.block_monoid().presented(), K):
        # the scans read the member table or the atom pairs: no factorization
        # is listed, and no length set is memoized beyond the seeded zero vector
        assert monoid._fact_cache == {}
        assert monoid._lenset_cache == {(0,) * len(monoid.alphabet): 1}
    assert P.catenary_of(P.atoms[0]) == 0
    assert P._fact_cache


def test_catenary_below_the_first_betti_element_is_zero():
    G = make_group([3])
    P = BlockMonoid(G, subset_nonzero(G)).presented()
    # the first Betti element is 1^3 2^3, of 1-norm 6
    assert [P.catenary(bound) for bound in range(8)] == [0] * 6 + [3, 3]
