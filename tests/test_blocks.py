import gc
import random
import weakref
from collections import Counter
from math import factorial, prod

import pytest

from factorinv.abelian import make_group
from factorinv.blocks import (
    BlockMonoid,
    Sequence,
    davenport,
    minimal_zero_sum_sequences,
    subset_from_doc,
    subset_nonzero,
)
from factorinv.errors import InvalidElementError, InvalidSpecificationError
from factorinv.krull import make_krull

from conftest import abelian_groups_up_to
from oracles import (
    davenport_brute,
    is_minimal_zero_sum,
    minimal_zero_sum_brute,
    naive_length_set,
    zero_sum_multisets_brute,
)


def seq_counter(seq: Sequence) -> Counter:
    return Counter(dict(seq.counts))


def test_sum_empty_is_zero():
    G = make_group([5])
    assert Sequence.empty(G).sum() == G.zero


def test_sum_examples():
    G = make_group([3])
    s = Sequence.from_elements(G, [(1,), (1,), (1,)])
    assert s.sum() == (0,)
    K = make_group([2, 2])
    s = Sequence.from_elements(K, [(1, 0), (0, 1), (1, 1)])
    assert s.sum() == (0, 0)


def test_sum_is_homomorphism():
    G = make_group([4])
    a = Sequence.from_elements(G, [(1,), (2,)])
    b = Sequence.from_elements(G, [(3,)])
    assert (a * b).sum() == G.add(a.sum(), b.sum())


def test_sequence_support_validation():
    G = make_group([3])
    B = BlockMonoid(G, [(1,), (2,)])
    with pytest.raises(InvalidElementError):
        B.sequence([(0,)])


def test_vector_of_rejects_a_sequence_over_another_group():
    B = BlockMonoid(make_group([2]))
    with pytest.raises(InvalidElementError, match="different groups"):
        B.vector_of(Sequence.from_counts(make_group([4]), {(1,): 3}))


def test_from_counts_adds_the_exponents_of_a_repeated_element():
    G = make_group([3])
    assert Sequence.from_counts(G, [((1,), 1), ((1,), 2)]) == Sequence(G, (((1,), 3),))
    assert str(Sequence.from_counts(G, [((2,), 1), ((1,), 1), ((2,), 2)])) == "1·2^3"
    assert Sequence.from_counts(G, {(2,): 2, (1,): 0}) == Sequence(G, (((2,), 2),))


def test_a_list_element_is_taken_as_its_tuple():
    G = make_group([3])
    assert Sequence.from_counts(G, [([1], 1), ((1,), 2)]) == Sequence(G, (((1,), 3),))
    assert Sequence.from_elements(G, [[2], (2,)]) == Sequence(G, (((2,), 2),))


@pytest.mark.parametrize("build", [
    lambda G: Sequence.from_counts(G, [(1, 1)]),
    lambda G: Sequence.from_counts(G, {None: 2}),
    lambda G: Sequence.from_elements(G, [1]),
    lambda G: BlockMonoid(G).sequence([(1,), 2]),
], ids=["counts-int", "counts-none", "elements-int", "block-monoid-int"])
def test_an_element_that_is_no_list_or_tuple_is_refused(build):
    with pytest.raises(InvalidElementError, match="^an element is a list or tuple of residues, got "):
        build(make_group([3]))


def test_an_unnormalized_element_is_refused_by_both_constructors():
    G = make_group([3])
    with pytest.raises(InvalidElementError, match=r"^\(4,\) is not a normalized element of C3$"):
        Sequence.from_counts(G, [([4], 1)])
    with pytest.raises(InvalidElementError, match=r"^\(1, 0\) is not a normalized element of C3$"):
        Sequence.from_elements(G, [[1, 0]])


def test_product_adds_exponents_and_refuses_another_group():
    G = make_group([3])
    a = Sequence.from_counts(G, {(1,): 2, (2,): 1})
    assert a * Sequence.from_elements(G, [(2,), (0,)]) == Sequence(G, (((0,), 1), ((1,), 2), ((2,), 2)))
    assert a * Sequence.empty(G) == a
    with pytest.raises(InvalidElementError, match="^sequences live over different groups$"):
        a * Sequence.empty(make_group([2]))


def test_divides_and_str_of_the_empty_sequence():
    G, H = make_group([3]), make_group([2])
    one = Sequence.from_elements(G, [(1,)])
    assert str(Sequence.empty(G)) == "empty"
    assert Sequence.empty(G).divides(one) and one.divides(one * one)
    assert not (one * one).divides(one)
    assert not Sequence.empty(H).divides(one)


def test_sequence_of_and_zero_sum_up_to_refuse_bad_input():
    B = BlockMonoid(make_group([3]), [(1,), (2,)])
    with pytest.raises(InvalidElementError, match=r"^vector arity 3 != \|G0\| = 2$"):
        B.sequence_of((1, 1, 1))
    with pytest.raises(InvalidSpecificationError, match="^maxlen must be >= 0$"):
        B.zero_sum_up_to(-1)


def test_atoms_zero_alone():
    G = make_group([4])
    B = BlockMonoid(G, [(0,)])
    atoms = B.atoms()
    assert len(atoms) == 1
    assert seq_counter(atoms[0]) == Counter({(0,): 1})


def test_atoms_c2():
    G = make_group([2])
    atoms = BlockMonoid(G, [(1,)]).atoms()
    assert [seq_counter(a) for a in atoms] == [Counter({(1,): 2})]


@pytest.mark.parametrize("r", range(1, 6))
def test_atom_count_over_elementary_2_groups_from_the_binary_matroid(r):
    """Over C2^r the atoms on the nonzero elements are the 2^r - 1 squares g^2
    and the circuits of the binary matroid of the nonzero vectors: k distinct
    vectors of sum zero, any k - 1 of them independent.  Taking k - 1
    independent vectors in order and closing with their sum counts each
    circuit k! times."""
    q = 2**r
    circuits = sum(prod(q - 2**i for i in range(k - 1)) // factorial(k) for k in range(3, r + 2))
    G = make_group([2] * r)
    assert len(BlockMonoid(G, subset_nonzero(G)).atoms()) == q - 1 + circuits == [1, 4, 21, 323, 20367][r - 1]


def test_atoms_c3_nonzero():
    G = make_group([3])
    atoms = BlockMonoid(G, [(1,), (2,)]).atoms()
    expected = [
        Counter({(1,): 1, (2,): 1}),
        Counter({(1,): 3}),
        Counter({(2,): 3}),
    ]
    assert sorted(map(seq_counter, atoms), key=str) == sorted(expected, key=str)


def test_atoms_empty_subset_rejected():
    G = make_group([3])
    with pytest.raises(InvalidSpecificationError):
        BlockMonoid(G, [])


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2], [5], [6], [3, 3]])
def test_atoms_match_brute_force(orders):
    G = make_group(orders)
    mine = {tuple(sorted(seq_counter(a).items())) for a in minimal_zero_sum_sequences(G)}
    brute = {tuple(sorted(c.items())) for c in minimal_zero_sum_brute(G)}
    assert mine == brute


@pytest.mark.parametrize("orders", [[3], [4], [2, 2], [5]])
def test_every_atom_is_minimal(orders):
    G = make_group(orders)
    for atom in minimal_zero_sum_sequences(G):
        assert is_minimal_zero_sum(G, list(atom.elements()))


def test_atoms_match_brute_force_on_random_subsets():
    # the closing rule depends on the subset: -sum must lie in it, at a slot
    # no smaller than the word's last one
    rng = random.Random(20261018)
    for orders in abelian_groups_up_to(8):
        G = make_group(orders)
        elements = list(G.elements())
        for _ in range(12):
            subset = rng.sample(elements, rng.randint(1, len(elements)))
            B = BlockMonoid(G, subset)
            mine = [seq_counter(a) for a in B.atoms()]
            brute = {tuple(sorted(c.items())) for c in minimal_zero_sum_brute(G, subset)}
            assert {tuple(sorted(c.items())) for c in mine} == brute, (orders, subset)
            assert len(mine) == len(brute)
            assert {B.vector_of(a) for a in B.atoms()} == set(B.presented().atoms)


def test_no_atom_divides_another():
    G = make_group([3, 3])
    atoms = minimal_zero_sum_sequences(G)
    for a in atoms:
        for b in atoms:
            if a != b:
                assert not a.divides(b)


def test_atom_lengths_bounded_by_group_order():
    for orders in ([4], [2, 2], [3, 3]):
        G = make_group(orders)
        assert all(a.length <= G.cardinality for a in minimal_zero_sum_sequences(G))


def test_atoms_closed_under_negation():
    # g -> -g fixes symmetric subsets setwise and permutes the atom set
    G = make_group([5])
    B = BlockMonoid(G, subset_nonzero(G))
    atoms = {tuple(sorted(seq_counter(a).items())) for a in B.atoms()}
    negated = set()
    for a in B.atoms():
        neg = Counter({G.neg(g): m for g, m in seq_counter(a).items()})
        negated.add(tuple(sorted(neg.items())))
    assert atoms == negated


def test_davenport_trivial():
    assert davenport(make_group([])) == 1
    assert davenport(make_group([1])) == 1


def test_davenport_small_against_oracle():
    assert davenport(make_group([2])) == davenport_brute(make_group([2])) == 2
    assert davenport(make_group([3, 3])) == davenport_brute(make_group([3, 3])) == 5


def test_davenport_cyclic_is_order():
    for n in range(1, 13):
        assert davenport(make_group([n])) == n


def test_davenport_at_least_exponent():
    for orders in abelian_groups_up_to(12):
        G = make_group(orders)
        assert davenport(G) >= G.exponent


def test_davenport_equals_max_atom_length():
    for orders in ([2], [3], [4], [2, 2], [5], [2, 4], [3, 3]):
        G = make_group(orders)
        assert davenport(G) == max(a.length for a in minimal_zero_sum_sequences(G))


def test_zero_sum_up_to_c2():
    G = make_group([2])
    B = BlockMonoid(G, [(1,)])
    seqs = B.zero_sum_up_to(3)
    assert [seq_counter(s) for s in seqs] == [Counter(), Counter({(1,): 2})]


def test_zero_sum_up_to_c3_len2():
    G = make_group([3])
    B = BlockMonoid(G, [(1,), (2,)])
    seqs = B.zero_sum_up_to(2)
    assert [seq_counter(s) for s in seqs] == [Counter(), Counter({(1,): 1, (2,): 1})]


def test_zero_sum_up_to_c3_len3():
    G = make_group([3])
    B = BlockMonoid(G, [(1,), (2,)])
    seqs = B.zero_sum_up_to(3)
    assert [seq_counter(s) for s in seqs] == [
        Counter(),
        Counter({(1,): 1, (2,): 1}),
        Counter({(1,): 3}),
        Counter({(2,): 3}),
    ]


def test_zero_sum_up_to_matches_brute_multisets():
    for orders, maxlen in ([[4], 6], [[2, 2], 5], [[3, 3], 4]):
        G = make_group(orders)
        subset = subset_nonzero(G)
        B = BlockMonoid(G, subset)
        mine = [seq_counter(s) for s in B.zero_sum_up_to(maxlen)]
        brute = zero_sum_multisets_brute(G, subset, maxlen)
        assert len(mine) == len(brute)
        key = lambda c: tuple(sorted(c.items()))
        assert sorted(map(key, mine)) == sorted(map(key, brute))
        # the brute force lists by length, then by nondecreasing element word
        assert mine == brute


def test_zero_sum_up_to_deterministic_no_duplicates():
    G = make_group([3, 3])
    B = BlockMonoid(G, subset_nonzero(G))
    seqs = B.zero_sum_up_to(4)
    assert seqs == B.zero_sum_up_to(4)
    keys = [tuple(sorted(seq_counter(s).items())) for s in seqs]
    assert len(keys) == len(set(keys))


def test_subset_from_doc():
    G = make_group([3])
    assert subset_from_doc(G, "nonzero") == ((1,), (2,))
    assert subset_from_doc(G, "all") == ((0,), (1,), (2,))
    assert subset_from_doc(G, [[1], [1], [2]]) == ((1,), (2,))
    with pytest.raises(InvalidSpecificationError):
        subset_from_doc(G, "sometimes")


def test_atomicity_up_to_bound():
    # every nonempty zero-sum sequence factors into atoms
    for orders, bound in ([[3], 9], [[2, 2], 8], [[3, 3], 6]):
        G = make_group(orders)
        B = BlockMonoid(G, subset_nonzero(G))
        P = B.presented()
        for seq in B.zero_sum_up_to(bound):
            if seq.length == 0:
                continue
            facs = P.factorizations(B.vector_of(seq))
            assert facs, f"no factorization for {seq}"


def test_dropped_monoid_is_freed_without_the_cycle_collector():
    monoid = BlockMonoid(make_group([2, 3]))
    presented = monoid.presented()
    presented.catenary(6)
    monoid.zero_sum_up_to(3)
    dead = weakref.ref(monoid)
    gc.disable()
    try:
        del monoid, presented
        assert dead() is None
    finally:
        gc.enable()


def test_dropped_krull_monoid_is_freed_without_the_cycle_collector():
    monoid = make_krull(make_group([3]), ["p", "q", "r"], {"p": (1,), "q": (1,), "r": (2,)})
    assert monoid.verify_transfer(4).ok
    dead = weakref.ref(monoid)
    gc.disable()
    try:
        del monoid
        assert dead() is None
    finally:
        gc.enable()


def test_one_atom_of_length_1200():
    atoms = BlockMonoid(make_group([1200]), [(1,)]).atoms()
    assert [(a.counts, a.length) for a in atoms] == [((((1,), 1200),), 1200)]


def test_zero_sum_up_to_deep_over_the_trivial_group():
    seqs = BlockMonoid(make_group([1])).zero_sum_up_to(1100)
    assert [s.length for s in seqs] == list(range(1101))


def test_elements_of_a_krull_monoid_with_1100_primes():
    primes = [f"p{i}" for i in range(1100)]
    monoid = make_krull(make_group([1]), primes, {p: (0,) for p in primes})
    members = list(monoid.elements(1))
    assert len(members) == 1101
    assert members[0] == (0,) * 1100 and members[1] == (0,) * 1099 + (1,)


def test_from_counts_rejects_bool_and_fractional_exponents():
    G = make_group([3])
    assert Sequence.from_counts(G, {(1,): 2}).length == 2
    for bad in (True, 2.0):
        with pytest.raises(InvalidElementError):
            Sequence.from_counts(G, {(1,): bad})


@pytest.mark.parametrize("n", [6, 7, 8])
def test_largest_gap_of_a_cyclic_group_is_n_minus_two(n):
    # max Δ(C_n) = n - 2, attained by g^n (-g)^n, of 1-norm 2n
    G = make_group([n])
    assert max(BlockMonoid(G, subset_nonzero(G)).presented().delta(2 * n)) == n - 2


def test_delta_of_small_groups_against_theorems():
    G = make_group([2, 2, 2])
    assert BlockMonoid(G, subset_nonzero(G)).presented().delta(8) == (1, 2)
    # an interval [1, m] with max{exp(G) - 2, r(G) - 1} <= m <= D(G) - 2
    for orders, low, high in (([2, 4], 2, 3), ([3, 3], 1, 3)):
        G = make_group(orders)
        delta = BlockMonoid(G, subset_nonzero(G)).presented().delta(10)
        assert delta == tuple(range(1, len(delta) + 1)) and low <= len(delta) <= high, orders


def test_a_gap_of_three_over_c2_c2_c4():
    # a^2 b^2 c^2 d^2 e^2 = (a^2)(b^2)(d^2)(ce)^2 is also a product of two
    # atoms, so 3 lies in Δ(C2^2 x C4) though max{exp(G) - 2, r(G) - 1} = 2
    G = make_group([2, 2, 4])
    B = BlockMonoid(G, [(0, 1, 2), (1, 0, 2), (1, 1, 1), (1, 1, 2), (1, 1, 3)])
    P = B.presented()
    v = (2, 2, 2, 2, 2)
    assert naive_length_set(P.atoms, v) == {2, 5}
    assert P.length_set(v) == (2, 5) and 3 in P.delta(10)
