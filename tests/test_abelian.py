import itertools
import random

import pytest

from factorinv.abelian import FinAbGroup, _tables, _translate, make_group
from factorinv.errors import InvalidElementError, InvalidSpecificationError
from factorinv.factorize import PresentedMonoid
from factorinv.krull import make_krull

from conftest import abelian_groups_up_to
from oracles import translate_bit_by_bit


def test_make_group_trivial():
    G = make_group([])
    assert G.cardinality == 1
    assert G.elements() == ((),)
    assert G.zero == ()
    assert G.rank == 0 and str(G) == "C1"


def test_rank_and_name_of_a_product():
    G = make_group([2, 6])
    assert G.rank == 2 and str(G) == "C2xC6"


def test_make_group_klein():
    G = make_group([2, 2])
    assert G.cardinality == 4
    assert len(G.elements()) == 4
    assert len(set(G.elements())) == 4


def test_make_group_cyclic6():
    G = make_group([6])
    assert G.cardinality == 6
    assert G.exponent == 6


@pytest.mark.parametrize("orders", [[0], [-1], [2, 0]])
def test_make_group_rejects_nonpositive(orders):
    with pytest.raises(InvalidSpecificationError):
        make_group(orders)


def test_add_klein():
    G = make_group([2, 2])
    assert G.add((1, 0), (0, 1)) == (1, 1)


def test_add_cyclic6():
    G = make_group([6])
    assert G.add((4,), (5,)) == (3,)


def test_add_identity():
    G = make_group([3, 4])
    for a in G.elements():
        assert G.add(a, G.zero) == a


def test_add_arity_mismatch():
    G = make_group([2, 2])
    with pytest.raises(InvalidElementError):
        G.add((1,), (0, 1))


def test_element_normalization_idempotent():
    G = make_group([5, 3])
    e = G.element((7, -1))
    assert e == (2, 2)
    assert G.element(e) == e


def test_enumerate_lex_order():
    G = make_group([2, 2])
    assert G.elements() == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert make_group([2]).elements() == ((0,), (1,))


def test_enumerate_is_bijection():
    for orders in abelian_groups_up_to(12):
        G = make_group(orders)
        elems = G.elements()
        assert len(elems) == G.cardinality
        assert len(set(elems)) == G.cardinality
        for i, a in enumerate(elems):
            assert G.index_of(a) == i


def test_element_order_examples():
    G = make_group([6])
    assert G.order_of((0,)) == 1
    assert G.order_of((1,)) == 6
    assert G.order_of((2,)) == 3


def test_group_axioms_exhaustive():
    for orders in ([4], [2, 3], [2, 2, 2]):
        G = make_group(orders)
        elems = G.elements()
        for a, b in itertools.product(elems, repeat=2):
            assert G.add(a, b) == G.add(b, a)
        for a, b, c in itertools.product(elems, repeat=3):
            assert G.add(G.add(a, b), c) == G.add(a, G.add(b, c))
        for a in elems:
            assert G.add(a, G.neg(a)) == G.zero


def test_lagrange_by_exhaustion():
    for orders in abelian_groups_up_to(16):
        G = make_group(orders)
        if G.cardinality > 64:
            continue
        for a in G.elements():
            k = G.order_of(a)
            assert G.cardinality % k == 0
            # minimality: k*a = 0 and no smaller positive multiple vanishes
            assert G.scale(k, a) == G.zero
            assert all(G.scale(j, a) != G.zero for j in range(1, k))


def test_from_doc_roundtrip():
    doc = {"orders": [3, 4]}
    G = FinAbGroup.from_doc(doc)
    assert G.to_doc() == doc
    with pytest.raises(InvalidSpecificationError):
        FinAbGroup.from_doc({"wrong": 1})


@pytest.mark.parametrize(
    "orders", [[], [1], [1, 5, 1], [2, 1, 3], [30], [3, 9], [2, 2, 2, 2], [2, 2, 4]], ids=str
)
def test_translate_by_rotations_equals_the_bit_by_bit_move(orders):
    G = make_group(orders)
    rng = random.Random(f"translate {orders}")
    masks = [0, 1, (1 << G.cardinality) - 1] + [rng.getrandbits(G.cardinality) for _ in range(40)]

    def check(tables, tried):
        _, rows, moves = tables
        assert len(rows) == len(moves)
        for row, move in zip(rows, moves):
            for mask in tried:
                assert _translate(mask, move) == translate_bit_by_bit(mask, row), (orders, row, mask)

    check(_tables(G, G.elements()), masks)
    check(PresentedMonoid("ab", lambda v: True, [(1, 0), (0, 1)])._grading, [0, 1])  # the trivial group's
    # five primes over at most two classes; the Krull atom walk translates, so it comes last
    primes, classes = ["p0", "p1", "p2", "p3", "p4"], rng.sample(G.elements(), min(2, G.cardinality))
    check(make_krull(G, primes, {p: rng.choice(classes) for p in primes})._grading, masks)
