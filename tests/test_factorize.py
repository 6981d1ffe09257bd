import random

import pytest

from factorinv import abelian, factorize
from factorinv.abelian import make_group
from factorinv.blocks import BlockMonoid, subset_nonzero
from factorinv.errors import (
    IncomparableError,
    InvalidSpecificationError,
    NotAMemberError,
    TruncatedEnumerationError,
)
from factorinv.factorize import (
    Factorization,
    PresentedMonoid,
    _bottleneck,
    delta_of_set,
    permutable_distance,
)
from factorinv.krull import TransferReport, make_krull

from oracles import catenary_minimax, naive_factorizations, naive_length_set, naive_rho2


def block_presented(orders, subset=None):
    G = make_group(orders)
    B = BlockMonoid(G, subset if subset is not None else subset_nonzero(G))
    return B, B.presented()


def fac_key(z: Factorization):
    return tuple((i, m) for i, m in z.counts)


def test_presented_monoid_rejects_bad_atoms():
    def anything(v):
        return True

    cases = [
        (["a", "b"], anything, [(1,)], "bad atom vector (1,)"),
        (["a"], anything, [(-1,)], "bad atom vector (-1,)"),
        (["a"], anything, [(2.0,)], "bad atom vector (2.0,)"),
        (["a"], anything, [(1.5,)], "bad atom vector (1.5,)"),
        (["a"], anything, [(True,)], "bad atom vector (True,)"),
        (["a"], anything, [(0,)], "atoms must be nonzero"),
        (["a"], lambda v: v[0] % 2 == 0, [(1,)], "atom (1,) fails membership"),
        (["a"], anything, [(2,), (3,), (2,)], "duplicate atom (2,)"),
        (["a"], anything, [(1,), (2,)], "atom (1,) divides atom (2,)"),
        # the first divided atom, and its least divider, by (1-norm, vector)
        (["a", "b"], anything, [(2, 1), (1, 1), (1, 0), (0, 1)], "atom (0, 1) divides atom (1, 1)"),
        (["a", "b"], anything, [(2, 2), (1, 1), (0, 2)], "atom (0, 2) divides atom (2, 2)"),
    ]
    for alphabet, membership, atoms, message in cases:
        with pytest.raises(InvalidSpecificationError) as caught:
            PresentedMonoid(alphabet, membership, atoms)
        assert str(caught.value) == message, atoms
    # one membership test per atom
    tested = []
    PresentedMonoid(["a", "b"], lambda v: tested.append(v) or True, [(2, 0), (1, 1), (0, 2)])
    assert tested == [(2, 0), (1, 1), (0, 2)]


def test_presented_monoid_refuses_repeated_alphabet_labels():
    with pytest.raises(InvalidSpecificationError, match="^alphabet labels must be distinct$"):
        PresentedMonoid(["a", "a"], lambda v: True, [(1, 0), (0, 1)])


def test_the_empty_alphabet_has_one_member_and_no_atom():
    P = PresentedMonoid([], lambda v: True, [])
    assert list(P.elements(0)) == list(P.elements(5)) == [()] and list(P.elements(-1)) == []
    assert P.length_set(()) == (0,) and P.factorizations(()) == (Factorization(()),)
    assert (P.catenary(5), P.delta(5), P.rho2(5), P.half_factorial(5)) == (0, (), 0, (True, None))


def test_length_sets_and_factorizations_match_the_naive_oracle():
    rng = random.Random("dividing-atom masks")
    monoids = []
    for orders in ([3], [4], [5], [6], [2, 2], [2, 3]):
        G = make_group(orders)
        elements = G.elements()
        monoids.append(BlockMonoid(G, rng.sample(elements, rng.randint(2, len(elements)))).presented())
        primes = [f"p{i}" for i in range(rng.randint(2, 5))]
        monoids.append(make_krull(G, primes, {p: rng.choice(elements[1:]) for p in primes}))
    G = make_group([2, 3])
    graded = BlockMonoid(G, subset_nonzero(G)).presented()
    monoids.append(PresentedMonoid(graded.alphabet, graded.membership, graded.atoms))
    clamped = 0
    for P in monoids:
        tops = [max(column) for column in zip(*P.atoms)]
        vectors = list(P.elements(6))
        for _ in range(12):
            picked = rng.choices(P.atoms, k=rng.randint(2, 4))
            vectors.append(tuple(map(sum, zip(*picked))))
        for v in vectors:
            clamped += any(x > top for x, top in zip(v, tops))
            naive = sorted(naive_factorizations(P.atoms, v))
            mine = [tuple(i for i, m in z.counts for _ in range(m)) for z in P.factorizations(v)]
            assert mine == naive, v
            assert P.length_set(v) == tuple(sorted(naive_length_set(P.atoms, v))), v
    assert clamped >= 100


def test_factorizations_c3_example():
    B, P = block_presented([3])
    v = B.vector_of(B.sequence([(1,)] * 3 + [(2,)] * 3))
    facs = P.factorizations(v)
    assert len(facs) == 2
    assert sorted(z.length for z in facs) == [2, 3]


def test_factorizations_atom_and_unit():
    B, P = block_presented([3])
    for atom in P.atoms:
        facs = P.factorizations(atom)
        assert len(facs) == 1 and facs[0].length == 1
    zero = (0,) * len(P.alphabet)
    facs = P.factorizations(zero)
    assert len(facs) == 1 and facs[0].length == 0


def test_factorizations_not_a_member():
    B, P = block_presented([3])
    with pytest.raises(NotAMemberError):
        P.factorizations((1, 0))


def test_factorization_of_validates():
    B, P = block_presented([3])
    v = B.vector_of(B.sequence([(1,)] * 3 + [(2,)] * 3))
    # atoms sorted: (0,3) -> 2^3, (1,1) -> 1*2, (3,0) -> 1^3
    z = P.factorization_of(v, {1: 3})
    assert z.length == 3
    assert P.weighted_sum(z) == v
    with pytest.raises(NotAMemberError):
        P.factorization_of(v, {1: 2})
    with pytest.raises(InvalidSpecificationError):
        P.factorization_of(v, {1: 0})
    with pytest.raises(InvalidSpecificationError):
        P.factorization_of(v, {9: 1})


def test_factorizations_limit_guard():
    B, P = block_presented([3])
    v = B.vector_of(B.sequence([(1,)] * 6 + [(2,)] * 6))
    with pytest.raises(TruncatedEnumerationError):
        P.factorizations(v, limit=1)


def test_factorizations_limit_is_enforced_while_enumerating(monkeypatch):
    B, P = block_presented([6])
    v = B.vector_of(B.sequence([(1,)] * 6 + [(5,)] * 6 + [(2,)] * 3 + [(4,)] * 3))
    full = P.factorizations(v, limit=None)
    assert len(full) == 28
    memos, evaluate = [], factorize._evaluate

    def spy(root, memo, *rest):
        memos.append((len(memo), memo))
        return evaluate(root, memo, *rest)

    monkeypatch.setattr(factorize, "_evaluate", spy)
    for limit in range(len(full)):
        memos.clear()
        with pytest.raises(TruncatedEnumerationError):
            P.factorizations(v, limit=limit)
        # the walk starts from an empty memo and stores no entry past the limit
        assert [size for size, _ in memos] == [0]
        assert all(len(entry) <= limit for entry in memos[0][1].values())
        # a later call is unaffected
        assert P.factorizations(v, limit=None) == full
    for limit in (len(full), len(full) + 1):
        assert block_presented([6])[1].factorizations(v, limit=limit) == full
    # a root cached by an unlimited call is still checked
    B, P = block_presented([6])
    P.catenary_of(v)
    with pytest.raises(TruncatedEnumerationError):
        P.factorizations(v, limit=len(full) - 1)


@pytest.mark.parametrize("limit", ["10", True, False, -1, 1.5, 28.0])
def test_factorizations_limit_must_be_none_or_a_count(limit):
    B, P = block_presented([6])
    v = B.vector_of(B.sequence([(1,)] * 6 + [(5,)] * 6 + [(2,)] * 3 + [(4,)] * 3))
    with pytest.raises(InvalidSpecificationError, match="factorization limit"):
        P.factorizations(v, limit=limit)


def test_factorizations_limit_zero_refuses_every_element():
    B, P = block_presented([6])
    for v in ((0,) * len(P.alphabet), P.atoms[0]):
        with pytest.raises(TruncatedEnumerationError, match="more than 0 factorizations"):
            P.factorizations(v, limit=0)


@pytest.mark.parametrize(
    "orders,bound",
    [([3], 8), ([4], 8), ([2, 2], 8), ([5], 7), ([3, 3], 6), ([9], 6)],
)
def test_factorizations_agree_with_naive_splitter(orders, bound):
    B, P = block_presented(orders)
    for v in P.elements(bound):
        mine = {fac_key(z) for z in P.factorizations(v)}
        naive = set()
        for multiset in naive_factorizations(P.atoms, v):
            counts = {}
            for i in multiset:
                counts[i] = counts.get(i, 0) + 1
            naive.add(tuple(sorted(counts.items())))
        assert mine == naive


def test_length_set_examples():
    B, P = block_presented([3])
    v = B.vector_of(B.sequence([(1,)] * 3 + [(2,)] * 3))
    assert P.length_set(v) == (2, 3)
    assert P.length_set((0, 0)) == (0,)
    for atom in P.atoms:
        assert P.length_set(atom) == (1,)


def test_length_set_matches_factorizations():
    B, P = block_presented([4])
    for v in P.elements(8):
        assert set(P.length_set(v)) == {z.length for z in P.factorizations(v)}
        assert set(P.length_set(v)) == naive_length_set(P.atoms, v)


def test_delta_of_set():
    assert delta_of_set({2, 3}) == (1,)
    assert delta_of_set({5}) == ()
    assert delta_of_set({2, 4, 7}) == (2, 3)


def test_delta_monoid():
    _, P2 = block_presented([2], subset=None)
    assert P2.delta(10) == ()
    _, P3 = block_presented([3])
    assert P3.delta(6) == (1,)
    _, P1 = block_presented([1], subset=[(0,)])
    assert P1.delta(5) == ()


def test_delta_monotone_in_bound():
    _, P = block_presented([5])
    previous = set()
    for bound in range(0, 11, 2):
        current = set(P.delta(bound))
        assert previous <= current
        previous = current


@pytest.mark.parametrize("counts, message", [
    (((-1, 1),), "^no atom with index -1$"),  # would read the last atom, (3, 0)
    (((9, 1),), "^no atom with index 9$"),
    (((True, 1),), "^no atom with index True$"),
    (((2, 0),), "^multiplicity of atom 2 must be >= 1$"),
    (((2, True),), "^multiplicity of atom 2 must be >= 1$"),
    (((2, 1.0),), "^multiplicity of atom 2 must be >= 1$"),
    (((2, 1), (2, 1)), r"^atom indices must ascend, without repeats: \(\(2, 1\), \(2, 1\)\)$"),
    (((2, 1), (0, 1)), r"^atom indices must ascend, without repeats: \(\(2, 1\), \(0, 1\)\)$"),
])
def test_distance_and_weighted_sum_check_hand_built_factorizations(counts, message):
    B, P = block_presented([3])  # atoms (0,3), (1,1), (3,0)
    z = Factorization(counts)
    with pytest.raises(InvalidSpecificationError, match=message):
        P.weighted_sum(z)
    for pair in ((z, Factorization(((2, 1),))), (Factorization(((2, 1),)), z)):
        with pytest.raises(InvalidSpecificationError, match=message):
            P.distance(*pair)
    # factorization_of refuses the same indices and multiplicities, with the same messages
    if len(counts) == 1:
        with pytest.raises(InvalidSpecificationError, match=message):
            P.factorization_of((3, 0), dict(counts))


def test_factorization_of_refuses_index_keys_that_do_not_sort():
    _, P = block_presented([3])  # atoms (0,3), (1,1), (3,0)
    with pytest.raises(InvalidSpecificationError, match="^no atom with index 'a'$"):
        P.factorization_of((3, 0), {"a": 1, 0: 1})


@pytest.mark.parametrize("counts", [((0, 1, 2),), 5], ids=["a triple", "an int"])
def test_weighted_sum_and_distance_refuse_counts_that_are_not_pairs(counts):
    _, P = block_presented([3])
    z, message = Factorization(counts), r"^counts must be \(atom index, multiplicity\) pairs: "
    with pytest.raises(InvalidSpecificationError, match=message):
        P.weighted_sum(z)
    for pair in ((z, Factorization(((2, 1),))), (Factorization(((2, 1),)), z)):
        with pytest.raises(InvalidSpecificationError, match=message):
            P.distance(*pair)


def test_factorization_of_refuses_multiplicities_that_are_no_mapping():
    _, P = block_presented([3])  # over C3 minus 0
    message = "^multiplicities must map indices to counts: "
    with pytest.raises(InvalidSpecificationError, match=message + "5$"):
        P.factorization_of((3, 0), 5)  # no iterable
    with pytest.raises(InvalidSpecificationError, match=message + r"\[\(0, 1, 2\)\]$"):
        P.factorization_of((3, 0), [(0, 1, 2)])  # a triple, not a pair


def test_block_and_krull_atoms_take_one_class_sum_test_each(monkeypatch):
    calls, test = [], abelian._ZeroSumTest.__call__
    monkeypatch.setattr(abelian._ZeroSumTest, "__call__", lambda self, v: calls.append(v) or test(self, v))
    G = make_group([2, 4])
    P = BlockMonoid(G, subset_nonzero(G)).presented()
    assert calls == list(P.atoms)
    calls.clear()
    H = make_krull(G, ["p", "q", "r"], {"p": (0, 1), "q": (1, 3), "r": (1, 2)})
    assert calls == list(H.atoms)
    # a membership of its own still meets the grading's test as well, each once per atom
    calls.clear()
    PresentedMonoid(P.alphabet, lambda v: P.membership(v), P.atoms, grading=(G, P.alphabet))
    assert calls == [a for a in P.atoms for _ in range(2)]


def test_permutable_distance_examples():
    B, P = block_presented([3])
    v = B.vector_of(B.sequence([(1,)] * 3 + [(2,)] * 3))
    z1, z2 = sorted(P.factorizations(v), key=lambda z: z.length)
    assert P.distance(z1, z1) == 0
    assert P.distance(z1, z2) == 3


def test_permutable_distance_incomparable():
    B, P = block_presented([3])
    z1 = P.factorizations(P.atoms[0])[0]
    z2 = P.factorizations(P.atoms[1])[0]
    with pytest.raises(IncomparableError):
        P.distance(z1, z2)


def _sample_triples(P, bound, rng, count):
    """(z, z', z'', x) tuples: three factorizations of one element plus an
    arbitrary extension factorization."""
    pool = [P.factorizations(v) for v in P.elements(bound)]
    rich = [facs for facs in pool if len(facs) >= 1]
    triples = []
    for _ in range(count):
        facs = rng.choice(rich)
        z1, z2, z3 = (rng.choice(facs) for _ in range(3))
        x = rng.choice(rng.choice(rich))
        triples.append((z1, z2, z3, x))
    return triples


def _extend(z: Factorization, x: Factorization) -> Factorization:
    counts = dict(z.counts)
    for i, m in x.counts:
        counts[i] = counts.get(i, 0) + m
    return Factorization(tuple(sorted(counts.items())))


def test_distance_axioms_sampled():
    B, P = block_presented([3, 3])
    rng = random.Random(7)
    for z1, z2, z3, x in _sample_triples(P, 6, rng, 2000):
        d12 = permutable_distance(z1, z2)
        assert permutable_distance(z1, z1) == 0
        assert d12 == permutable_distance(z2, z1)
        assert d12 <= permutable_distance(z1, z3) + permutable_distance(z3, z2)
        assert permutable_distance(_extend(z1, x), _extend(z2, x)) == d12
        assert abs(z1.length - z2.length) <= d12 <= max(z1.length, z2.length, 1)


def test_catenary_examples():
    B, P = block_presented([3])
    for atom in P.atoms:
        assert P.catenary_of(atom) == 0
    v = B.vector_of(B.sequence([(1,)] * 3 + [(2,)] * 3))
    assert P.catenary_of(v) == 3
    # factorial monoid: all classes zero
    G = make_group([3])
    Pf = BlockMonoid(G, [(0,)]).presented()
    assert Pf.catenary_of((4,)) == 0


def test_catenary_monoid():
    _, P2 = block_presented([2], subset=None)
    assert P2.catenary(10) == 0
    _, P3 = block_presented([3])
    assert P3.catenary(9) == 3
    G1 = make_group([1])
    assert BlockMonoid(G1, [(0,)]).presented().catenary(6) == 0


def test_catenary_bounded_by_max_length():
    _, P = block_presented([4])
    for v in P.elements(8):
        assert P.catenary_of(v) <= max(P.length_set(v))


@pytest.mark.parametrize("orders,bound", [([4], 8), ([5], 8), ([2, 2], 8), ([3, 3], 6)])
def test_catenary_matches_minimax_chain_oracle(orders, bound):
    _, P = block_presented(orders)
    for v in P.elements(bound):
        assert P.catenary_of(v) == catenary_minimax(P.factorizations(v))


def test_bottleneck_matches_minimax_oracle_on_random_lists():
    rng = random.Random(5)
    for size in [0, 1, 2] * 10 + list(range(3, 13)) * 10:
        raw = []
        for _ in range(size):
            chosen = rng.sample(range(6), rng.randint(1, 4))
            raw.append(tuple(sorted((i, rng.randint(1, 3)) for i in chosen)))
        expected = catenary_minimax([Factorization(c) for c in raw])
        assert _bottleneck(raw) == expected, raw


def test_rho2_examples():
    G = make_group([2])
    assert BlockMonoid(G, [(0,)]).presented().rho2(4) == 2
    _, P2 = block_presented([2], subset=None)
    assert P2.rho2(6) == 2
    _, P3 = block_presented([3])
    assert P3.rho2(6) == 3


def test_rho2_matches_the_naive_oracle():
    rng = random.Random("rho2 in 1-norm order")
    checked = 0
    for orders in ([3], [4], [5], [6], [2, 2], [2, 3]):
        G = make_group(orders)
        elements = G.elements()
        primes = [f"p{i}" for i in range(rng.randint(2, 4))]
        for P in (
            BlockMonoid(G, rng.sample(elements, rng.randint(2, len(elements)))).presented(),
            make_krull(G, primes, {p: rng.choice(elements) for p in primes}),
        ):
            norms = sorted({sum(a) for a in P.atoms})
            # every pair norm, and the bounds just below and between them
            bounds = {max(2, n + m + d) for n in norms for m in norms for d in (-1, 0)}
            for bound in sorted(bounds)[:8]:
                assert P.rho2(bound) == naive_rho2(P.atoms, bound), (P.atoms, bound)
                checked += 1
    assert checked >= 60


def test_presented_monoid_rejects_atoms_against_the_grading():
    # (2,) is a member, but its class sum in C3 is not zero
    with pytest.raises(InvalidSpecificationError) as caught:
        PresentedMonoid(["a"], lambda v: v[0] % 2 == 0, [(2,)], grading=(make_group([3]), [(1,)]))
    assert str(caught.value) == "atom (2,) has a nonzero class sum in the grading"
    # one membership test per atom, also with a grading
    tested = []
    P = PresentedMonoid(["a"], lambda v: tested.append(v) or v[0] % 3 == 0, [(3,)],
                        grading=(make_group([3]), [(1,)]))
    assert tested == [(3,)] and list(P.elements(6)) == [(0,), (3,), (6,)]


def test_rho2_requires_bound_two():
    _, P = block_presented([3])
    with pytest.raises(InvalidSpecificationError):
        P.rho2(1)


def test_half_factorial():
    _, P2 = block_presented([2], subset=None)
    assert P2.half_factorial(10) == (True, None)
    _, P3 = block_presented([3])
    ok, witness = P3.half_factorial(6)
    assert not ok
    vector, lengths = witness
    assert lengths == (2, 3)
    seq = dict(zip(P3.alphabet, vector))
    assert seq == {(1,): 3, (2,): 3}
    G1 = make_group([1])
    assert BlockMonoid(G1, [(0,)]).presented().half_factorial(8) == (True, None)


def test_delta_inside_catenary_interval():
    for orders in ([3], [4], [5], [2, 2]):
        G = make_group(orders)
        B = BlockMonoid(G, subset_nonzero(G))
        P = B.presented()
        bound = 8
        delta = set(P.delta(bound))
        cat = P.catenary(bound)
        assert delta <= set(range(1, cat - 1))


def test_entries_and_multiplicities_reject_bools_and_fractions():
    B, P = block_presented([3])
    v = B.vector_of(B.sequence([(1,)] * 3 + [(2,)] * 3))
    assert P.contains(v) and P.factorization_of(v, {1: 3}).length == 3
    for bad in (True, 1.0):
        assert not P.contains((bad, 1))
        with pytest.raises(NotAMemberError):
            P.factorizations((bad, 1))
    with pytest.raises(InvalidSpecificationError):
        P.factorization_of(v, {1: 3.0})
    with pytest.raises(InvalidSpecificationError):
        P.factorization_of(B.vector_of(B.sequence([(1,), (2,)])), {1: True})
    with pytest.raises(InvalidSpecificationError):
        P.factorization_of(B.vector_of(B.sequence([(1,), (2,)])), {True: 1})


def bounded_scans():
    """Every entry that takes a size bound, over C3 and one Krull monoid."""
    B, P = block_presented([3])
    H = make_krull(make_group([3]), ["p", "q"], {"p": (1,), "q": (2,)})
    return {
        "elements": lambda bound: list(P.elements(bound)),
        "catenary": P.catenary,
        "delta": P.delta,
        "half_factorial": P.half_factorial,
        "rho2": P.rho2,
        "verify_transfer": H.verify_transfer,
        "fiber_catenary": H.fiber_catenary,
        "zero_sum_up_to": B.zero_sum_up_to,
    }


@pytest.mark.parametrize("bound", [2.5, 4.0, True, "4", None], ids=repr)
@pytest.mark.parametrize("scan", sorted(bounded_scans()))
def test_bounded_scans_reject_bools_and_non_integers(scan, bound):
    with pytest.raises(InvalidSpecificationError, match="must be an integer"):
        bounded_scans()[scan](bound)


def test_negative_bounds_scan_nothing():
    scans = bounded_scans()
    assert scans["elements"](-1) == [] and scans["catenary"](-1) == 0 and scans["delta"](-1) == ()
    assert scans["half_factorial"](-1) == (True, None) and scans["fiber_catenary"](-3) == 0
    assert scans["verify_transfer"](-1) == TransferReport(True, 0, 0, None, 0)
