import itertools
import random
import time
from collections import Counter
from math import factorial, prod

import pytest

from factorinv.abelian import _tables, make_group
from factorinv.blocks import Sequence, _atom_vectors
from factorinv.errors import (
    FaithfulTowerError,
    InvalidElementError,
    InvalidSpecificationError,
    NotAMemberError,
)
from factorinv.factorize import Factorization, PresentedMonoid
from factorinv import krull
from factorinv.krull import KrullMonoid, TransferReport, make_krull, synth_hnp
from factorinv.towers import Tower, TowerSpec

from conftest import abelian_groups_up_to
from oracles import (
    catenary_minimax,
    fiber_catenary_by_listing,
    first_fit_lift,
    krull_atoms_by_expansion,
    naive_factorizations,
    transfer_report_by_lifting,
)
from test_acceptance import krull_batch


def c2_monoid():
    G = make_group([2])
    return make_krull(G, ["p", "q"], {"p": (1,), "q": (1,)})


def test_make_krull_factorial():
    G = make_group([4])
    H = make_krull(G, ["p", "q"], {"p": (0,), "q": (0,)})
    assert H.contains((3, 5))
    assert set(H.atoms) == {(1, 0), (0, 1)}


def test_make_krull_even_weight():
    H = c2_monoid()
    assert H.contains((1, 1))
    assert H.contains((2, 0))
    assert not H.contains((1, 0))


def test_make_krull_c3():
    G = make_group([3])
    H = make_krull(G, ["p", "q", "r"], {"p": (1,), "q": (1,), "r": (1,)})
    assert H.contains((1, 1, 1))


@pytest.mark.parametrize("names", [(5, "5"), (None, "q"), (True, 1)], ids=repr)
def test_prime_names_must_be_strings(names):
    # checked before uniqueness: (True, 1) is not two equal names
    with pytest.raises(InvalidSpecificationError, match=r"^prime names must be strings: "):
        make_krull(make_group([2]), names, dict.fromkeys(names, (1,)))
    doc = {"group": {"orders": [2]}, "primes": [{"name": name, "class": [1]} for name in names]}
    with pytest.raises(InvalidSpecificationError, match=r"^prime names must be strings: "):
        KrullMonoid.from_doc(doc)


def test_make_krull_validation():
    G = make_group([2])
    with pytest.raises(InvalidSpecificationError):
        make_krull(G, ["p"], {"p": (1,), "ghost": (0,)})
    with pytest.raises(InvalidSpecificationError):
        make_krull(G, ["p", "q"], {"p": (1,)})
    with pytest.raises(InvalidSpecificationError):
        make_krull(G, [], {})
    # arguments of the wrong kind end in one error line
    C3 = make_group([3])
    for args, message in [
        (([2], ["p"], {"p": (0,)}), "a Krull monoid needs a FinAbGroup, got [2]"),
        ((C3, 5, {}), "primes must be iterable, got 5"),
        ((C3, ["p"], 5), "a class map must map prime names to classes, got 5"),
        ((C3, ["p"], {"p": 1}), "the class of 'p' must be iterable, got 1"),
    ]:
        with pytest.raises(InvalidSpecificationError) as caught:
            make_krull(*args)
        assert str(caught.value) == message


def test_thousands_of_atoms_validate_fast_and_a_divided_atom_is_still_rejected():
    G = make_group([9])
    primes = [f"p{i}" for i in range(10)]
    started = time.perf_counter()
    H = make_krull(G, primes, {p: (1 + i % 2,) for i, p in enumerate(primes)})
    assert time.perf_counter() - started < 3
    assert len(H.atoms) == 6545
    b = tuple(x + y for x, y in zip(H.atoms[0], H.atoms[-1]))
    _, least = min((sum(a), a) for a in H.atoms if all(x <= y for x, y in zip(a, b)))
    with pytest.raises(InvalidSpecificationError) as caught:
        PresentedMonoid(H.primes, H.membership, H.atoms + (b,))
    assert str(caught.value) == f"atom {least!r} divides atom {b!r}"
    # the smallest atoms, p·q^4 over the two classes, have 1-norm 5; at 10,
    # p0·p1^4 and p0·p3^4 swap p1 for p3 into p0·p1^3·p3 and p0·p1·p3^3
    started = time.perf_counter()
    assert H.fiber_catenary(9) == 0 and H.fiber_catenary(10) == 2
    assert time.perf_counter() - started < 3


def test_krull_atoms_examples():
    G = make_group([4])
    H = make_krull(G, ["p", "q"], {"p": (0,), "q": (0,)})
    assert set(H.atoms) == {(1, 0), (0, 1)}

    H = c2_monoid()
    assert set(H.atoms) == {(2, 0), (1, 1), (0, 2)}

    G3 = make_group([3])
    H3 = make_krull(G3, ["p", "q", "r"], {"p": (1,), "q": (2,), "r": (0,)})
    assert set(H3.atoms) == {(0, 0, 1), (3, 0, 0), (0, 3, 0), (1, 1, 0)}


def test_krull_atoms_match_divisibility_minimality():
    # atoms = members minimal for componentwise division, by brute force
    rng = random.Random(3)
    for _ in range(10):
        nprimes = rng.randint(1, 5)
        orders = [rng.randint(1, 6)]
        G = make_group(orders)
        cmap = {f"p{i}": rng.choice(G.elements()) for i in range(nprimes)}
        H = make_krull(G, sorted(cmap), cmap)
        bound = max(sum(a) for a in H.atoms)
        members = [v for v in H.elements(bound) if any(v)]
        minimal = set()
        for v in members:
            proper = [
                w
                for w in members
                if w != v and all(x <= y for x, y in zip(w, v))
            ]
            if not proper:
                minimal.add(v)
        assert minimal == set(H.atoms)


def test_beta_examples():
    H = c2_monoid()
    G = H.group
    assert H.beta((0, 0)) == Sequence.empty(G)
    assert H.beta((1, 1)) == Sequence.from_counts(G, {(1,): 2})
    G3 = make_group([3])
    H3 = make_krull(G3, ["p"], {"p": (1,)})
    assert H3.beta((3,)) == Sequence.from_counts(G3, {(1,): 3})


def test_beta_is_homomorphism_and_zero_sum():
    H = c2_monoid()
    for x in H.elements(4):
        for y in H.elements(4):
            xy = tuple(a + b for a, b in zip(x, y))
            assert H.beta(xy) == H.beta(x) * H.beta(y)
        assert H.beta(x).sum() == H.group.zero


def test_beta_not_a_member():
    H = c2_monoid()
    with pytest.raises(NotAMemberError):
        H.beta((1, 0))


def test_two_splits_rejects_a_sequence_that_is_not_zero_sum():
    G = make_group([3])
    H = make_krull(G, ["p", "q"], {"p": (1,), "q": (2,)})
    with pytest.raises(NotAMemberError):
        H.two_splits(Sequence.from_counts(G, {(1,): 2}))
    assert len(H.two_splits(Sequence.from_counts(G, {(1,): 3}))) == 2


def test_two_splits_rejects_a_sequence_over_another_group():
    H = c2_monoid()
    with pytest.raises(InvalidElementError, match="different groups"):
        H.two_splits(Sequence.from_counts(make_group([4]), {(1,): 4}))
    with pytest.raises(InvalidElementError, match=r"^a zero-sum sequence must be a Sequence, got \(1,\)$"):
        H.two_splits((1,))


def test_krull_atoms_equal_the_expansion_of_the_block_atoms():
    rng = random.Random(29)
    groups = [make_group(orders) for orders in abelian_groups_up_to(9)]
    monoids = list(krull_batch())
    for _ in range(300):
        G = rng.choice(groups)
        # a small pool of classes, so that primes often share a class
        pool = rng.sample(G.elements(), rng.randint(1, G.cardinality))
        cmap = {f"p{i:02d}": rng.choice(pool) for i in range(rng.randint(1, 12))}
        monoids.append(make_krull(G, sorted(cmap), cmap))
    assert sum(len(H.image_classes) < len(H.primes) for H in monoids) >= 200
    assert sum(H.group.zero in H.image_classes for H in monoids) >= 50
    assert sum(H.group.cardinality == 1 for H in monoids) >= 10
    for H in monoids:
        assert H.atoms == tuple(krull_atoms_by_expansion(H)), H.classes
        vectors = list(_atom_vectors(H.group, [H.classes[p] for p in H.primes]))
        assert len(vectors) == len(set(vectors)) == len(H.atoms)


def test_membership_closed_under_quotients():
    # y <= x componentwise with both members means x - y is a member
    rng = random.Random(8)
    for _ in range(5):
        G = make_group([rng.randint(1, 6)])
        cmap = {f"p{i}": rng.choice(G.elements()) for i in range(rng.randint(1, 4))}
        H = make_krull(G, sorted(cmap), cmap)
        members = list(H.elements(6))
        for x in members:
            for y in members:
                if all(b <= a for a, b in zip(x, y)):
                    assert H.contains(tuple(a - b for a, b in zip(x, y)))


def test_atom_correspondence():
    # x is an atom iff beta(x) is an atom of the block monoid
    G = make_group([4])
    H = make_krull(G, ["p", "q", "r"], {"p": (1,), "q": (2,), "r": (3,)})
    block_atoms = {tuple(sorted(a.counts)) for a in H.block_monoid().atoms()}
    members = [v for v in H.elements(6) if any(v)]
    atom_set = set(H.atoms)
    for v in members:
        image_key = tuple(sorted(H.beta(v).counts))
        if v in atom_set:
            assert image_key in block_atoms
        elif image_key in block_atoms:
            assert v in atom_set, f"{v} should be an atom"
    assert [H.atom_image(i) for i in range(len(H.atoms))] == [H.beta(a) for a in H.atoms]
    with pytest.raises(IndexError, match="^tuple index out of range$"):
        H.atom_image(len(H.atoms))


def test_lift_factorization_atom_identity():
    H = c2_monoid()
    x = (1, 1)
    [piece] = H.lift_factorization(x, [H.beta(x)])
    assert piece == x


def test_lift_factorization_two_blocks():
    H = c2_monoid()
    G = H.group
    block = Sequence.from_counts(G, {(1,): 2})
    b, c = H.lift_factorization((2, 2), [block, block])
    assert tuple(x + y for x, y in zip(b, c)) == (2, 2)
    assert H.beta(b) == block
    assert H.beta(c) == block


def test_lift_factorization_factorial_units():
    G = make_group([5])
    H = make_krull(G, ["p", "q"], {"p": (0,), "q": (0,)})
    zero_atom = Sequence.from_counts(G, {(0,): 1})
    pieces = H.lift_factorization((2, 1), [zero_atom] * 3)
    assert [sum(p) for p in pieces] == [1, 1, 1]
    total = tuple(sum(col) for col in zip(*pieces))
    assert total == (2, 1)


def test_lift_factorization_rejects_wrong_blocks():
    H = c2_monoid()
    bad = Sequence.from_counts(H.group, {(1,): 4})
    with pytest.raises(InvalidSpecificationError):
        H.lift_factorization((1, 1), [bad])


def test_lift_factorization_rejects_blocks_that_are_not_zero_sum():
    G = make_group([3])
    H = make_krull(G, ["p", "q"], {"p": (1,), "q": (2,)})
    halves = [Sequence.from_counts(G, {(1,): 1}), Sequence.from_counts(G, {(2,): 1})]
    with pytest.raises(NotAMemberError, match="^1 is not a zero-sum sequence$"):
        H.lift_factorization((1, 1), halves)
    # the group is checked first
    with pytest.raises(InvalidElementError, match="different groups"):
        H.lift_factorization((1, 1), [Sequence.from_counts(make_group([4]), {(1,): 1}), *halves])
    for blocks in ([5], 5, (halves[0], None)):
        with pytest.raises(InvalidElementError, match=r"^blocks must be a list of Sequences, got "):
            H.lift_factorization((1, 1), blocks)


def test_verify_transfer_factorial():
    G = make_group([3])
    H = make_krull(G, ["p", "q"], {"p": (0,), "q": (0,)})
    rep = H.verify_transfer(6)
    assert rep.ok, rep


def test_verify_transfer_c2():
    rep = c2_monoid().verify_transfer(8)
    assert rep.ok, rep
    assert rep.elements_checked > 0 and rep.splits_checked > 0


def test_verify_transfer_names_differing_length_sets():
    H = make_krull(make_group([3]), ["p", "q"], {"p": (1,), "q": (2,)})
    blocks = H.block_monoid().presented()
    members = blocks._members
    # a block member table that also claims length 3 for every nonzero member
    blocks._members = lambda bound: (
        (w, mask, lengths | (1 << 3 if any(w) else 0), below) for w, mask, lengths, below in members(bound)
    )
    H.block_monoid().presented = lambda: blocks  # presented() builds a new presentation on each call
    rep = H.verify_transfer(4)
    assert not rep.ok
    assert rep.failure == "length sets differ at (1, 1): (1,) vs (1, 3)"


def test_verify_transfer_fails_on_an_image_missing_from_the_block_table():
    H = make_krull(make_group([3]), ["p", "q"], {"p": (1,), "q": (2,)})
    blocks = H.block_monoid().presented()
    members = blocks._members
    # a block member table without the row of 1·2: its image has no lengths
    blocks._members = lambda bound: (row for row in members(bound) if row[0] != (1, 1))
    H.block_monoid().presented = lambda: blocks
    rep = H.verify_transfer(4)
    assert not rep.ok
    assert rep.failure == "length sets differ at (1, 1): (1,) vs ()"


def test_verify_transfer_fails_on_a_nonzero_member_with_the_empty_image():
    H = make_krull(make_group([3]), ["p", "q"], {"p": (1,), "q": (2,)})
    image = H._image
    # axiom (T2) is read from the length sets: a nonzero member has no length 0
    H._image = lambda v: (0, 0) if v == (1, 1) else image(v)
    rep = H.verify_transfer(4)
    assert not rep.ok
    assert rep.failure == "length sets differ at (1, 1): (1,) vs (0,)"


def test_verify_transfer_reads_surjectivity_from_the_scanned_images():
    H = make_krull(make_group([3]), ["p", "q"], {"p": (1,), "q": (2,)})
    # a member table that skips the row of pq leaves the block member 1·2 without a preimage
    H._members = lambda bound, classes=None: (row for row in KrullMonoid._members(H, bound, classes) if row[0] != (1, 1))
    rep = H.verify_transfer(4)
    assert not rep.ok
    assert rep.failure == "no preimage found for 1·2"


def test_rho2_stops_at_the_bound_on_thousands_of_atoms():
    G = make_group([9])
    primes = [f"p{i}" for i in range(8)]
    H = make_krull(G, primes, {p: (1 + i % 2,) for i, p in enumerate(primes)})
    assert len(H.atoms) == 2020
    started = time.perf_counter()
    assert H.rho2(2) == 0
    assert time.perf_counter() - started < 0.5


def twelve_prime_c9_monoid():
    """17,940 atoms: six primes each in classes 1 and 2 of C9."""
    primes = [f"p{i}" for i in range(12)]
    return make_krull(make_group([9]), primes, {p: (1 + i % 2,) for i, p in enumerate(primes)})


def test_rho2_stops_at_the_length_cap_on_thousands_of_atoms():
    H = twelve_prime_c9_monoid()
    assert min(map(sum, H.atoms)) == 5  # p q^4: the cap is 2 below bound 15
    for bound in (11, 14):
        started = time.perf_counter()
        assert H.rho2(bound) == 2
        assert time.perf_counter() - started < 1


def test_fiber_catenary_factorial():
    G = make_group([3])
    H = make_krull(G, ["p", "q"], {"p": (0,), "q": (0,)})
    assert H.fiber_catenary(6) == 0


def test_fiber_catenary_two_primes_shared_class():
    # (p^2)(q^2) and (pq)(pq) have the same class-image multiset, so they sit
    # in one fiber at permutable distance 2
    H = c2_monoid()
    assert H.fiber_catenary(4) == 2


def test_fiber_catenary_four_primes():
    G = make_group([2])
    H = make_krull(G, ["p", "q", "r", "s"], {p: (1,) for p in "pqrs"})
    assert H.fiber_catenary(8) <= 2


def criterion_monoids():
    """A few monoids of the criterion-6/7 batch with non-trivial fibers."""
    batch = krull_batch()
    return [batch[i] for i in (1, 4, 5, 12, 14, 16, 17)]


def test_fiber_catenary_matches_naive_oracle():
    for H in criterion_monoids():
        worst = 0
        for v in H.elements(6):
            fibers = {}
            for indices in naive_factorizations(H.atoms, v):
                key = tuple(sorted(H.atom_image(i).counts for i in indices))
                counts = tuple(sorted(Counter(indices).items()))
                fibers.setdefault(key, []).append(Factorization(counts))
            for members in fibers.values():
                worst = max(worst, catenary_minimax(members))
        assert H.fiber_catenary(6) == worst, H.classes


def random_krull_monoids(count: int, seed: int):
    """Seeded Krull monoids with 1 to 6 primes over groups of order <= 6."""
    rng = random.Random(seed)
    for _ in range(count):
        G = make_group(rng.choice([[1], [2], [3], [4], [2, 2], [5], [6]]))
        elements = G.elements()
        primes = [f"p{i}" for i in range(rng.randint(1, 6))]
        yield make_krull(G, primes, {p: rng.choice(elements) for p in primes})


def test_fiber_catenary_from_swaps_matches_listing_on_random_monoids():
    values, kinds = Counter(), Counter()
    for H in random_krull_monoids(80, 20261019):
        kinds["C1"] += H.group.cardinality == 1
        kinds["class 0"] += H.group.zero in H.classes.values()
        kinds["shared"] += len(H.image_classes) < len(H.primes)
        kinds["injective"] += len(H.image_classes) == len(H.primes)
        for bound in (4, 6):
            value = H.fiber_catenary(bound)
            assert value == fiber_catenary_by_listing(H, bound), (H.classes, bound)
            values[value] += 1
    assert min(kinds.values()) >= 5, kinds
    assert set(values) == {0, 2} and min(values.values()) >= 40, values


def test_count_vector_transfer_matches_public_api():
    for H in criterion_monoids():
        B = H.block_monoid()
        for v in H.elements(6):
            image = H._image(v)
            assert image == B.vector_of(H.beta(v))
            lefts = H._two_splits(H.image_classes, image)
            assert lefts == sorted(lefts)
            splits = [(left, tuple(m - k for m, k in zip(image, left))) for left in lefts]
            public = H.two_splits(H.beta(v))
            assert [(B.sequence_of(l), B.sequence_of(r)) for l, r in splits] == public
            for (left, right), blocks in zip(splits, public):
                lift = H._lift(v, (left, right))
                assert lift == H.lift_factorization(v, list(blocks))
                assert lift == first_fit_lift(H, v, blocks)


def test_verify_transfer_equals_lifting_every_split():
    for H in [*krull_batch(), *random_krull_monoids(80, 20261019)]:
        assert H.verify_transfer(6) == transfer_report_by_lifting(H, 6), H.classes


def test_verify_transfer_equals_lifting_every_split_with_six_primes_per_class():
    H = twelve_prime_c9_monoid()
    report = H.verify_transfer(8)
    assert report == transfer_report_by_lifting(H, 8) == TransferReport(True, 13937, 27873, None, 5)


def one_more(takes, have):
    """One unit more, from the first count that has one to spare."""
    takes[next(j for j, (t, m) in enumerate(zip(takes, have)) if t < m)] += 1


def one_short(takes, have):
    """One unit less, from the last count taken from."""
    takes[max(j for j, t in enumerate(takes) if t)] -= 1


def lift_with(fault, exponents, count, base=first_fit_lift):
    """``base`` (first fit by default), except that the piece that takes ``count`` units
    of a class whose primes hold ``exponents`` in the member suffers ``fault``;
    the next piece then takes what first fit can of the rest, leaving its last units."""

    def lift(H, v, blocks):
        b, c = map(list, base(H, v, blocks))
        for g in H.image_classes:
            primes = [i for i, p in enumerate(H.primes) if H.classes[p] == g]
            if tuple(v[i] for i in primes) != exponents or sum(b[i] for i in primes) != count:
                continue
            taken = [b[i] for i in primes]
            fault(taken, exponents)
            rest = [m - t for m, t in zip(exponents, taken)]
            surplus = sum(rest) - (sum(exponents) - count)
            for j in reversed(range(len(rest))):
                drop = min(max(surplus, 0), rest[j])
                rest[j] -= drop
                surplus -= drop
            for i, t, r in zip(primes, taken, rest):
                b[i], c[i] = t, r
        return tuple(b), tuple(c)

    return lift


@pytest.mark.parametrize("fault, failure", [(one_more, "has wrong images"), (one_short, "does not multiply back")])
@pytest.mark.parametrize("exponents, count", [((2, 1), 2), ((1, 2), 2), ((1, 0, 2), 2)])
def test_a_wrong_first_fit_piece_fails_where_lifting_every_split_does(monkeypatch, fault, failure, exponents, count):
    first_fit = krull._first_fit

    def faulty(have, needed):
        takes = first_fit(have, needed)
        if tuple(have) == exponents and needed == count:
            fault(takes, have)
        return takes

    monkeypatch.setattr(krull, "_first_fit", faulty)
    failed = 0
    for H in criterion_monoids():
        report = H.verify_transfer(6)
        assert report == transfer_report_by_lifting(H, 6, lift_with(fault, exponents, count)), H.classes
        if not report.ok:
            assert report.failure.endswith(failure) and report.splits_checked > 1
            failed += 1
    assert failed


def first_fit_with(monkeypatch, faults):
    """Patch ``krull._first_fit`` so that the row ``(exponents, count)`` of
    each fault suffers it; returns the list of rows that the patch reached."""
    first_fit, reached = krull._first_fit, []

    def faulty(have, needed):
        takes = first_fit(have, needed)
        if (tuple(have), needed) in faults:
            faults[tuple(have), needed](takes, have)
            reached.append((tuple(have), needed))
        return takes

    monkeypatch.setattr(krull, "_first_fit", faulty)
    return reached


@pytest.mark.parametrize("fault", [one_more, one_short])
def test_a_wrong_row_that_no_split_reads_passes(monkeypatch, fault):
    # over C2 a class count of 1 is not zero-sum, so no 2-split reads the row
    # of count 1, though the member (1, 1) computes it
    H = c2_monoid()
    reached = first_fit_with(monkeypatch, {((1, 1), 1): fault})
    report = H.verify_transfer(8)
    assert reached and report.ok
    assert report == transfer_report_by_lifting(H, 8, lift_with(fault, (1, 1), 1))


@pytest.mark.parametrize("single", [(1,), (2,)])
def test_a_split_reading_two_wrong_rows_does_not_multiply_back(monkeypatch, single):
    # p^3 q2^3 is the first member whose splits read the row ((3,), 2) of p's
    # class and the only one that reads ((0, 3), 2) of the class of q1 and q2; its
    # split (2, 2) reads both, with p's class in the first or the second slot
    G = make_group([3])
    other = (3 - single[0],)
    H = make_krull(G, ["p", "q1", "q2"], {"p": single, "q1": other, "q2": other})
    faults = {((3,), 2): one_more, ((0, 3), 2): one_short}
    alone = []
    for row, fault in faults.items():
        first_fit_with(monkeypatch, {row: fault})
        alone.append(H.verify_transfer(6))
        monkeypatch.undo()
    first_fit_with(monkeypatch, faults)
    report = H.verify_transfer(6)
    oracle = lift_with(one_short, (0, 3), 2, lift_with(one_more, (3,), 2))
    assert report == transfer_report_by_lifting(H, 6, oracle)
    assert report.failure == "lift of (3, 0, 3) does not multiply back"
    assert [r.failure for r in alone] == ["lift of (3, 0, 3) has wrong images", report.failure]
    assert {r.splits_checked for r in alone} == {report.splits_checked}


def test_each_first_fit_row_is_computed_once_whatever_the_splits(monkeypatch):
    primes = [f"p{i}" for i in range(12)]
    H = make_krull(make_group([9]), primes, {p: (1 + i % 2,) for i, p in enumerate(primes)})
    rows = {
        (tuple(v[i] for i in slot), k)
        for v in H.elements(8)
        for slot in H._slot_primes
        for k in range(sum(v[i] for i in slot) + 1)
    }
    first_fit, calls = krull._first_fit, []
    monkeypatch.setattr(krull, "_first_fit", lambda have, needed: calls.append(1) or first_fit(have, needed))
    report = H.verify_transfer(8)
    assert report.splits_checked == 27873
    assert len(calls) <= 2 * len(rows) < report.splits_checked


# -- verify_transfer reads one member per orbit of the prime permutations within classes


def test_verify_transfer_by_orbits_equals_lifting_every_split_at_every_bound():
    for H in krull_batch():
        for bound in range(9):
            assert H.verify_transfer(bound) == transfer_report_by_lifting(H, bound), (H.classes, bound)
    for H in random_krull_monoids(40, 20261021):
        for bound in range(2, 9):
            assert H.verify_transfer(bound) == transfer_report_by_lifting(H, bound), (H.classes, bound)


def test_verify_transfer_of_six_primes_per_class_at_bound_ten():
    H = twelve_prime_c9_monoid()
    assert H.verify_transfer(10) == TransferReport(True, 44968, 116962, None, 8)


class ReadAtoms(tuple):
    """An atom tuple that records the index of each atom read, every index on a walk over all of them."""

    def __new__(cls, atoms):
        out = super().__new__(cls, atoms)
        out.read = set()
        return out

    def __getitem__(self, index):
        self.read.add(index)
        return super().__getitem__(index)

    def __iter__(self):
        self.read.update(range(len(self)))
        return super().__iter__()


def test_the_orbit_walk_reads_an_atom_only_when_a_member_meets_it():
    H = twelve_prime_c9_monoid()
    H.atoms = ReadAtoms(H.atoms)
    assert H.verify_transfer(8) == TransferReport(True, 13937, 27873, None, 5)
    assert 0 < len(H.atoms.read) < 1000 < len(H.atoms) == 17940


def test_verify_transfer_reads_one_row_per_orbit():
    # eight primes of one class: 1,287 members of norm <= 5, in the 19 orbits of the partitions
    primes = [f"p{i}" for i in range(8)]
    H = make_krull(make_group([1]), primes, {p: (0,) for p in primes})
    rows, members = [], H._members
    H._members = lambda bound, classes=None: (rows.append(row) or row for row in members(bound, classes))
    report = H.verify_transfer(5)
    assert len(rows) == 19
    assert report == transfer_report_by_lifting(H, 5) and report.elements_checked == 1287


def test_one_prime_per_class_is_read_in_one_walk_over_the_orbits():
    # six primes of classes 1 to 6 over C7: every orbit holds one member
    primes = [f"p{i}" for i in range(1, 7)]
    H = make_krull(make_group([7]), primes, {p: (i,) for i, p in enumerate(primes, 1)})
    walks, members = [], H._members
    H._members = lambda bound, classes=None: walks.append((bound, classes)) or members(bound, classes)
    assert H.verify_transfer(8) == TransferReport(True, 429, 2886, None, 429)
    assert walks == [(8, H._slot)]


def test_a_missing_preimage_is_named_from_one_walk_over_the_orbits():
    # p, q of class 1 and r of class 2 over C3, with no member of image 1·2 in the table: the orbits
    # meet every image, so the surjectivity failure they find is the full walk's
    H = make_krull(make_group([3]), ["p", "q", "r"], {"p": (1,), "q": (1,), "r": (2,)})
    walks = []

    def members(bound, classes=None):
        walks.append(classes)
        return (row for row in KrullMonoid._members(H, bound, classes) if H._image(row[0]) != (1, 1))

    H._members = members
    assert H.verify_transfer(6) == TransferReport(False, 28, 96, "no preimage found for 1·2", 2)
    assert walks == [H._slot]


@pytest.mark.parametrize("fault, failure", [(one_more, "has wrong images"), (one_short, "does not multiply back")])
def test_a_wrong_row_at_an_order_that_no_representative_has_fails_as_lifting_every_split_does(
    monkeypatch, fault, failure
):
    # p^0 q r^2 s^3 is the one member within the bound whose splits read the row ((0, 1, 2), 2) of the
    # class of p, q and r, and its orbit is read at p^2 q s^3: the rows of every order are checked, and
    # the first failure comes from reading every member
    H = make_krull(make_group([3]), ["p", "q", "r", "s"], {"p": (1,), "q": (1,), "r": (1,), "s": (2,)})
    reached = first_fit_with(monkeypatch, {((0, 1, 2), 2): fault})
    report = H.verify_transfer(6)
    assert reached
    assert report == transfer_report_by_lifting(H, 6, lift_with(fault, (0, 1, 2), 2))
    assert report.failure == f"lift of (0, 1, 2, 3) {failure}"


def test_split_count_equals_the_length_of_the_split_list():
    # the block members of norm <= 8 are the images at every bound up to 8
    monoids = [*krull_batch(), *random_krull_monoids(40, 20261021), twelve_prime_c9_monoid()]
    for H in monoids:
        adds = _tables(H.group, H.image_classes)[1]
        for w in H.block_monoid().presented().elements(8):
            assert krull._split_count(adds, w) == len(H._two_splits(H.image_classes, w)), (H.classes, w)


def test_a_passing_transfer_check_lists_no_split(monkeypatch):
    def refuse(self, classes, counts):
        raise RuntimeError("listed the 2-splits")

    monkeypatch.setattr(KrullMonoid, "_two_splits", refuse)
    reports = [H.verify_transfer(6) for H in krull_batch()]
    # the patch is live: a failing first-fit row lists the splits of its member
    first_fit_with(monkeypatch, {((1, 0, 2), 2): one_more})
    with pytest.raises(RuntimeError, match="^listed the 2-splits$"):
        for H in criterion_monoids():
            H.verify_transfer(6)
    monkeypatch.undo()
    assert all(report.ok for report in reports)
    assert reports == [transfer_report_by_lifting(H, 6) for H in krull_batch()]


def test_orders_are_every_distinct_order_once():
    for n in range(7):
        for have in itertools.product(range(7), repeat=n):
            if sum(have) <= 6:
                orders = krull._orders(have)
                assert set(orders) == set(itertools.permutations(have)), have
                assert len(set(orders)) == len(orders), have
                assert len(orders) == factorial(n) // prod(map(factorial, Counter(have).values())), have


def test_verify_transfer_bounds():
    H = c2_monoid()
    for bound in (True, False, 2.0):
        with pytest.raises(InvalidSpecificationError, match="^a size bound must be an integer"):
            H.verify_transfer(bound)
    assert H.verify_transfer(-1) == H.verify_transfer(-3) == TransferReport(True, 0, 0, None, 0)
    assert H.verify_transfer(0) == TransferReport(True, 1, 1, None, 1)


def test_catenary_equals_block_catenary_or_two():
    # with every class occupied and witnesses inside the bound, the catenary
    # degree equals that of the block monoid, except that it never drops
    # below 2 once some element factors in two ways
    G3 = make_group([3])
    H = make_krull(
        G3,
        ["p1", "p2", "q1", "q2"],
        {"p1": (1,), "p2": (1,), "q1": (2,), "q2": (2,)},
    )
    bound = 6
    block_cat = H.block_monoid().presented().catenary(bound)
    assert block_cat == 3
    assert H.catenary(bound) == max(block_cat, 2) == 3

    # block monoid of C2 is factorial, but two primes in one class already
    # force distance-2 rearrangements
    H2 = c2_monoid()
    assert H2.block_monoid().presented().catenary(8) == 0
    assert H2.catenary(8) == 2

    # factorial case: no two distinct factorizations at all
    G = make_group([5])
    H0 = make_krull(G, ["p", "q"], {"p": (0,), "q": (0,)})
    assert H0.catenary(8) == 0


def test_catenary_transfer_relation():
    rng = random.Random(11)
    for _ in range(8):
        nprimes = rng.randint(1, 6)
        orders = [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
        if prod(orders) > 8:
            continue
        G = make_group(orders)
        cmap = {f"p{i}": rng.choice(G.elements()) for i in range(nprimes)}
        H = make_krull(G, sorted(cmap), cmap)
        bound = 6
        lhs = H.catenary(bound)
        rhs = max(
            H.block_monoid().presented().catenary(bound),
            H.fiber_catenary(bound),
        )
        assert lhs <= rhs, (cmap, lhs, rhs)


def tower_spec(entries, orders=(2,)):
    G = make_group(list(orders))
    towers = tuple(
        Tower(name=n, kind=k, length=l, cls=G.element(c)) for n, k, l, c in entries
    )
    return TowerSpec(G, towers)


def test_synth_single_zero_class_tower_is_factorial():
    spec = tower_spec([("T", "cycle", 1, (0,))])
    H = synth_hnp(spec)
    assert set(H.atoms) == {(1,)}
    ok, _ = H.half_factorial(8)
    assert ok


def test_synth_two_cycle_towers_c2():
    spec = tower_spec([("S", "cycle", 2, (1,)), ("T", "cycle", 3, (1,))])
    H = synth_hnp(spec)
    assert set(H.atoms) == {(2, 0), (1, 1), (0, 2)}
    assert H.verify_transfer(8).ok


def test_synth_rejects_nontrivial_faithful_tower():
    spec = tower_spec([("F", "faithful", 2, (0,))])
    with pytest.raises(FaithfulTowerError) as exc:
        synth_hnp(spec)
    assert "F" in str(exc.value)


def test_synth_allows_trivial_faithful_tower():
    spec = tower_spec([("F", "faithful", 1, (0,)), ("T", "cycle", 2, (1,))])
    H = synth_hnp(spec)
    assert H.primes == ("F", "T")
    assert H.image_classes == ((0,), (1,))


def test_from_doc():
    doc = {
        "group": {"orders": [2]},
        "primes": [{"name": "p", "class": [1]}, {"name": "q", "class": [1]}],
    }
    H = KrullMonoid.from_doc(doc)
    assert set(H.atoms) == {(2, 0), (1, 1), (0, 2)}
    with pytest.raises(InvalidSpecificationError):
        KrullMonoid.from_doc({"group": {"orders": [2]}})
