"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the stated runtime budgets are asserted.
"""

import itertools
import random
import time
from collections import Counter

import pytest

from factorinv.abelian import make_group
from factorinv.blocks import BlockMonoid, davenport, subset_nonzero
from factorinv.chains import builtin
from factorinv.errors import FaithfulTowerError, InvalidStepError, NotACoveringError
from factorinv.factorize import Factorization, permutable_distance
from factorinv.krull import make_krull, synth_hnp
from factorinv.towers import (
    Tower,
    TowerSpec,
    disjoint_prefix_cover,
    genus_step,
    has_cycle_standard_rank,
    standard_genus,
)

from conftest import SingleElementWalk, abelian_groups_up_to, refuse_single_element_walks
from oracles import (
    davenport_brute,
    fiber_catenary_by_listing,
    naive_factorizations,
    prefix_tuple_solutions,
)


def report(number: int, message: str) -> None:
    print(f"\n[criterion {number:2d}] PASS  {message}")


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_01_davenport_against_exhaustive_oracle():
    start = time.time()
    groups = abelian_groups_up_to(16)
    assert [2, 2, 2] in groups and [3, 3] in groups and [2, 2] in groups
    for orders in groups:
        G = make_group(orders)
        fast = davenport(G)
        brute = davenport_brute(G)
        assert fast == brute, f"davenport mismatch for {orders}: {fast} vs {brute}"
        assert fast >= G.exponent
    elapsed = time.time() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(1, f"davenport == exhaustive oracle on all {len(groups)} groups of order <= 16 "
              f"({elapsed:.1f}s)")


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_02_block_monoid_invariants_c3():
    start = time.time()
    G = make_group([3])
    B = BlockMonoid(G, [(1,), (2,)])
    P = B.presented()
    v = B.vector_of(B.sequence([(1,)] * 3 + [(2,)] * 3))

    assert P.length_set(v) == (2, 3)
    assert P.catenary_of(v) == 3
    assert P.rho2(6) == 3

    naive = naive_factorizations(P.atoms, v)
    assert {len(f) for f in naive} == {2, 3}
    mine = {tuple(sorted(Counter(dict(z.counts)).elements())) for z in P.factorizations(v)}
    theirs = {tuple(sorted(f)) for f in naive}
    assert mine == theirs
    # rho2 witness cross-checked: the two length-3 atoms multiply to v
    assert max(len(f) for f in naive_factorizations(P.atoms, v)) == 3

    elapsed = time.time() - start
    assert elapsed < 5, f"took {elapsed:.1f}s"
    report(2, f"B(C3): L(1^3 2^3)={{2,3}}, catenary=3, rho2=3, splitter agrees ({elapsed:.2f}s)")


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_03_delta_interval_relation():
    start = time.time()
    for orders in ([3], [4], [5], [2, 2]):
        G = make_group(orders)
        P = BlockMonoid(G, subset_nonzero(G)).presented()
        bound = 2 * davenport(G)
        delta = P.delta(bound)
        cat = P.catenary(bound)
        assert delta == tuple(range(1, cat - 1)), (orders, delta, cat)
    elapsed = time.time() - start
    assert elapsed < 120, f"took {elapsed:.1f}s"
    report(3, f"delta == [1, catenary-2] for C3, C4, C5, C2xC2 at bound 2*D(G) ({elapsed:.1f}s)")


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_04_half_factoriality_boundary():
    for orders in ([], [2]):
        G = make_group(orders)
        P = BlockMonoid(G, G.elements()).presented()
        ok, witness = P.half_factorial(10)
        assert ok and witness is None, orders
    G = make_group([3])
    P = BlockMonoid(G, G.elements()).presented()
    ok, witness = P.half_factorial(10)
    assert not ok
    vector, lengths = witness
    assert lengths == (2, 3)
    counts = {g: m for g, m in zip(P.alphabet, vector) if m}
    assert counts == {(1,): 3, (2,): 3}
    report(4, "half-factorial for |G| <= 2 at bound 10; C3 fails with witness 1^3 2^3")


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_05_prefix_cover_exhaustive():
    start = time.time()
    checked = coverings = 0
    oracle_cache = {}
    for n in range(1, 8):
        space = [(a, k) for a in range(n) for k in range(n + 1)]
        prog_sets = {
            (a, k): frozenset((a + j) % n for j in range(k + 1)) for a, k in space
        }
        everything = frozenset(range(n))
        for l in (1, 2, 3):
            for progressions in itertools.product(space, repeat=l):
                checked += 1
                covered = frozenset().union(*(prog_sets[p] for p in progressions))
                key = (n, tuple(sorted(progressions)))
                if covered == everything:
                    coverings += 1
                    sizes = disjoint_prefix_cover(n, list(progressions))
                    # bounds / disjointness / coverage / total checks
                    seen = Counter()
                    for (a, k), m in zip(progressions, sizes):
                        assert 0 <= m <= k + 1
                        for j in range(m):
                            seen[(a + j) % n] += 1
                    assert sum(sizes) == n
                    assert set(seen) == set(range(n))
                    assert all(c == 1 for c in seen.values())
                    if key not in oracle_cache:
                        oracle_cache[key] = bool(
                            prefix_tuple_solutions(n, sorted(progressions))
                        )
                    assert oracle_cache[key], f"oracle found no solution for {progressions}"
                else:
                    with pytest.raises(NotACoveringError):
                        disjoint_prefix_cover(n, list(progressions))
                    if key not in oracle_cache:
                        oracle_cache[key] = bool(
                            prefix_tuple_solutions(n, sorted(progressions))
                        )
                    assert not oracle_cache[key]
    elapsed = time.time() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(5, f"prefix cover verified on {checked} instances ({coverings} coverings) "
              f"with oracle agreement ({elapsed:.1f}s)")


# -- criteria 6 and 7 (shared randomized instances) -----------------------------

GROUPS_UP_TO_8 = [[1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2]]
TRANSFER_BOUND = 8
_BATCH = None


def krull_batch():
    global _BATCH
    if _BATCH is None:
        rng = random.Random(20260811)
        batch = []
        for _ in range(50):
            nprimes = rng.randint(1, 10)
            orders = rng.choice(GROUPS_UP_TO_8)
            G = make_group(orders)
            elements = G.elements()
            class_map = {f"p{i}": rng.choice(elements) for i in range(nprimes)}
            batch.append(make_krull(G, sorted(class_map), class_map))
        _BATCH = batch
    return _BATCH


def test_criterion_06_transfer_preserves_length_sets():
    start = time.time()
    for H in krull_batch():
        rep = H.verify_transfer(TRANSFER_BOUND)
        assert rep.ok, (H.primes, H.classes, rep.failure)
    elapsed = time.time() - start
    assert elapsed < 300, f"took {elapsed:.1f}s"
    report(6, f"transfer preserves length sets on 50 random Krull monoids at bound "
              f"{TRANSFER_BOUND} ({elapsed:.1f}s)")


def test_criterion_07_fiber_catenary_at_most_two():
    start = time.time()
    worst = 0
    for H in krull_batch():
        fc = H.fiber_catenary(TRANSFER_BOUND)
        listed = fiber_catenary_by_listing(H, TRANSFER_BOUND)
        worst = max(worst, fc)
        assert fc == listed and listed <= 2, (H.classes, fc, listed)
        lhs = H.catenary(TRANSFER_BOUND)
        rhs = max(H.block_monoid().presented().catenary(TRANSFER_BOUND), 2)
        assert lhs <= rhs, (H.classes, lhs, rhs)
    elapsed = time.time() - start
    report(7, f"fiber catenary = listing oracle <= 2 (worst {worst}) and catenary relation on all 50 "
              f"instances ({elapsed:.1f}s)")


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_08_synthetic_tower_model():
    G = make_group([2])

    spec = TowerSpec(G, (Tower("F", "faithful", 2, (0,)),))
    with pytest.raises(FaithfulTowerError):
        synth_hnp(spec)

    spec = TowerSpec(
        G,
        (
            Tower("S", "cycle", 1, (1,)),
            Tower("T", "cycle", 2, (1,)),
            Tower("U", "cycle", 3, (0,)),
        ),
    )
    H = synth_hnp(spec)
    rep = H.verify_transfer(8)
    assert rep.ok, rep.failure
    assert H.fiber_catenary(8) <= 2

    spec0 = TowerSpec(G, (Tower("A", "cycle", 2, (0,)), Tower("B", "cycle", 5, (0,))))
    H0 = synth_hnp(spec0)
    assert set(H0.atoms) == {(1, 0), (0, 1)}
    for v in H0.elements(8):
        assert len(H0.factorizations(v)) == 1  # factorial
    report(8, "synth model: F1 enforced, C2 spec passes transfer+fiber checks, "
              "zero-class spec is factorial")


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_09_builtin_lattices():
    assert builtin("weyl_x2y").length_set() == (2, 3)
    uniserial = builtin("m2a_uniserial").rigid_factorizations()
    assert len(uniserial) == 1
    embed = builtin("m2a_embed").rigid_factorizations()
    assert len(embed) == 1 and embed[0].length == 2
    nonhf = builtin("m2r_nonhf")
    assert nonhf.length_set() == (2, 3)
    assert max(nonhf.length_set()) >= 3  # a two-atom product with a length-3 rival
    report(9, "builtins: weyl_x2y {2,3}; m2a_uniserial unique chain; m2a_embed "
              "length 2; m2r_nonhf {2,3}")


# -- criterion 10 --------------------------------------------------------------


def test_criterion_10_genus_calculus():
    G = make_group([2])
    spec = TowerSpec(
        G,
        (
            Tower("triv", "faithful", 1, (0,)),
            Tower("fai", "faithful", 2, (0,)),
            Tower("cyc", "cycle", 3, (1,)),
        ),
    )
    base = standard_genus(spec, udim=1, rank=1)

    # case by case
    assert genus_step(base, "triv.0", spec) == base
    top = genus_step(base, "fai.0", spec)
    assert dict(top.ranks)["fai.1"] == 2 and top.udim == base.udim
    bottom = genus_step(base, "fai.1", spec)
    assert bottom.rank("fai.1") == 0
    middle = genus_step(base, "cyc.1", spec)
    assert middle.rank("cyc.1") == 0 and middle.rank("cyc.2") == 2

    # full cycle telescopes in any feasible order
    for order in itertools.permutations(spec.simples(spec.tower("cyc"))):
        g = base
        for label in order:
            g = genus_step(g, label, spec)
        assert g == base

    # 1000 random principal-genus step sequences (class multiset a union of
    # full towers, applied in a feasible random order)
    rng = random.Random(99)
    towers = list(spec.towers)
    for _ in range(1000):
        multiset = []
        for _ in range(rng.randint(1, 3)):
            multiset.extend(spec.simples(rng.choice(towers)))
        g = base
        pending = list(multiset)
        while pending:
            rng.shuffle(pending)
            for i, label in enumerate(pending):
                try:
                    g = genus_step(g, label, spec)
                except InvalidStepError:
                    continue
                pending.pop(i)
                break
            else:
                raise AssertionError(f"no feasible step among {pending}")
        assert g == base
        assert has_cycle_standard_rank(g, spec, base)
    report(10, "genus steps match case by case; cycles telescope; 1000 random "
               "principal-genus walks preserve cycle standard rank")


# -- criterion 11 --------------------------------------------------------------


def test_criterion_11_distance_axioms_sampled():
    pools = []
    for orders, bound in ([[3], 9], [[4], 8], [[2, 2], 8], [[3, 3], 6]):
        G = make_group(orders)
        P = BlockMonoid(G, subset_nonzero(G)).presented()
        pools.extend(P.factorizations(v) for v in P.elements(bound))
    rng = random.Random(17)
    rich = [facs for facs in pools if facs]
    multi = [facs for facs in rich if len(facs) >= 2]
    assert multi

    def extend(z, x):
        counts = dict(z.counts)
        for i, m in x.counts:
            counts[i] = counts.get(i, 0) + m
        return Factorization(tuple(sorted(counts.items())))

    checked = 0
    for _ in range(10_000):
        facs = rng.choice(multi if rng.random() < 0.7 else rich)
        z1, z2, z3 = (rng.choice(facs) for _ in range(3))
        x = rng.choice(rng.choice(rich))
        d12 = permutable_distance(z1, z2)
        assert permutable_distance(z1, z1) == 0                      # (D1)
        assert d12 == permutable_distance(z2, z1)                    # (D2)
        assert d12 <= permutable_distance(z1, z3) + permutable_distance(z3, z2)  # (D3)
        assert permutable_distance(extend(z1, x), extend(z2, x)) == d12          # (D4)
        assert abs(z1.length - z2.length) <= d12                     # (D5, lower)
        assert d12 <= max(z1.length, z2.length, 1)                   # (D5, upper)
        checked += 1
    assert checked >= 10_000
    report(11, f"distance axioms (D1)-(D5) hold on {checked} sampled triples")


# -- criterion 12 --------------------------------------------------------------


def test_criterion_12_catenary_degrees_from_the_literature(monkeypatch):
    # c(C_n) = n for n >= 3, c(C3xC3) = 3, c(C2xC4) = 4, and c(G) = D(G) for
    # the elementary 2-groups C2^3 and C2^4 (Geroldinger and Halter-Koch,
    # Non-Unique Factorizations (2006); Geroldinger, Grynkiewicz and Schmid,
    # J. Theor. Nombres Bordeaux 23 (2011))
    start = time.time()
    cases = [([n], 2 * n, n) for n in range(3, 9)] + [([3, 3], 10, 3), ([2, 4], 10, 4)]
    cases += [([2, 2, 2], 8, 4), ([2, 2, 2, 2], 10, 5)]
    # from the Betti elements and the products of two atoms within the bound
    # of the case being scanned, listing no factorization
    refuse_single_element_walks(monkeypatch, lambda: bound)
    for orders, bound, expected in cases:
        G = make_group(orders)
        P = BlockMonoid(G, subset_nonzero(G)).presented()
        assert P.catenary(bound) == expected, (orders, bound)
    with pytest.raises(SingleElementWalk):  # the patch is live
        P.length_set(P.atoms[0])
    elapsed = time.time() - start
    report(12, f"c(C_n) = n for 3 <= n <= 8 at bound 2n, c(C3xC3) = 3, c(C2xC4) = 4 and "
               f"c(C2^4) = 5 at bound 10, c(C2^3) = 4 at bound 8, from Betti elements "
               f"and atom pair products alone ({elapsed:.1f}s)")
