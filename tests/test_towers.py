import itertools
import random
from collections import Counter

import pytest

from factorinv.abelian import make_group
from factorinv.errors import (
    InternalConsistencyError,
    InvalidSpecificationError,
    InvalidStepError,
    NotACoveringError,
)
from factorinv.towers import (
    _check_prefix_cover,
    Arc,
    ArcModule,
    GenusVector,
    Tower,
    TowerSpec,
    disjoint_prefix_cover,
    full_cycle_quotient,
    full_cycle_submodule,
    genus_step,
    has_cycle_standard_rank,
    standard_genus,
)

from oracles import prefix_tuple_solutions, set_prefix_cover


def check_prefix_solution(n, progressions, sizes):
    assert len(sizes) == len(progressions)
    seen = Counter()
    for (a, k), m in zip(progressions, sizes):
        assert 0 <= m <= k + 1
        for j in range(m):
            seen[(a + j) % n] += 1
    assert sum(sizes) == n
    assert set(seen) == set(range(n))
    assert all(c == 1 for c in seen.values())


def test_prefix_cover_single_full_arc():
    assert disjoint_prefix_cover(3, [(0, 2)]) == [3]


def test_prefix_cover_two_halves():
    assert disjoint_prefix_cover(4, [(0, 1), (2, 1)]) == [2, 2]


def test_prefix_cover_redundant_progression_dropped():
    assert disjoint_prefix_cover(3, [(0, 2), (1, 2)]) == [3, 0]


def test_prefix_cover_not_a_covering():
    with pytest.raises(NotACoveringError) as exc:
        disjoint_prefix_cover(4, [(0, 1), (1, 1)])
    assert "3" in str(exc.value)


def test_prefix_cover_exhaustive_small():
    for n in range(1, 6):
        for l in (1, 2):
            space = [(a, k) for a in range(n) for k in range(n + 1)]
            for progressions in itertools.product(space, repeat=l):
                solutions = prefix_tuple_solutions(n, progressions)
                covered = set()
                for a, k in progressions:
                    covered |= {(a + j) % n for j in range(k + 1)}
                if covered == set(range(n)):
                    sizes = disjoint_prefix_cover(n, list(progressions))
                    check_prefix_solution(n, progressions, sizes)
                    assert tuple(sizes) in solutions
                else:
                    assert not solutions
                    with pytest.raises(NotACoveringError):
                        disjoint_prefix_cover(n, list(progressions))


def random_progressions(rng, n):
    """1-6 progressions on Z/nZ: either cut points around the circle, each
    run stretched or shrunk by a little so that some cover and some do not,
    or runs of random length; one in twenty has k >= n."""
    l = rng.randint(1, 6)
    if rng.random() < 0.5:
        cuts = sorted(rng.sample(range(n), min(l, n)))
        gaps = [(cuts[(i + 1) % len(cuts)] - c) % n or n for i, c in enumerate(cuts)]
        progressions = [(c, max(0, gap - 1 + rng.randint(-1, 3))) for c, gap in zip(cuts, gaps)]
        rng.shuffle(progressions)
    else:
        progressions = [(rng.randrange(n), rng.randrange(2 * n // l + 1)) for _ in range(l)]
    return [
        (a + n * rng.randint(-2, 2), n + rng.randrange(n + 1) if rng.random() < 1 / 20 else k)
        for a, k in progressions
    ]


def test_prefix_cover_matches_the_set_based_reference():
    rng = random.Random(7)
    outcomes = Counter()
    for _ in range(2000):
        n = rng.randint(1, 300)
        progressions = random_progressions(rng, n)
        try:
            expected = set_prefix_cover(n, progressions)
        except NotACoveringError as exc:
            with pytest.raises(NotACoveringError) as got:
                disjoint_prefix_cover(n, progressions)
            assert str(got.value) == str(exc)
            outcomes["missed"] += 1
            continue
        sizes = disjoint_prefix_cover(n, progressions)
        assert sizes == expected, (n, progressions)
        check_prefix_solution(n, [(a % n, k) for a, k in progressions], sizes)
        outcomes["covered"] += 1
        outcomes["long"] += any(k >= n for _, k in progressions)
        outcomes["split"] += sum(size > 0 for size in sizes) > 1
    assert min(outcomes.values()) >= 200, outcomes


@pytest.mark.parametrize(
    "progs,sizes",
    [
        ([(0, 2), (1, 2)], [2, 2]),  # residue 1 in both prefixes
        ([(0, 1), (3, 0)], [3, 1]),  # a partition, but 3 > k + 1
        ([(0, 4), (0, 3)], [5, -1]),  # a negative size; the sizes still sum to n
        ([(0, 1), (2, 1)], [2, 1]),  # residue 3 in no prefix
    ],
    ids=["overlap", "above-k-plus-1", "negative", "short"],
)
def test_prefix_cover_self_check_rejects_non_partitions(progs, sizes):
    with pytest.raises(InternalConsistencyError):
        _check_prefix_cover(4, progs, sizes)
    _check_prefix_cover(4, [(0, 1), (2, 1)], [2, 2])


def test_arc_module_class_vector():
    m = ArcModule(3, (Arc(2, 3),))
    assert m.class_vector() == Counter({0: 1, 1: 1, 2: 1})
    m = ArcModule(2, (Arc(0, 3),))
    assert m.class_vector() == Counter({0: 2, 1: 1})


def test_arc_module_composition_length_sums_the_arc_lengths():
    assert ArcModule(3, (Arc(2, 3),)).composition_length == 3
    assert ArcModule(4, (Arc(1, 2), Arc(3, 5))).composition_length == 7
    assert ArcModule(2, ()).composition_length == 0


def test_arc_module_doc_roundtrip():
    doc = {"cycle_length": 4, "arcs": [{"bottom": 1, "length": 2}, {"bottom": 3, "length": 2}]}
    m = ArcModule.from_doc(doc)
    assert m.to_doc() == doc
    with pytest.raises(InvalidSpecificationError):
        ArcModule.from_doc({"arcs": []})


def test_submodule_full_arc_is_whole():
    m = ArcModule(3, (Arc(2, 3),))
    assert full_cycle_submodule(m) == m


def test_submodule_two_halves():
    m = ArcModule(4, (Arc(1, 2), Arc(3, 2)))
    assert full_cycle_submodule(m) == m


def test_submodule_overlong_arc():
    m = ArcModule(2, (Arc(0, 3),))
    sub = full_cycle_submodule(m)
    assert sub == ArcModule(2, (Arc(0, 2),))


def test_submodule_requires_covering():
    m = ArcModule(3, (Arc(0, 1),))
    with pytest.raises(NotACoveringError):
        full_cycle_submodule(m)


def _is_bottom_segment_selection(module, result):
    """Each result arc is a bottom segment of a distinct input arc, in order."""
    inputs = list(module.arcs)
    idx = 0
    for arc in result.arcs:
        while idx < len(inputs) and not (
            inputs[idx].bottom == arc.bottom and arc.length <= inputs[idx].length
        ):
            idx += 1
        assert idx < len(inputs), f"{arc} is not a bottom segment"
        idx += 1


def test_submodule_properties_random():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        arcs = tuple(
            Arc(rng.randrange(n), rng.randint(1, n + 1)) for _ in range(rng.randint(1, 3))
        )
        m = ArcModule(n, arcs)
        if set(m.class_vector()) != set(range(n)):
            with pytest.raises(NotACoveringError):
                full_cycle_submodule(m)
            continue
        sub = full_cycle_submodule(m)
        assert sub.class_vector() == Counter(range(n))
        _is_bottom_segment_selection(m, sub)


def test_quotient_full_arc_gives_zero():
    m = ArcModule(3, (Arc(2, 3),))
    assert full_cycle_quotient(m) == ArcModule(3, ())


def test_quotient_two_halves_gives_zero():
    m = ArcModule(4, (Arc(1, 2), Arc(3, 2)))
    assert full_cycle_quotient(m) == ArcModule(4, ())


def test_quotient_removed_tops_cover_once():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 6)
        arcs = tuple(
            Arc(rng.randrange(n), rng.randint(1, n + 1)) for _ in range(rng.randint(1, 3))
        )
        m = ArcModule(n, arcs)
        if set(m.class_vector()) != set(range(n)):
            continue
        kept = full_cycle_quotient(m)
        removed = m.class_vector() - kept.class_vector()
        assert removed == Counter(range(n))
        _is_bottom_segment_selection(m, kept)


def demo_spec():
    G = make_group([2])
    return TowerSpec(
        G,
        (
            Tower("triv", "faithful", 1, (0,)),
            Tower("fai", "faithful", 2, (0,)),
            Tower("cyc", "cycle", 3, (1,)),
        ),
    )


def test_tower_spec_validation():
    G = make_group([2])
    with pytest.raises(InvalidSpecificationError):
        TowerSpec(G, (Tower("a", "cycle", 1, (0,)), Tower("a", "cycle", 2, (1,))))
    with pytest.raises(InvalidSpecificationError):
        Tower("a", "spiral", 1, (0,))
    with pytest.raises(InvalidSpecificationError):
        Tower("a", "cycle", 0, (0,))


@pytest.mark.parametrize("name", [["T"], 5, None], ids=repr)
def test_tower_names_must_be_strings(name):
    with pytest.raises(InvalidSpecificationError, match="tower name must be a string"):
        Tower(name, "cycle", 1, (1,))
    doc = {"group": {"orders": [2]}, "towers": [{"name": name, "type": "cycle", "length": 1, "class": [1]}]}
    with pytest.raises(InvalidSpecificationError, match="tower name must be a string"):
        TowerSpec.from_doc(doc)


def test_tower_spec_successors():
    spec = demo_spec()
    assert spec.unfaithful_successor("triv.0") is None
    assert spec.unfaithful_successor("fai.0") == "fai.1"
    assert spec.unfaithful_successor("fai.1") is None
    assert spec.unfaithful_successor("cyc.2") == "cyc.0"
    assert spec.is_faithful("fai.0") and spec.is_faithful("triv.0")
    assert not spec.is_faithful("fai.1") and not spec.is_faithful("cyc.0")
    assert spec.unfaithful_simples() == ["fai.1", "cyc.0", "cyc.1", "cyc.2"]


def test_genus_step_trivial_tower_unchanged():
    spec = demo_spec()
    g = standard_genus(spec)
    assert genus_step(g, "triv.0", spec) == g


def test_genus_step_trivial_cycle_tower_unchanged():
    # a length-1 cycle tower is its own successor: the rank drop and rise cancel
    G = make_group([2])
    spec = TowerSpec(G, (Tower("c", "cycle", 1, (1,)),))
    g = GenusVector(1, (("c.0", 2),))
    assert genus_step(g, "c.0", spec) == g
    assert genus_step(GenusVector(1, ()), "c.0", spec) == GenusVector(1, ())


def test_genus_step_faithful_top_adds_successor():
    spec = demo_spec()
    g = standard_genus(spec)
    stepped = genus_step(g, "fai.0", spec)
    assert stepped.rank("fai.1") == g.rank("fai.1") + 1
    assert stepped.udim == g.udim


def test_genus_step_faithful_base_subtracts():
    spec = demo_spec()
    g = standard_genus(spec)
    stepped = genus_step(g, "fai.1", spec)
    assert stepped.rank("fai.1") == g.rank("fai.1") - 1


def test_genus_step_cycle_moves_rank():
    spec = demo_spec()
    g = standard_genus(spec)
    stepped = genus_step(g, "cyc.0", spec)
    assert stepped.rank("cyc.0") == 0
    assert stepped.rank("cyc.1") == 2


def test_genus_step_full_cycle_telescopes():
    spec = demo_spec()
    g = standard_genus(spec)
    for order in itertools.permutations(["cyc.0", "cyc.1", "cyc.2"]):
        stepped = g
        try:
            for label in order:
                stepped = genus_step(stepped, label, spec)
        except InvalidStepError:
            continue  # that order is infeasible from this genus
        assert stepped == g


def test_genus_step_below_zero_raises():
    spec = demo_spec()
    g = GenusVector(1, ())
    with pytest.raises(InvalidStepError):
        genus_step(g, "fai.1", spec)


def test_cycle_standard_rank():
    spec = demo_spec()
    base = standard_genus(spec)
    assert has_cycle_standard_rank(base, spec, base)
    bumped = base.with_ranks(dict(base.ranks) | {"cyc.0": base.rank("cyc.0") + 1})
    assert not has_cycle_standard_rank(bumped, spec, base)
    # rank changes at faithful-tower simples do not affect the relation
    off_cycle = base.with_ranks(dict(base.ranks) | {"fai.1": 5})
    assert has_cycle_standard_rank(off_cycle, spec, base)


def test_cycle_standard_rank_scaled_udim():
    spec = demo_spec()
    base = standard_genus(spec, udim=1, rank=1)
    doubled = standard_genus(spec, udim=2, rank=2)
    assert has_cycle_standard_rank(doubled, spec, base)
    lopsided = GenusVector(2, (("cyc.0", 1), ("cyc.1", 1), ("cyc.2", 1)))
    assert not has_cycle_standard_rank(lopsided, spec, base)


@pytest.mark.parametrize("bad", [True, 1.5])
def test_integer_fields_reject_bools_and_fractions(bad):
    with pytest.raises(InvalidSpecificationError):
        Tower("F", "faithful", bad, (0,))
    with pytest.raises(InvalidSpecificationError):
        GenusVector(bad, ())
    with pytest.raises(InvalidSpecificationError):
        GenusVector(1, (("F.1", bad),))
    with pytest.raises(InvalidSpecificationError):
        Arc(0, bad)
    with pytest.raises(InvalidSpecificationError):
        Arc(bad, 1)
    with pytest.raises(InvalidSpecificationError):
        ArcModule(bad, ())
    for progressions in ([(0, bad), (1, 1)], [(bad, 1), (0, 1)]):
        with pytest.raises(InvalidSpecificationError):
            disjoint_prefix_cover(2, progressions)
    with pytest.raises(InvalidSpecificationError):
        disjoint_prefix_cover(bad, [(0, 0)])
