import random
from collections import Counter

import pytest

from factorinv.chains import (
    BUILTIN_NAMES,
    MAX_CHAINS,
    IdealLattice,
    builtin,
    composition_distance,
    load_lattice,
)
from factorinv.errors import (
    CoverCycleError,
    ExtremaError,
    IncomparableError,
    InvalidSpecificationError,
    LabelMultisetError,
    LatticeValidationError,
    NonPrincipalBoundError,
    TruncatedEnumerationError,
    UnknownBuiltinError,
)

from oracles import ExhaustiveLattice, principal_grid
from test_stateless import snapshot


def total_order(labels=("s", "s"), principal=(True, True, True)):
    n = len(labels) + 1
    return {
        "simples": sorted(set(labels)),
        "nodes": [{"id": f"n{i}", "principal": principal[i]} for i in range(n)],
        "covers": [
            {"upper": f"n{i}", "lower": f"n{i+1}", "label": labels[i]}
            for i in range(len(labels))
        ],
        "top": "n0",
        "bottom": f"n{n-1}",
    }


def test_load_total_order():
    lattice = load_lattice(total_order())
    assert lattice.composition_length() == 2
    chains = lattice.rigid_factorizations()
    assert len(chains) == 1
    assert chains[0].length == 2


def test_load_rejects_cycle():
    doc = total_order()
    doc["covers"].append({"upper": "n2", "lower": "n0", "label": "s"})
    with pytest.raises(CoverCycleError):
        load_lattice(doc)


def test_load_rejects_shortcut_cover():
    doc = total_order()
    doc["covers"].append({"upper": "n0", "lower": "n2", "label": "s"})
    with pytest.raises((CoverCycleError, LabelMultisetError)):
        load_lattice(doc)


def test_load_rejects_multiple_tops():
    doc = total_order()
    doc["nodes"].append({"id": "stray", "principal": True})
    doc["covers"].append({"upper": "stray", "lower": "n2", "label": "s"})
    with pytest.raises(ExtremaError):
        load_lattice(doc)


def test_load_rejects_label_mismatch():
    doc = {
        "simples": ["a", "b"],
        "nodes": [
            {"id": "top", "principal": True},
            {"id": "l", "principal": True},
            {"id": "r", "principal": True},
            {"id": "bot", "principal": True},
        ],
        "covers": [
            {"upper": "top", "lower": "l", "label": "a"},
            {"upper": "top", "lower": "r", "label": "b"},
            {"upper": "l", "lower": "bot", "label": "a"},
            {"upper": "r", "lower": "bot", "label": "b"},
        ],
        "top": "top",
        "bottom": "bot",
    }
    with pytest.raises(LabelMultisetError):
        load_lattice(doc)


def test_load_accepts_consistent_diamond():
    doc = {
        "simples": ["a", "b"],
        "nodes": [
            {"id": "top", "principal": True},
            {"id": "l", "principal": True},
            {"id": "r", "principal": False},
            {"id": "bot", "principal": True},
        ],
        "covers": [
            {"upper": "top", "lower": "l", "label": "a"},
            {"upper": "top", "lower": "r", "label": "b"},
            {"upper": "l", "lower": "bot", "label": "b"},
            {"upper": "r", "lower": "bot", "label": "a"},
        ],
        "top": "top",
        "bottom": "bot",
    }
    lattice = load_lattice(doc)
    chains = lattice.rigid_factorizations()
    assert [c.nodes for c in chains] == [("bot", "l", "top")]


def test_load_rejects_names_that_are_not_strings():
    numbered = {"simples": ["s"], "nodes": [{"id": 1, "principal": True}, {"id": 2, "principal": True}],
                "covers": [{"upper": 1, "lower": 2, "label": "s"}], "top": 1, "bottom": 2}
    cases = [
        (total_order(labels=(1,)), r"^simples must be a list of strings, got \[1\]$"),
        ({**total_order(labels=("S",)), "simples": "S"}, "^simples must be a list of strings, got 'S'$"),
        (numbered, "^node id must be a string, got 1$"),
    ]
    for doc, message in cases:
        with pytest.raises(InvalidSpecificationError, match=message):
            load_lattice(doc)


def test_load_rejects_a_cover_given_twice():
    # a Hasse diagram has no repeated edge, with the same label or another
    for label in ("s", "t"):
        doc = total_order(labels=("s",))
        doc["simples"] = ["s", "t"]
        doc["covers"].append({"upper": "n0", "lower": "n1", "label": label})
        with pytest.raises(InvalidSpecificationError, match="^cover 'n0' -> 'n1' is given twice$"):
            load_lattice(doc)


def test_load_rejects_nonprincipal_extrema():
    doc = total_order(principal=(False, True, True))
    with pytest.raises(NonPrincipalBoundError):
        load_lattice(doc)
    doc = total_order(principal=(True, True, False))
    with pytest.raises(NonPrincipalBoundError):
        load_lattice(doc)


def test_builtin_names_and_unknown():
    assert set(BUILTIN_NAMES) == {"weyl_x2y", "m2a_embed", "m2a_uniserial", "m2r_nonhf"}
    with pytest.raises(UnknownBuiltinError):
        builtin("nosuch")


def test_builtin_weyl_chains():
    lattice = builtin("weyl_x2y")
    chains = lattice.rigid_factorizations()
    assert sorted(c.length for c in chains) == [2, 3]
    assert lattice.length_set() == (2, 3)


def test_builtin_weyl_distance():
    chains = builtin("weyl_x2y").rigid_factorizations()
    short = next(c for c in chains if c.length == 2)
    long = next(c for c in chains if c.length == 3)
    assert composition_distance(short, long) == 2
    assert composition_distance(short, short) == 0


def test_builtin_uniserial_unique_chain():
    lattice = builtin("m2a_uniserial")
    chains = lattice.rigid_factorizations()
    assert len(chains) == 1
    assert chains[0].length == 2
    # the two steps carry different simple classes
    assert chains[0].step_labels[0] != chains[0].step_labels[1]


def test_builtin_embed_length_two():
    lattice = builtin("m2a_embed")
    chains = lattice.rigid_factorizations()
    assert len(chains) == 1
    assert lattice.length_set() == (2,)


def test_builtin_nonhf_length_set():
    lattice = builtin("m2r_nonhf")
    assert lattice.length_set() == (2, 3)
    chains = lattice.rigid_factorizations()
    assert sorted(c.length for c in chains) == [2, 2, 3]


def test_nonhf_distance_between_unequal_lengths():
    chains = builtin("m2r_nonhf").rigid_factorizations()
    by_len = {}
    for c in chains:
        by_len.setdefault(c.length, []).append(c)
    d = composition_distance(by_len[2][0], by_len[3][0])
    assert d >= 2


def test_chain_maximality():
    # no principal node refines any step of any returned chain
    for name in BUILTIN_NAMES:
        lattice = builtin(name)
        for chain in lattice.rigid_factorizations():
            for lower, upper in zip(chain.nodes, chain.nodes[1:]):
                between = [
                    n
                    for n in lattice.principal
                    if n not in (lower, upper)
                    and lattice.principal[n]
                    and lattice.comparable(upper, n)
                    and lattice.comparable(n, lower)
                ]
                assert not between


def test_chain_lengths_bounded_by_composition_length():
    for name in BUILTIN_NAMES:
        lattice = builtin(name)
        total = lattice.composition_length()
        for chain in lattice.rigid_factorizations():
            assert chain.length <= total
            assert sum(len(s) for s in chain.step_labels) == total


def test_step_labels_are_interval_multisets():
    lattice = builtin("weyl_x2y")
    for chain in lattice.rigid_factorizations():
        for (lower, upper), labels in zip(
            zip(chain.nodes, chain.nodes[1:]), chain.step_labels
        ):
            assert Counter(labels) == lattice.interval_labels(upper, lower)


def test_composition_distance_identical_multisets():
    # chains with equal step-label multisets in any order are at distance 0
    doc = {
        "simples": ["a", "b"],
        "nodes": [
            {"id": "top", "principal": True},
            {"id": "l", "principal": True},
            {"id": "r", "principal": True},
            {"id": "bot", "principal": True},
        ],
        "covers": [
            {"upper": "top", "lower": "l", "label": "a"},
            {"upper": "top", "lower": "r", "label": "b"},
            {"upper": "l", "lower": "bot", "label": "b"},
            {"upper": "r", "lower": "bot", "label": "a"},
        ],
        "top": "top",
        "bottom": "bot",
    }
    chains = load_lattice(doc).rigid_factorizations()
    assert len(chains) == 2
    assert composition_distance(chains[0], chains[1]) == 0


def test_composition_distance_different_lattices():
    c1 = builtin("weyl_x2y").rigid_factorizations()[0]
    c2 = builtin("m2a_embed").rigid_factorizations()[0]
    with pytest.raises(IncomparableError):
        composition_distance(c1, c2)


def test_builtin_doc_roundtrip():
    for name in BUILTIN_NAMES:
        lattice = builtin(name)
        again = IdealLattice.from_doc(lattice.to_doc())
        assert again.length_set() == lattice.length_set()


def random_grid(rng):
    """A product of two labeled chains, as in the benchmark's grids, with a
    random principal pattern; then, most of the time, one perturbation:
    a swapped label, a shortcut cover, a back edge closing a cycle, a stray
    second top, or a non-principal extremum."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 4)
    simples = ["a", "b", "c"]
    down = [rng.choice(simples) for _ in range(rows)]
    across = [rng.choice(simples) for _ in range(cols)]

    def node(i, j):
        return f"n{i}.{j}"

    nodes = [
        {"id": node(i, j), "principal": (i, j) in ((0, 0), (rows - 1, cols - 1)) or rng.random() < 0.5}
        for i in range(rows)
        for j in range(cols)
    ]
    covers = [
        {"upper": node(i, j), "lower": node(i + 1, j), "label": down[i]}
        for i in range(rows - 1)
        for j in range(cols)
    ] + [
        {"upper": node(i, j), "lower": node(i, j + 1), "label": across[j]}
        for i in range(rows)
        for j in range(cols - 1)
    ]
    doc = {"simples": simples, "nodes": nodes, "covers": covers,
           "top": node(0, 0), "bottom": node(rows - 1, cols - 1)}
    kind = rng.choice(["none", "none", "label", "shortcut", "cycle", "stray", "extremum"])
    if kind == "label" and covers:
        cover = rng.choice(covers)
        cover["label"] = rng.choice([s for s in simples if s != cover["label"]])
    elif kind == "shortcut" and rows + cols > 3:
        i, j = rng.randrange(rows), rng.randrange(cols)
        k, l = rng.randint(i, rows - 1), rng.randint(j, cols - 1)
        if (k - i) + (l - j) >= 2:
            covers.append({"upper": node(i, j), "lower": node(k, l), "label": rng.choice(simples)})
    elif kind == "cycle":
        i, j = rng.randrange(rows), rng.randrange(cols)
        k, l = rng.randint(0, i), rng.randint(0, j)
        covers.append({"upper": node(i, j), "lower": node(k, l), "label": rng.choice(simples)})
    elif kind == "stray":
        nodes.append({"id": "stray", "principal": True})
        lower = rng.choice(nodes[:-1])["id"]
        covers.append({"upper": "stray", "lower": lower, "label": rng.choice(simples)})
    elif kind == "extremum":
        rng.choice([nodes[0], nodes[-1]])["principal"] = False
    rng.shuffle(nodes)
    rng.shuffle(covers)
    return doc


def validation_outcome(build, doc):
    try:
        return build(doc), None
    except LatticeValidationError as exc:
        return None, type(exc)


def test_random_grids_match_the_exhaustive_oracle():
    rng = random.Random(20161)
    seen = Counter()
    for _ in range(400):
        doc = random_grid(rng)
        lattice, error = validation_outcome(load_lattice, doc)
        oracle, oracle_error = validation_outcome(ExhaustiveLattice, doc)
        assert error is oracle_error, doc
        seen[error] += 1
        if lattice is None:
            continue
        for upper in lattice.principal:
            assert lattice.principal_covers_above(upper) == oracle.principal_covers_above(upper)
            for lower in lattice.principal:
                assert lattice.comparable(upper, lower) == oracle.comparable(upper, lower)
                if oracle.comparable(upper, lower):
                    assert lattice.interval_labels(upper, lower) == oracle.interval_labels(upper, lower)
                else:
                    with pytest.raises(IncomparableError):
                        lattice.interval_labels(upper, lower)
        chains = lattice.rigid_factorizations()
        assert [(c.nodes, c.step_labels) for c in chains] == oracle.chains()
        assert lattice.length_set() == tuple(sorted({c.length for c in chains}))
        assert lattice.composition_length() == sum(oracle.interval_labels(doc["top"], doc["bottom"]).values())
    assert set(seen) == {None, CoverCycleError, ExtremaError, LabelMultisetError, NonPrincipalBoundError}
    assert min(seen.values()) >= 10, seen


def test_deep_total_order_needs_no_recursion():
    lattice = load_lattice(total_order(labels=("s",) * 1499, principal=(True,) * 1500))
    assert lattice.composition_length() == 1499
    assert lattice.length_set() == (1499,)
    (chain,) = lattice.rigid_factorizations()
    assert chain.nodes == tuple(f"n{i}" for i in reversed(range(1500)))


def test_chains_are_capped_while_they_are_listed():
    assert MAX_CHAINS == 500
    assert len(load_lattice(principal_grid(6, 6)).rigid_factorizations()) == 252
    for size in (7, 32):  # C(12, 6) = 924 chains, and C(62, 31) ≈ 4.65e17
        lattice = load_lattice(principal_grid(size, size))
        before = snapshot(lattice)
        with pytest.raises(TruncatedEnumerationError, match="^lattice has more than 500 maximal principal chains$"):
            lattice.rigid_factorizations()
        assert snapshot(lattice) == before  # a cut walk leaves nothing behind
        assert lattice.length_set() == (2 * size - 2,)  # uncapped: it lists no chains
        assert lattice.composition_length() == 2 * size - 2
