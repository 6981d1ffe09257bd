"""Seeded job lists for the three benchmark workloads.

Every job is a plain JSON-able dict, so "same seed, same inputs" can be
checked byte for byte.  This module does not import factorinv: the library
receives only the generated inputs.

Each workload keeps the amount of work fixed across seeds and lets the seed
change what the library sees, so that runs with different seeds can be
compared.  The job order is fixed too: a job's time depends on the jobs
run before it in the same process, and a seeded order would make that
differ from seed to seed.

* ``zero_sum_scan``: a fixed list of (group, operation, bound) jobs; the seed
  shuffles the order of the cyclic factors of each group.
* ``krull_transfer``: the 50 isomorphism types of the criterion-6/7 batch;
  the seed re-presents each one through a random group automorphism, a
  random order of the primes and fresh prime names.
* ``lattice_cli``: grid lattices have fixed shapes that the seed relabels
  and may transpose; genus walks have fixed tower lengths and prefix covers
  fixed moduli.  The seed draws the walks' groups, classes and step order,
  the covers' arcs and the few remaining small CLI calls.

Every job carries a ``key`` naming what its result depends on, so a result
pinned for one seed is checked again whenever another seed produces the same
key.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from functools import reduce
from math import gcd, prod

WORKLOADS = ("zero_sum_scan", "krull_transfer", "lattice_cli")
DEFAULT_SEED = 1

KRULL_BOUND = 5
# criterion 6/7 of the acceptance suite draws its batch from this seed
KRULL_TEMPLATE_SEED = 20260811
KRULL_GROUPS = [[1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2]]
# the fixed grid shapes come from this seed, never from the run's seed
GRID_SHAPE_SEED = 4099

# (orders, [(operation, bound), ...]); bounds are chosen so one pass over
# the list takes a few seconds, and reach 2*D(G) wherever that fits
ZERO_SUM_PLAN = [
    ([5], [("catenary", 10), ("delta", 10), ("rho2", 10), ("half_factorial", 10)]),
    ([6], [("catenary", 12), ("delta", 12), ("rho2", 12), ("half_factorial", 12)]),
    # C7 catenary at 14 would take 2.4 s, about as long as the rest of a pass,
    # and leave too few passes per run for steady per-job times
    ([7], [("catenary", 10), ("delta", 10), ("rho2", 14), ("half_factorial", 14)]),
    ([8], [("catenary", 8), ("delta", 8), ("rho2", 16), ("half_factorial", 16)]),
    ([2, 4], [("catenary", 8), ("delta", 8), ("rho2", 10), ("half_factorial", 10)]),
    ([2, 6], [("half_factorial", 7)]),
    ([3, 3], [("catenary", 7), ("delta", 8), ("rho2", 10), ("half_factorial", 10)]),
    ([2, 2, 2], [("catenary", 8), ("delta", 8), ("rho2", 8), ("half_factorial", 8)]),
    # C2^4 at its Davenport constant: bound 6 already takes seconds per scan
    ([2, 2, 2, 2], [("catenary", 5)]),
]
ZERO_SUM_TINY = ([5], [2, 2, 2])

# (rows, columns, minimum chains, maximum chains) of the grid shapes; the
# bands keep the chain count, and so the work, the same for every seed
GRID_SHAPES = (
    [(8, 8, 30, 45)] * 2 + [(7, 7, 15, 25)] * 4 + [(6, 8, 12, 25)] * 3 + [(6, 7, 10, 20)] * 3
    + [(6, 6, 6, 12)] * 4 + [(5, 5, 4, 8)] * 4 + [(4, 6, 3, 7)] * 2 + [(4, 4, 2, 4)] * 2
)
# (faithful tower length, cycle tower lengths) of the principal genus walks;
# each walk passes once through every tower, so it takes a fixed number of steps
GENUS_WALKS = [(2, (2,)), (1, (3,)), (3, (1,)), (2, (1, 1))]
COMB_SIZES = [5 + i % 8 for i in range(20)]


# -- groups --------------------------------------------------------------------


def invariant_factors(orders) -> list[int]:
    """Invariant factors n1 | n2 | ... of the product of cyclic groups."""
    powers: dict[int, list[int]] = {}
    for n in orders:
        p = 2
        while n > 1:
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n //= p
                    q *= p
                powers.setdefault(p, []).append(q)
            p += 1
    rank = max((len(v) for v in powers.values()), default=0)
    out = [1] * rank
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            out[rank - 1 - i] *= q
    return out


def olson_davenport(orders) -> int:
    """D(G) = 1 + sum(n_i - 1) over the invariant factors (Olson; exact for
    p-groups and rank <= 2, which covers every group of order <= 16)."""
    return 1 + sum(n - 1 for n in invariant_factors(orders))


def group_name(orders) -> str:
    return "x".join(f"C{n}" for n in invariant_factors(orders)) or "C1"


def _elements(orders):
    return list(itertools.product(*(range(n) for n in orders)))


def _random_automorphism(orders, rng):
    """A uniformly drawn automorphism of Z/n1 + ... + Z/nr, as a function on
    residue tuples: draw generator images of matching order until the map is
    a bijection."""
    elements = _elements(orders)

    def image(x, gens):
        return tuple(
            sum(xi * h[c] for xi, h in zip(x, gens)) % n for c, n in enumerate(orders)
        )

    candidates = [
        [h for h in elements if all((n * r) % m == 0 for r, m in zip(h, orders))]
        for n in orders
    ]
    while True:
        gens = [rng.choice(c) for c in candidates]
        if len({image(x, gens) for x in elements}) == len(elements):
            return lambda x, gens=gens: image(x, gens)


# -- zero_sum_scan -------------------------------------------------------------


def _zero_sum_jobs(rng):
    jobs = []
    for orders, scans in ZERO_SUM_PLAN:
        name = group_name(orders)
        for op, bound in [("davenport", None), ("atoms", None)] + scans:
            presented = list(orders)
            rng.shuffle(presented)
            suffix = "" if bound is None else f":b{bound}"
            jobs.append({
                "key": f"{op}:{name}{suffix}",
                "op": op,
                "orders": presented,
                "bound": bound,
            })
    return jobs


# -- krull_transfer ------------------------------------------------------------


def krull_templates():
    """The criterion-6/7 batch: (orders, class of each prime) for 50 draws."""
    rng = random.Random(KRULL_TEMPLATE_SEED)
    out = []
    for _ in range(50):
        nprimes = rng.randint(1, 10)
        orders = rng.choice(KRULL_GROUPS)
        elements = _elements(orders)
        out.append((orders, [rng.choice(elements) for _ in range(nprimes)]))
    return out


def _krull_jobs(rng):
    jobs = []
    for index, (orders, classes) in enumerate(krull_templates()):
        phi = _random_automorphism(orders, rng)
        moved = [phi(c) for c in classes]
        rng.shuffle(moved)
        stem = rng.choice("pqrs")
        primes = [f"{stem}{i}" for i in range(len(moved))]
        jobs.append({
            "key": f"krull:t{index:02d}:{group_name(orders)}:{len(classes)}p:b{KRULL_BOUND}",
            "orders": list(orders),
            "primes": primes,
            "classes": {p: list(c) for p, c in zip(primes, moved)},
            "bound": KRULL_BOUND,
        })
    return jobs


# -- lattice_cli ---------------------------------------------------------------


def _grid_ranks(rows, cols, rng):
    """Rank vectors of the two coordinate chains; a grid node is principal
    when its two ranks sum to 2, as in the built-in m2r_nonhf."""
    first, last = rng.randint(0, 2), rng.randint(0, 2)
    r1 = [first] + [rng.randint(0, 2) for _ in range(rows - 2)] + [last]
    r2 = [2 - first] + [rng.randint(0, 2) for _ in range(cols - 2)] + [2 - last]
    return r1, r2


def grid_chain_stats(r1, r2):
    """Number of maximal principal chains and their length set, computed on
    the grid directly (node (i, j) lies below (k, l) iff i >= k and j >= l)."""
    principal = [(i, j) for i, a in enumerate(r1) for j, b in enumerate(r2) if a + b == 2]
    top, bottom = (0, 0), (len(r1) - 1, len(r2) - 1)

    def above(p):
        return [q for q in principal if q != p and q[0] <= p[0] and q[1] <= p[1]]

    covers = {}
    for p in principal:
        up = above(p)
        covers[p] = [q for q in up if not any(r != q and r[0] >= q[0] and r[1] >= q[1] for r in up)]
    # walk up from the bottom in order of decreasing coordinate sum
    counts = {bottom: {0: 1}}
    for p in sorted(principal, key=lambda q: -(q[0] + q[1])):
        for q in covers[p]:
            target = counts.setdefault(q, {})
            for length, n in counts.get(p, {}).items():
                target[length + 1] = target.get(length + 1, 0) + n
    at_top = counts.get(top, {})
    return sum(at_top.values()), sorted(at_top)


def _grid_doc(r1, r2, rng, transpose):
    simples = [f"{rng.choice('SUVW')}{i}" for i in range(4)]
    labels1 = [rng.choice(simples) for _ in range(len(r1) - 1)]
    labels2 = [rng.choice(simples) for _ in range(len(r2) - 1)]
    if transpose:
        r1, r2, labels1, labels2 = r2, r1, labels2, labels1
    stem = rng.choice(["n", "I", "J"])

    def node(i, j):
        return f"{stem}{i}.{j}"

    nodes = [
        {"id": node(i, j), "principal": a + b == 2}
        for i, a in enumerate(r1)
        for j, b in enumerate(r2)
    ]
    covers = []
    for i in range(len(r1)):
        for j in range(len(r2)):
            if i + 1 < len(r1):
                covers.append({"upper": node(i, j), "lower": node(i + 1, j), "label": labels1[i]})
            if j + 1 < len(r2):
                covers.append({"upper": node(i, j), "lower": node(i, j + 1), "label": labels2[j]})
    return {
        "simples": simples,
        "nodes": nodes,
        "covers": covers,
        "top": node(0, 0),
        "bottom": node(len(r1) - 1, len(r2) - 1),
    }


def fixed_grid_shapes():
    """Rank vectors of the grids, with chain counts in each shape's band.
    They come from a fixed seed; the run's seed only relabels them."""
    rng = random.Random(GRID_SHAPE_SEED)
    shapes = []
    for rows, cols, low, high in GRID_SHAPES:
        while True:
            r1, r2 = _grid_ranks(rows, cols, rng)
            if low <= grid_chain_stats(r1, r2)[0] <= high:
                shapes.append((r1, r2))
                break
    return shapes


def _cli_job(kind, argv, expect=None):
    argv = list(argv) + ["--format", "json"]
    digest = hashlib.sha256(json.dumps(argv).encode()).hexdigest()[:16]
    return {"key": f"cli:{kind}:{digest}", "kind": kind, "argv": argv, "expect": expect or {}}


def _analyze_job(r1, r2, rng):
    doc = _grid_doc(r1, r2, rng, transpose=rng.random() < 0.5)
    chains, lengths = grid_chain_stats(r1, r2)
    return _cli_job(
        "chains_analyze",
        ["chains", "analyze", "--inline", json.dumps(doc)],
        {"chains": chains, "length_set": lengths, "nodes": len(r1) * len(r2)},
    )


def _covering(n, rng):
    while True:
        progs = [(rng.randrange(n), rng.randint(n // 4, n - 1)) for _ in range(rng.randint(2, 4))]
        covered = {(a + j) % n for a, k in progs for j in range(k + 1)}
        if len(covered) == n:
            return progs


def _tower_spec(rng, faithful_length, cycle_lengths):
    orders = rng.choice([[2], [3], [2, 2]])
    elements = _elements(orders)
    towers = [{"name": "F", "type": "faithful", "length": faithful_length,
               "class": list(rng.choice(elements))}]
    for t, length in enumerate(cycle_lengths):
        towers.append({"name": f"C{t}", "type": "cycle", "length": length,
                       "class": list(rng.choice(elements))})
    return {"group": {"orders": orders}, "towers": towers}


def _simples(tower):
    return [f"{tower['name']}.{i}" for i in range(tower["length"])]


def _genus_walk(rng, faithful_length, cycle_lengths):
    """CLI jobs for one principal genus walk: the class multiset is every
    tower once, applied in a feasible seeded order, so the walk must end at
    its base genus.  Each job expects the genus the step rule gives."""
    spec = _tower_spec(rng, faithful_length, cycle_lengths)
    towers = spec["towers"]
    base = {}
    for t in towers:
        for i, label in enumerate(_simples(t)):
            if not (t["type"] == "faithful" and i == 0):
                base[label] = 1
    pending = [label for t in towers for label in _simples(t)]
    by_name = {t["name"]: t for t in towers}
    genus = dict(base)
    jobs = []
    while pending:
        rng.shuffle(pending)
        for i, label in enumerate(pending):
            nxt = _step(genus, label, by_name)
            if nxt is not None:
                break
        else:
            raise RuntimeError(f"genus walk is stuck at {genus} with {pending}")
        pending.pop(i)
        argv = ["towers", "genus-step", "--inline", json.dumps(spec),
                "--genus", json.dumps({"udim": 1, "ranks": genus}, sort_keys=True),
                "--simple", label]
        jobs.append(_cli_job("genus_step", argv, {"ranks": {k: v for k, v in nxt.items() if v}}))
        genus = nxt
    # the last step's expected genus is the base, so its check covers the walk
    if {k: v for k, v in genus.items() if v} != {k: v for k, v in base.items() if v}:
        raise RuntimeError("principal genus walk did not return to its base")
    return jobs


def _step(genus, label, towers):
    """The genus update for a maximal submodule with simple quotient
    ``label``, or None when the rank at ``label`` would drop below zero."""
    name, _, pos = label.rpartition(".")
    tower, index = towers[name], int(pos)
    out = dict(genus)
    if not (tower["type"] == "faithful" and index == 0):
        out[label] = out.get(label, 0) - 1
        if out[label] < 0:
            return None
    if tower["type"] == "cycle":
        succ = f"{name}.{(index + 1) % tower['length']}"
    elif index + 1 < tower["length"]:
        succ = f"{name}.{index + 1}"
    else:
        succ = None
    if succ is not None:
        out[succ] = out.get(succ, 0) + 1
    return out


def _zero_sum_sequence(orders, rng):
    elements = [g for g in _elements(orders) if any(g)]
    seq = [rng.choice(elements) for _ in range(rng.randint(3, 6))]
    total = tuple(sum(g[c] for g in seq) % n for c, n in enumerate(orders))
    if any(total):
        seq.append(tuple((-r) % n for r, n in zip(total, orders)))
    return seq


def _lattice_jobs(rng):
    jobs = [_analyze_job(r1, r2, rng) for r1, r2 in fixed_grid_shapes()]
    for name in ("m2a_embed", "m2a_uniserial", "m2r_nonhf", "weyl_x2y"):
        jobs.append(_cli_job("chains_builtin", ["chains", "builtin", name], {"name": name}))
    for n in COMB_SIZES:
        progs = _covering(n, rng)
        arcs = ",".join(f"{a}:{k}" for a, k in progs)
        jobs.append(_cli_job("towers_comb", ["towers", "comb", "--n", str(n), "--arcs", arcs],
                             {"n": n, "arcs": [list(p) for p in progs]}))
    for faithful_length, cycle_lengths in GENUS_WALKS:
        jobs.extend(_genus_walk(rng, faithful_length, cycle_lengths))
    for _ in range(3):
        orders = rng.choice([[6], [2, 4], [3, 3], [2, 2, 2], [4, 4], [2, 6]])
        jobs.append(_cli_job("group_info", ["group", "info", "--orders", ",".join(map(str, orders))],
                             {"cardinality": prod(orders), "exponent": reduce(lambda a, b: a * b // gcd(a, b), orders)}))
        orders = rng.choice([[3], [4], [5], [2, 2]])
        seq = _zero_sum_sequence(orders, rng)
        jobs.append(_cli_job("blocks_lengths", ["blocks", "lengths", "--orders", ",".join(map(str, orders)),
                                                "--sequence", json.dumps([list(g) for g in seq])]))
        spec = _tower_spec(rng, 1, [rng.randint(1, 4) for _ in range(rng.randint(1, 2))])
        jobs.append(_cli_job("krull_synth", ["krull", "synth", "--inline", json.dumps(spec)],
                             {"towers": [t["name"] for t in spec["towers"]]}))
    return jobs


_MAKERS = {
    "zero_sum_scan": _zero_sum_jobs,
    "krull_transfer": _krull_jobs,
    "lattice_cli": _lattice_jobs,
}

# the cheap jobs that the benchmark's own tests run
_TINY = {
    "zero_sum_scan": lambda job: sorted(job["orders"]) in ZERO_SUM_TINY,
    "krull_transfer": lambda job: len(job["primes"]) <= 3,
    "lattice_cli": lambda job: job["expect"].get("nodes", 0) <= 16,
}


def make_jobs(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The job list of ``workload`` for ``seed``; ``tiny`` keeps only its
    cheap jobs, for the benchmark's own tests."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    jobs = _MAKERS[workload](random.Random(f"{workload}:{seed}"))
    return [job for job in jobs if _TINY[workload](job)] if tiny else jobs
