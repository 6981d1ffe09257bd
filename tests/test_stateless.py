"""No query changes a monoid or a lattice: each factorization listing and
length walk keeps its memo for its own call, so one monoid serves threads at
once, and a dropped monoid or lattice is freed without the cycle collector."""

import gc
import sys
import threading
import weakref

import pytest

from factorinv.abelian import make_group
from factorinv.blocks import BlockMonoid, subset_nonzero
from factorinv.chains import builtin, composition_distance, load_lattice
from factorinv.errors import TruncatedEnumerationError
from factorinv.factorize import PresentedMonoid
from factorinv.krull import make_krull

from oracles import principal_grid


def snapshot(x):
    """A copy of ``x`` that compares by value: containers and the attributes
    of objects are copied recursively, anything else (ints, strings,
    functions) is kept as it is."""
    if isinstance(x, dict):
        return {key: snapshot(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x), [snapshot(item) for item in x]
    if hasattr(x, "__dict__") and not callable(x):
        return type(x), snapshot(vars(x))
    return x


def queries(monoid, bound):
    """(name, thunk) for every public query, on the member below ``bound`` with the most factorizations."""
    v = max(monoid.elements(bound), key=lambda w: len(monoid.factorizations(w)))

    def refused():
        with pytest.raises(TruncatedEnumerationError):
            monoid.factorizations(v, limit=1)

    out = [
        ("factorizations", lambda: monoid.factorizations(v)),
        ("refused factorizations", refused),
        ("length_set", lambda: monoid.length_set(v)),
        ("catenary_of", lambda: monoid.catenary_of(v)),
        ("catenary", lambda: monoid.catenary(bound)),
        ("delta", lambda: monoid.delta(bound)),
        ("rho2", lambda: monoid.rho2(bound)),
        ("half_factorial", lambda: monoid.half_factorial(bound)),
    ]
    if hasattr(monoid, "verify_transfer"):
        out += [
            ("verify_transfer", lambda: monoid.verify_transfer(bound)),
            ("fiber_catenary", lambda: monoid.fiber_catenary(bound)),
        ]
    return out


def lattice_queries(lattice, capped):
    """(name, thunk) for every public query; a ``capped`` lattice has more
    than MAX_CHAINS chains, so it refuses to list them."""
    nodes = list(lattice.principal)
    pairs = [(upper, lower) for upper in nodes for lower in nodes]

    def refused():
        with pytest.raises(TruncatedEnumerationError):
            lattice.rigid_factorizations()

    def distances():
        chains = lattice.rigid_factorizations()
        return [composition_distance(a, b) for a in chains for b in chains]

    out = [
        ("length_set", lattice.length_set),
        ("composition_length", lattice.composition_length),
        ("interval_labels", lambda: [lattice.interval_labels(*pair) for pair in pairs if lattice.comparable(*pair)]),
        ("principal_covers_above", lambda: [lattice.principal_covers_above(node) for node in nodes]),
        ("comparable", lambda: [lattice.comparable(*pair) for pair in pairs]),
        ("to_doc", lattice.to_doc),
    ]
    if capped:
        return out + [("refused rigid_factorizations", refused)]
    return out + [("rigid_factorizations", lattice.rigid_factorizations), ("composition_distance", distances)]


def krull_monoid(G):
    return make_krull(G, ["p", "q", "r", "s"], {"p": (1,), "q": (5,), "r": (2,), "s": (1,)})


def krull_monoid_with_a_prime(G):
    """A Krull monoid whose prime o, of class 0, is an atom of norm 1."""
    return make_krull(G, ["o", "p", "q", "r"], {"o": (0,), "p": (1,), "q": (5,), "r": (2,)})


def test_no_query_changes_a_monoid():
    G = make_group([6])
    blocks = BlockMonoid(G, subset_nonzero(G)).presented()
    plain = PresentedMonoid(blocks.alphabet, blocks.membership, blocks.atoms)
    # over all of G the atom 0 is a prime, which the bounded scans split off
    whole = BlockMonoid(G, G.elements()).presented()
    plain_whole = PresentedMonoid(whole.alphabet, whole.membership, whole.atoms)
    for monoid in (blocks, plain, krull_monoid(G), whole, plain_whole, krull_monoid_with_a_prime(G)):
        for name, query in queries(monoid, 8):
            before = snapshot(monoid)
            query()
            assert snapshot(monoid) == before, (monoid.alphabet, name)


def test_no_query_changes_a_lattice():
    lattices = [(builtin("m2r_nonhf"), False), (load_lattice(principal_grid(4, 5)), False),
                (load_lattice(principal_grid(7, 7)), True)]  # 924 chains, over the cap
    for lattice, capped in lattices:
        for name, query in lattice_queries(lattice, capped):
            before = snapshot(lattice)
            query()
            assert snapshot(lattice) == before, (lattice.top, name)


def queried(make, queries_of, *args):
    """A weak reference to a new object after every query on it has run."""
    obj = make()
    for _, query in queries_of(obj, *args):
        query()
    return weakref.ref(obj)


def test_dropped_monoids_and_lattices_are_freed_without_the_cycle_collector():
    G = make_group([6])
    blocks = BlockMonoid(G, subset_nonzero(G)).presented()
    whole = BlockMonoid(G, G.elements()).presented()
    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = {
            "lattice": queried(lambda: builtin("m2r_nonhf"), lattice_queries, False),
            "grid lattice": queried(lambda: load_lattice(principal_grid(7, 7)), lattice_queries, True),
            "block monoid": queried(lambda: BlockMonoid(G, subset_nonzero(G)),
                                    lambda B, bound: queries(B.presented(), bound), 8),
            "presented monoid": queried(lambda: PresentedMonoid(blocks.alphabet, blocks.membership, blocks.atoms),
                                        queries, 8),
            "Krull monoid": queried(lambda: krull_monoid(G), queries, 8),
            "block monoid over G": queried(lambda: BlockMonoid(G, G.elements()),
                                           lambda B, bound: queries(B.presented(), bound), 8),
            "presented monoid over G": queried(lambda: PresentedMonoid(whole.alphabet, whole.membership, whole.atoms),
                                               queries, 8),
            "Krull monoid with a prime": queried(lambda: krull_monoid_with_a_prime(G), queries, 8),
        }
        assert [name for name, ref in refs.items() if ref() is not None] == []
    finally:
        if enabled:
            gc.enable()


def test_one_monoid_lists_factorizations_in_two_threads():
    # each thread's listings are refused part way; a refusal must not disturb
    # the other thread's walk on the same monoid
    G = make_group([7])
    P = BlockMonoid(G, subset_nonzero(G)).presented()
    jobs = {(3,) * 6: 200, (4,) * 6: 1000}  # 263 and 2,751 factorizations
    refusals, errors = [], []

    def work(v, limit):
        for _ in range(10):
            try:
                P.factorizations(v, limit=limit)
            except TruncatedEnumerationError as exc:
                refusals.append(str(exc))
            except Exception as exc:  # any other exception is the failure under test
                errors.append(exc)

    threads = [threading.Thread(target=work, args=job) for job in jobs.items()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(refusals) == sorted(f"element has more than {limit} factorizations" for limit in jobs.values() for _ in range(10))
