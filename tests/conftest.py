import itertools
from operator import sub

from factorinv.factorize import PresentedMonoid


def partitions(n):
    if n == 0:
        yield []
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or first >= rest[0]:
                yield [first] + rest


def prime_factorization(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def abelian_groups_up_to(max_order):
    """Cyclic-order lists of all abelian groups of order <= max_order, one
    per isomorphism class."""
    groups = []
    for n in range(1, max_order + 1):
        factors = prime_factorization(n)
        per_prime = [list(partitions(e)) for e in factors.values()]
        for combo in itertools.product(*per_prime):
            orders = []
            for p, part in zip(factors.keys(), combo):
                orders.extend(p ** e for e in part)
            groups.append(sorted(orders))
    return groups


class SingleElementWalk(Exception):
    """Raised by a patched factorization listing or single-element length walk."""


def refuse_single_element_walks(monkeypatch, pair_bound=lambda: -1):
    """Make every factorization listing and single-element length walk of a
    :class:`PresentedMonoid` raise :class:`SingleElementWalk`, except the
    length walk of a + b for two atoms a, b with |a| + |b| <= ``pair_bound()``
    (by default, none): the pair pass of ``catenary`` and ``delta``."""

    def refuse(*args):
        raise SingleElementWalk(args)

    length_set = PresentedMonoid._length_set

    def pair_products_only(self, v, memo):
        atoms = set(self.atoms)
        if sum(v) <= pair_bound() and any(tuple(map(sub, v, a)) in atoms for a in atoms):
            return length_set(self, v, memo)
        refuse(self, v, memo)

    monkeypatch.setattr(PresentedMonoid, "_factorizations_from", refuse)
    monkeypatch.setattr(PresentedMonoid, "_length_set", pair_products_only)
