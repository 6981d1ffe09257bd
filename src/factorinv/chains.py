"""Finite labeled lattices of right ideals: maximal chains of principal
nodes model rigid factorizations, and step-label multisets, derived once
at validation, drive the composition distance.  No query changes a lattice.

The built-in lattices transcribe intervals of principal right ideals in
matrix rings over the first Weyl algebra A = K<x, y | xy - yx = 1> and over
the idealizer subring K + xA.  They are data, not symbolic computations:
the nodes, principality flags, and cover labels record known module facts
about those rings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import (
    CoverCycleError,
    ExtremaError,
    IncomparableError,
    InvalidSpecificationError,
    LabelMultisetError,
    NonPrincipalBoundError,
    TruncatedEnumerationError,
    UnknownBuiltinError,
)
from .factorize import _lengths, _multiset_distance

# rigid_factorizations lists at most this many chains; callers such as the CLI
# then compare every pair of them
MAX_CHAINS = 500


@dataclass(frozen=True)
class Chain:
    """A maximal chain of principal nodes, bottom to top, together with the
    label multiset of each step (sorted tuples), counted once on creation."""

    nodes: tuple[str, ...]
    step_labels: tuple[tuple[str, ...], ...]
    lattice: "IdealLattice" = field(compare=False, repr=False)
    _steps: Counter = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_steps", Counter(self.step_labels))

    @property
    def length(self) -> int:
        return len(self.step_labels)


class IdealLattice:
    """Cover DAG of right ideals with principality flags and simple labels.

    Validation enforces: a finite poset given by its Hasse diagram with a
    unique top and bottom, Jordan-Hoelder consistency (all maximal cover
    paths between two comparable nodes carry equal label multisets), and
    principal top and bottom.  It walks one topological order and keeps per
    node its descendant bitset, its label counts below the top and its
    principal covers with their step labels; queries only read them.
    Validation takes O(V + E) steps on V-bit sets; chains cost their total
    length to list, at most MAX_CHAINS of them, and ``length_set`` lists none.
    """

    def __init__(self, simples, nodes, covers, top, bottom):
        if not isinstance(simples, (list, tuple)) or not all(isinstance(s, str) for s in simples):
            raise InvalidSpecificationError(f"simples must be a list of strings, got {simples!r}")
        self.simples = tuple(simples)
        self.principal = {}
        for node in nodes:
            node_id, flag = node["id"], node["principal"]
            if not isinstance(node_id, str):
                raise InvalidSpecificationError(f"node id must be a string, got {node_id!r}")
            if node_id in self.principal:
                raise InvalidSpecificationError(f"duplicate node id {node_id!r}")
            if not isinstance(flag, bool):
                raise InvalidSpecificationError(f"principal flag of {node_id!r} must be boolean")
            self.principal[node_id] = flag
        self.covers = []
        self._below: dict[str, dict[str, str]] = {n: {} for n in self.principal}  # lower -> label, per upper
        for cover in covers:
            upper, lower, label = cover["upper"], cover["lower"], cover["label"]
            for node_id in (upper, lower):
                if node_id not in self.principal:
                    raise InvalidSpecificationError(f"cover references unknown node {node_id!r}")
            if label not in self.simples:
                raise InvalidSpecificationError(f"cover label {label!r} is not a declared simple")
            if lower in self._below[upper]:
                raise InvalidSpecificationError(f"cover {upper!r} -> {lower!r} is given twice")
            self.covers.append((upper, lower, label))
            self._below[upper][lower] = label
        self.top = top
        self.bottom = bottom
        self._validate()
        self._covers_above = self._principal_covers()

    @classmethod
    def from_doc(cls, doc) -> "IdealLattice":
        """Build and validate a lattice from its document form."""
        try:
            return cls(doc["simples"], doc["nodes"], doc["covers"], doc["top"], doc["bottom"])
        except (KeyError, TypeError) as exc:
            raise InvalidSpecificationError(f"malformed lattice document: {doc!r}") from exc

    def to_doc(self) -> dict:
        return {
            "simples": list(self.simples),
            "nodes": [{"id": n, "principal": p} for n, p in self.principal.items()],
            "covers": [{"upper": u, "lower": l, "label": lab} for u, l, lab in self.covers],
            "top": self.top,
            "bottom": self.bottom,
        }

    # -- validation ---------------------------------------------------------

    def _validate(self):
        nodes = set(self.principal)
        if self.top not in nodes or self.bottom not in nodes:
            raise ExtremaError("declared top or bottom is not a node")

        # acyclicity: Kahn's algorithm, the order grows while it is walked
        indegree = dict.fromkeys(self.principal, 0)
        for _, lower, _ in self.covers:
            indegree[lower] += 1
        order = [n for n, d in indegree.items() if d == 0]
        for node in order:
            for child in self._below[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    order.append(child)
        if len(order) < len(nodes):
            stuck = next(n for n, d in indegree.items() if d)
            raise CoverCycleError(f"cycle in covers at or above {stuck!r}")
        self._order = order
        self._index = {n: i for i, n in enumerate(order)}

        uppers = {u for u, _, _ in self.covers}
        lowers = {l for _, l, _ in self.covers}
        maximal = nodes - lowers
        minimal = nodes - uppers
        if maximal != {self.top}:
            raise ExtremaError(f"expected unique top {self.top!r}, maximal nodes are {sorted(maximal)}")
        if minimal != {self.bottom}:
            raise ExtremaError(f"expected unique bottom {self.bottom!r}, minimal nodes are {sorted(minimal)}")

        # Hasse condition: no cover edge duplicates a longer descending path,
        # that is, no other child of the upper node reaches the lower one
        self._reach = reach = {}
        for node in reversed(order):
            bits = 1 << self._index[node]
            for child in self._below[node]:
                bits |= reach[child]
            reach[node] = bits
        for upper, lower, _ in self.covers:
            for child in self._below[upper]:
                if child != lower and self.comparable(child, lower):
                    raise CoverCycleError(f"cover {upper!r} -> {lower!r} shortcuts a longer path")

        # Jordan-Hoelder consistency: every node lies below the unique top
        # and label multisets cancel, so all paths between two nodes agree
        # when every path from the top to each node carries the same counts
        self._labels = tuple(dict.fromkeys(self.simples))
        slot = {label: k for k, label in enumerate(self._labels)}
        self._counts = counts = {self.top: (0,) * len(slot)}
        for node in order:
            base = counts[node]
            for child, label in self._below[node].items():
                k = slot[label]
                step = base[:k] + (base[k] + 1,) + base[k + 1:]
                if counts.setdefault(child, step) != step:
                    raise LabelMultisetError(
                        f"paths from {self.top!r} to {child!r} carry different label multisets"
                    )

        if not self.principal[self.top]:
            raise NonPrincipalBoundError(f"top {self.top!r} must be principal")
        if not self.principal[self.bottom]:
            raise NonPrincipalBoundError(f"bottom {self.bottom!r} must be principal")

    def _principal_covers(self) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
        """Per node, top-down, its minimal principal strict ancestors with the
        sorted labels of the step up to each: the minimal ones among its
        principal parents and the sets already found for its other parents."""
        order, reach = self._order, self._reach
        candidates = dict.fromkeys(order, 0)
        out = {}
        for node in order:
            rest = mask = candidates[node]
            keep, kept = 0, []
            while rest:
                low = rest & -rest
                rest ^= low
                above = order[low.bit_length() - 1]
                if reach[above] & mask == low:
                    keep |= low
                    kept.append((above, tuple(sorted(self._step(above, node).elements()))))
            out[node] = sorted(kept)
            passed = 1 << self._index[node] if self.principal[node] else keep
            for child in self._below[node]:
                candidates[child] |= passed
        return out

    def _step(self, upper: str, lower: str) -> Counter:
        """Label multiset from upper down to lower, in declaration order."""
        pairs = zip(self._labels, self._counts[upper], self._counts[lower])
        return Counter({label: b - a for label, a, b in pairs if b > a})

    # -- intervals and chains -------------------------------------------------

    def interval_labels(self, upper: str, lower: str) -> Counter:
        """Label multiset of any cover path from upper to lower (well defined
        by validation)."""
        if not self.comparable(upper, lower):
            raise IncomparableError(f"{lower!r} is not below {upper!r}")
        return self._step(upper, lower)

    def comparable(self, upper: str, lower: str) -> bool:
        return bool(self._reach[upper] >> self._index[lower] & 1)

    def composition_length(self) -> int:
        return sum(self._counts[self.bottom])

    def principal_covers_above(self, node: str) -> list[str]:
        """Principal nodes strictly above ``node`` with no principal node in
        between."""
        return [upper for upper, _ in self._covers_above[node]]

    def rigid_factorizations(self) -> tuple[Chain, ...]:
        """All maximal chains of principal nodes from bottom to top.

        Maximality means no principal node lies strictly between consecutive
        chain nodes, so each step is an atom; its label multiset is the
        interval's composition-factor multiset.  A lattice with more than
        MAX_CHAINS of them raises TruncatedEnumerationError during the walk.
        """
        chains, path, steps = [], [], []
        stack = [(self.bottom, 0, ())]
        while stack:
            node, depth, step = stack.pop()
            path[depth:], steps[depth:] = [node], [step]
            if node == self.top:
                if len(chains) == MAX_CHAINS:
                    raise TruncatedEnumerationError(
                        f"lattice has more than {MAX_CHAINS} maximal principal chains")
                chains.append(Chain(tuple(path), tuple(steps[1:]), self))
            stack.extend((upper, depth + 1, labels) for upper, labels in self._covers_above[node])
        return tuple(sorted(chains, key=lambda c: c.nodes))

    def length_set(self) -> tuple[int, ...]:
        """Lengths of the maximal principal chains, by dynamic programming
        up the principal covers (bit k of a node's mask: some chain from the
        bottom reaches it in k steps)."""
        reached = {self.bottom: 1}
        for node in reversed(self._order):
            for upper, _ in self._covers_above[node] if node in reached else ():
                reached[upper] = reached.get(upper, 0) | reached[node] << 1
        return _lengths(reached[self.top])


def composition_distance(c1: Chain, c2: Chain) -> int:
    """Distance between two chains of one lattice: steps are identified when
    their label multisets agree; matched steps cancel and the larger
    remaining count is returned."""
    if c1.lattice is not c2.lattice:
        raise IncomparableError("chains belong to different lattices")
    return _multiset_distance(c1._steps, c2._steps)


# -- built-in lattices --------------------------------------------------------

# x^2 y = (1 + xy) x in the first Weyl algebra A.  The interval [x^2 y A, A]
# has composition length 3; the ideal x^2 A + (1+xy) A is stably free but not
# principal, so the route through (1+xy)A cannot be refined by principal
# ideals and contributes a rigid factorization of length 2.
_WEYL_X2Y = {
    "simples": ["A/xA", "A/yA"],
    "nodes": [
        {"id": "A", "principal": True},
        {"id": "xA", "principal": True},
        {"id": "x2A", "principal": True},
        {"id": "x2A+(1+xy)A", "principal": False},
        {"id": "(1+xy)A", "principal": True},
        {"id": "x2yA", "principal": True},
    ],
    "covers": [
        {"upper": "A", "lower": "xA", "label": "A/xA"},
        {"upper": "xA", "lower": "x2A", "label": "A/xA"},
        {"upper": "x2A", "lower": "x2yA", "label": "A/yA"},
        {"upper": "A", "lower": "x2A+(1+xy)A", "label": "A/xA"},
        {"upper": "x2A+(1+xy)A", "lower": "(1+xy)A", "label": "A/yA"},
        {"upper": "(1+xy)A", "lower": "x2yA", "label": "A/xA"},
    ],
    "top": "A",
    "bottom": "x2yA",
}

# diag(1+xy, 1) in the 2x2 matrix ring over A: the interval below the full
# ring is the submodule lattice of A/(1+xy)A, of length 2, and the
# intermediate ideal corresponds to the free module A + (x^2 A + (1+xy) A);
# both steps are simple, so 1+xy is a product of two atoms.
_M2A_EMBED = {
    "simples": ["A/xA", "A/yA"],
    "nodes": [
        {"id": "A+A", "principal": True},
        {"id": "A+I", "principal": True},
        {"id": "(1+xy)A+A", "principal": True},
    ],
    "covers": [
        {"upper": "A+A", "lower": "A+I", "label": "A/xA"},
        {"upper": "A+I", "lower": "(1+xy)A+A", "label": "A/yA"},
    ],
    "top": "A+A",
    "bottom": "(1+xy)A+A",
}

# diag(x(x-y), 1) in the 2x2 matrix ring over A: A/x(x-y)A is uniserial with
# the unique series A > xA > x(x-y)A, so the element has exactly one rigid
# factorization even though its two atoms have non-isomorphic quotients.
_M2A_UNISERIAL = {
    "simples": ["A/xA", "A/(x-y)A"],
    "nodes": [
        {"id": "A", "principal": True},
        {"id": "xA", "principal": True},
        {"id": "x(x-y)A", "principal": True},
    ],
    "covers": [
        {"upper": "A", "lower": "xA", "label": "A/xA"},
        {"upper": "xA", "lower": "x(x-y)A", "label": "A/(x-y)A"},
    ],
    "top": "A",
    "bottom": "x(x-y)A",
}


def _m2r_nonhf() -> dict:
    """Non-half-factorial example in the 2x2 matrix ring over the idealizer
    R = K + xA of xA.

    The interval between x(x-y)R + I and R + R (first and second coordinate
    chains R > xA > x(x-y)A > x(x-y)R and R > J > I, with J = xR + (1+xy)R
    and I = x^2 A + (1+xy) R) is transcribed as the product grid of the two
    chains.  Simples: W1 = A/R and W2 = R/xA form the single non-trivial
    faithful tower (top W1, base W2); V = A/(x-y)A stays simple over R.  A
    grid node is principal exactly when its two coordinate ranks at W2 sum
    to 2: the computed ranks are 1, 0, 0, 1 down the first chain and 1, 2, 1
    down the second.  The ideal class group of R is trivial, yet the length
    set below is {2, 3}.
    """
    first = ["R", "xA", "x(x-y)A", "x(x-y)R"]
    first_labels = ["W2", "V", "W1"]
    first_rank = [1, 0, 0, 1]
    second = ["R", "J", "I"]
    second_labels = ["W1", "W2"]
    second_rank = [1, 2, 1]

    def node_id(i, j):
        return f"{first[i]}+{second[j]}"

    nodes = [
        {"id": node_id(i, j), "principal": first_rank[i] + second_rank[j] == 2}
        for i in range(len(first))
        for j in range(len(second))
    ]
    covers = []
    for i in range(len(first)):
        for j in range(len(second)):
            if i + 1 < len(first):
                covers.append(
                    {"upper": node_id(i, j), "lower": node_id(i + 1, j), "label": first_labels[i]}
                )
            if j + 1 < len(second):
                covers.append(
                    {"upper": node_id(i, j), "lower": node_id(i, j + 1), "label": second_labels[j]}
                )
    return {
        "simples": ["W1", "W2", "V"],
        "nodes": nodes,
        "covers": covers,
        "top": node_id(0, 0),
        "bottom": node_id(len(first) - 1, len(second) - 1),
    }


_BUILTINS = {
    "weyl_x2y": _WEYL_X2Y,
    "m2a_embed": _M2A_EMBED,
    "m2a_uniserial": _M2A_UNISERIAL,
    "m2r_nonhf": _m2r_nonhf(),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str) -> IdealLattice:
    """One of the built-in example lattices, validated on load."""
    try:
        doc = _BUILTINS[name]
    except KeyError:
        raise UnknownBuiltinError(
            f"no builtin lattice {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return IdealLattice.from_doc(doc)


def load_lattice(doc) -> IdealLattice:
    """Validate and load a lattice document."""
    return IdealLattice.from_doc(doc)
