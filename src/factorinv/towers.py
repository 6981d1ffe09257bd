"""Cyclic covering by progression prefixes, uniserial arc modules, and the
genus update calculus for maximal submodules.

Simple-module classes over a cycle tower of length n are identified with
residues mod n; an indecomposable finite-length module supported on the
tower is uniserial and corresponds to an arc: a descending run of residues
read from its bottom composition factor.  Tower metadata (cycle or faithful,
length, class) drives the genus updates.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .abelian import Element, FinAbGroup, _is_int
from .errors import (
    InternalConsistencyError,
    InvalidElementError,
    InvalidSpecificationError,
    InvalidStepError,
    NotACoveringError,
)


def disjoint_prefix_cover(n: int, progressions) -> list[int]:
    """Prefix sizes that turn a covering by arithmetic progressions into a
    partition of Z/nZ.

    ``progressions`` is a list of pairs (a, k) describing {a, a+1, ..., a+k}
    mod n.  If the progressions jointly cover Z/nZ, returns m_1, ..., m_l
    with m_i in [0, k_i + 1] and sum n such that the prefixes
    {a_i, ..., a_i + m_i - 1} are pairwise disjoint and cover Z/nZ.

    The construction is iterative: while some progression is contained in
    the union of the others, the redundant one of largest index is dropped
    (prefix size 0); once every progression has a private residue, each
    prefix extends to the last private residue of its progression.  Work
    and memory grow with l, not n: residues are read in at most 2l + 1 pieces.
    """
    if not _is_int(n) or n < 1:
        raise InvalidSpecificationError(f"n must be an integer >= 1, got {n!r}")
    progs = []
    for a, k in progressions:
        if not _is_int(a):
            raise InvalidSpecificationError(f"progression start must be an integer, got {a!r}")
        if not _is_int(k) or k < 0:
            raise InvalidSpecificationError(f"progression length offset must be >= 0, got {k!r}")
        progs.append((a % n, k))
    ends, held, holders = _pieces(n, [(a, k + 1) for a, k in progs], "residue {} mod {} is not covered")

    # a drop only hands pieces to the others, so no progression becomes redundant
    # again: one pass from the largest index down drops what each round drops
    for i in reversed(range(len(held))):
        if all(holders[j] > 1 for j in held[i]):
            for j in held[i]:
                holders[j] -= 1
            held[i] = ()
    m = []
    for (a, _), pieces in zip(progs, held):
        private = [j for j in pieces if holders[j] == 1]  # in run order
        m.append((ends[private[-1]] - a - 1) % n + 1 if private else 0)

    _check_prefix_cover(n, progs, m)
    return m


def _pieces(n: int, runs, message: str):
    """Cut Z/nZ at 0 and at both ends of every run (a, size) of the residues
    a, ..., a + size - 1 into sorted pieces [lo, hi).  Returns the piece ends,
    the pieces each run holds in run order and the runs holding each piece;
    raises NotACoveringError(message.format(r, n)) for the lowest r in no run.
    """
    starts = sorted({0, *(a for a, _ in runs), *((a + size) % n for a, size in runs if size < n)})
    held, holders = [], [0] * len(starts)
    for a, size in runs:
        first = bisect_left(starts, a)
        last = first if size >= n else bisect_left(starts, (a + size) % n)
        pieces = range(first, last) if first < last else [*range(first, len(starts)), *range(last)]
        for j in pieces:
            holders[j] += 1
        held.append(pieces)
    if 0 in holders:
        raise NotACoveringError(message.format(starts[holders.index(0)], n))
    return starts[1:] + [n], held, holders


def _check_prefix_cover(n, progs, m):
    # nonzero prefixes that, sorted by start, abut and sum to n tile Z/nZ once
    prefixes = sorted((a % n, size) for (a, _), size in zip(progs, m) if size)
    abut = all(a + size == b for (a, size), (b, _) in zip(prefixes, prefixes[1:]))
    if not abut or sum(m) != n or any(not 0 <= size <= k + 1 for (_, k), size in zip(progs, m)):
        raise InternalConsistencyError(f"prefix selection {m} is not a partition of Z/{n}Z")


@dataclass(frozen=True)
class Arc:
    """Uniserial module over a length-n cycle tower: composition factors,
    bottom to top, are bottom, bottom-1, ..., bottom-(length-1) mod n."""

    bottom: int
    length: int

    def __post_init__(self):
        if not _is_int(self.bottom):
            raise InvalidSpecificationError(f"arc bottom must be an integer, got {self.bottom!r}")
        if not _is_int(self.length) or self.length < 1:
            raise InvalidSpecificationError(f"arc length must be >= 1, got {self.length!r}")


@dataclass(frozen=True)
class ArcModule:
    """Direct sum of arcs over a common cycle tower Z/nZ."""

    cycle_length: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        n = self.cycle_length
        if not _is_int(n) or n < 1:
            raise InvalidSpecificationError(f"cycle length must be >= 1, got {n!r}")
        arcs = tuple(
            a if isinstance(a, Arc) else Arc(*a) for a in self.arcs
        )
        arcs = tuple(Arc(a.bottom % n, a.length) for a in arcs)
        object.__setattr__(self, "arcs", arcs)

    @classmethod
    def from_doc(cls, doc) -> "ArcModule":
        """Build from ``{"cycle_length": n, "arcs": [{"bottom": a, "length": l}, ...]}``."""
        try:
            n = doc["cycle_length"]
            arcs = tuple(Arc(entry["bottom"], entry["length"]) for entry in doc["arcs"])
        except (KeyError, TypeError) as exc:
            raise InvalidSpecificationError(f"malformed arc-module document: {doc!r}") from exc
        return cls(n, arcs)

    def to_doc(self) -> dict:
        return {
            "cycle_length": self.cycle_length,
            "arcs": [{"bottom": a.bottom, "length": a.length} for a in self.arcs],
        }

    @property
    def composition_length(self) -> int:
        return sum(a.length for a in self.arcs)

    def residues_of(self, arc: Arc) -> list[int]:
        """Composition-factor residues of one arc, bottom to top."""
        return [(arc.bottom - j) % self.cycle_length for j in range(arc.length)]

    def class_vector(self) -> Counter:
        out: Counter = Counter()
        for arc in self.arcs:
            out.update(self.residues_of(arc))
        return out


def full_cycle_submodule(module: ArcModule) -> ArcModule:
    """A submodule whose class vector contains each residue exactly once.

    Submodules of a uniserial arc are its bottom segments, so the result is
    the per-arc bottom segments selected by :func:`disjoint_prefix_cover`;
    the input's class vector must cover every residue.
    """
    n = module.cycle_length
    _require_covering(module)
    # bottom segments run downward from each bottom residue; negating
    # residues turns them into ascending progressions
    progs = [((-arc.bottom) % n, arc.length - 1) for arc in module.arcs]
    sizes = disjoint_prefix_cover(n, progs)
    kept = [Arc(arc.bottom, size) for arc, size in zip(module.arcs, sizes) if size > 0]
    return ArcModule(n, tuple(kept))


def full_cycle_quotient(module: ArcModule) -> ArcModule:
    """The submodule L such that the class vector of M/L contains each
    residue exactly once.

    Quotients of a uniserial arc chop off top segments, which are ascending
    runs from the arc's top residue; the removed tops are selected by
    :func:`disjoint_prefix_cover` and the kept bottom segments form L.
    """
    n = module.cycle_length
    _require_covering(module)
    progs = [((arc.bottom - (arc.length - 1)) % n, arc.length - 1) for arc in module.arcs]
    sizes = disjoint_prefix_cover(n, progs)
    kept = [
        Arc(arc.bottom, arc.length - size)
        for arc, size in zip(module.arcs, sizes)
        if arc.length - size > 0
    ]
    return ArcModule(n, tuple(kept))


def _require_covering(module: ArcModule):
    n = module.cycle_length
    runs = [((arc.bottom - (arc.length - 1)) % n, arc.length) for arc in module.arcs]
    _pieces(n, runs, "class vector misses residue {} mod {}")


# -- towers and genus vectors -------------------------------------------------

CYCLE = "cycle"
FAITHFUL = "faithful"


@dataclass(frozen=True)
class Tower:
    """A tower of simple-module classes: cyclically ordered if kind is
    "cycle", linearly ordered with a faithful top if kind is "faithful"."""

    name: str
    kind: str
    length: int
    cls: Element

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise InvalidSpecificationError(f"tower name must be a string, got {self.name!r}")
        if self.kind not in (CYCLE, FAITHFUL):
            raise InvalidSpecificationError(f"tower kind must be 'cycle' or 'faithful', got {self.kind!r}")
        if not _is_int(self.length) or self.length < 1:
            raise InvalidSpecificationError(f"tower length must be >= 1, got {self.length!r}")


@dataclass(frozen=True)
class TowerSpec:
    """A finite family of towers with classes in a common finite abelian group.

    Simples of the tower named T of length n are labeled "T.0" (top) through
    "T.(n-1)" (base).  In a faithful tower only "T.0" is faithful; in a cycle
    tower every simple is unfaithful and the successor relation wraps.
    """

    group: FinAbGroup
    towers: tuple[Tower, ...]

    def __post_init__(self):
        names = [t.name for t in self.towers]
        if len(set(names)) != len(names):
            raise InvalidSpecificationError(f"tower names must be unique: {names}")
        for t in self.towers:
            self.group.check(t.cls)

    @classmethod
    def from_doc(cls, doc) -> "TowerSpec":
        """Build from ``{"group": {...}, "towers": [{"name", "type", "length", "class"}, ...]}``."""
        try:
            group = FinAbGroup.from_doc(doc["group"])
            towers = tuple(
                Tower(
                    name=entry["name"],
                    kind=entry["type"],
                    length=entry["length"],
                    cls=group.element(entry["class"]),
                )
                for entry in doc["towers"]
            )
        except (KeyError, TypeError) as exc:
            raise InvalidSpecificationError(f"malformed tower document: {doc!r}") from exc
        return cls(group, towers)

    def tower(self, name: str) -> Tower:
        for t in self.towers:
            if t.name == name:
                return t
        raise InvalidSpecificationError(f"no tower named {name!r}")

    def simples(self, tower: Tower) -> list[str]:
        return [f"{tower.name}.{i}" for i in range(tower.length)]

    def locate(self, label: str) -> tuple[Tower, int]:
        name, _, pos = label.rpartition(".")
        try:
            index = int(pos)
        except ValueError:
            raise InvalidSpecificationError(f"malformed simple label {label!r}") from None
        tower = self.tower(name)
        if not 0 <= index < tower.length:
            raise InvalidSpecificationError(f"{label!r} is out of range for tower {name!r}")
        return tower, index

    def is_faithful(self, label: str) -> bool:
        tower, index = self.locate(label)
        return tower.kind == FAITHFUL and index == 0

    def unfaithful_successor(self, label: str) -> str | None:
        tower, index = self.locate(label)
        if tower.kind == CYCLE:
            return f"{tower.name}.{(index + 1) % tower.length}"
        if index + 1 < tower.length:
            return f"{tower.name}.{index + 1}"
        return None  # base of a faithful tower has no unfaithful successor

    def unfaithful_simples(self) -> list[str]:
        out = []
        for t in self.towers:
            start = 1 if t.kind == FAITHFUL else 0
            out.extend(f"{t.name}.{i}" for i in range(start, t.length))
        return out


@dataclass(frozen=True)
class GenusVector:
    """Uniform dimension plus the rank at each unfaithful simple class."""

    udim: int
    ranks: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not _is_int(self.udim) or self.udim < 1:
            raise InvalidSpecificationError(f"udim must be a positive integer, got {self.udim!r}")
        items = sorted(dict(self.ranks).items())
        if any(not _is_int(r) or r < 0 for _, r in items):
            raise InvalidSpecificationError(f"ranks must be nonnegative integers: {items}")
        # zero entries are dropped so equality is structural
        object.__setattr__(self, "ranks", tuple((k, v) for k, v in items if v))

    def rank(self, label: str) -> int:
        return dict(self.ranks).get(label, 0)

    def with_ranks(self, ranks: dict[str, int]) -> "GenusVector":
        return GenusVector(self.udim, tuple(sorted(ranks.items())))


def genus_step(g: GenusVector, label: str, spec: TowerSpec) -> GenusVector:
    """Genus of a maximal submodule with simple quotient ``label``.

    The rank at the label drops by one and the rank at its unfaithful
    successor rises by one, with the conventions that a faithful simple
    contributes no drop and a simple without unfaithful successor no rise.
    Uniform dimension is unchanged.  A drop below zero means no such maximal
    submodule exists and raises :class:`InvalidStepError`.
    """
    spec.locate(label)
    ranks = dict(g.ranks)
    if not spec.is_faithful(label):
        ranks[label] = ranks.get(label, 0) - 1
    succ = spec.unfaithful_successor(label)
    if succ is not None:
        ranks[succ] = ranks.get(succ, 0) + 1
    if any(r < 0 for r in ranks.values()):
        raise InvalidStepError(f"rank at {label!r} would drop below zero")
    return g.with_ranks(ranks)


def has_cycle_standard_rank(g: GenusVector, spec: TowerSpec, base: GenusVector) -> bool:
    """Whether ``g`` sums over every cycle tower proportionally to ``base``:
    rank_sum(g, T) * udim(base) == rank_sum(base, T) * udim(g)."""
    for tower in spec.towers:
        if tower.kind != CYCLE:
            continue
        labels = spec.simples(tower)
        mine = sum(g.rank(label) for label in labels)
        theirs = sum(base.rank(label) for label in labels)
        if mine * base.udim != theirs * g.udim:
            return False
    return True


def standard_genus(spec: TowerSpec, udim: int = 1, rank: int = 1) -> GenusVector:
    """A convenient reference genus: the given rank at every unfaithful
    simple of the tower family, uniform dimension ``udim``."""
    return GenusVector(udim, tuple((label, rank) for label in spec.unfaithful_simples()))
