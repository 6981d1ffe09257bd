"""Per-layer spans for factorinv, recorded from outside the library.

:meth:`Tracer.install` wraps every public function and method of the layer
modules (``abelian``, ``blocks``, ``factorize``, ``krull``, ``towers``,
``chains``, ``cli``), including explicit constructors and
``Sequence.__mul__``; :meth:`Tracer.uninstall` puts the originals back.  A
call counts toward the layer of the module that defines the function, also
when it arrives through an alias in another module.  Generator functions
get one span per resumption, so their time is the time spent producing
items.  Properties are attributes, not entry points, and are not wrapped.

Spans are kept in memory as four parallel arrays (layer, parent, start,
end); a layer's self time is the time its spans cover minus the time their
child spans cover.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("abelian", "blocks", "factorize", "krull", "towers", "chains", "cli")

# metric -> entry points whose time, counted once per outermost entry, it sums
TIMED = {
    "blocks.atoms_s": ("blocks.BlockMonoid.atoms",),
    "blocks.davenport_s": ("blocks.davenport",),
    "factorize.elements_s": ("factorize.PresentedMonoid.elements",),
    "factorize.catenary_of_s": ("factorize.PresentedMonoid.catenary_of",),
    "factorize.length_set_s": ("factorize.PresentedMonoid.length_set",),
    "krull.construct_s": ("krull.KrullMonoid.__init__",),
    "krull.verify_s": ("krull.KrullMonoid.verify_transfer",),
    "krull.fiber_catenary_s": ("krull.KrullMonoid.fiber_catenary",),
    "chains.validate_s": ("chains.load_lattice", "chains.builtin"),
    "chains.rigid_s": ("chains.IdealLattice.rigid_factorizations",),
    "chains.length_set_s": ("chains.IdealLattice.length_set",),
    "towers.cover_s": ("towers.disjoint_prefix_cover",),
}

# metric -> entry points whose calls it counts
COUNTED = {
    "blocks.sequences_built": (
        "blocks.Sequence.from_counts",
        "blocks.Sequence.from_elements",
        "blocks.Sequence.__mul__",
        "blocks.Sequence.quotient",
    ),
    "factorize.catenary_of_calls": ("factorize.PresentedMonoid.catenary_of",),
    "krull.beta_calls": ("krull.KrullMonoid.beta",),
    "krull.lift_calls": ("krull.KrullMonoid.lift_factorization",),
    "krull.two_splits_calls": ("krull.KrullMonoid.two_splits",),
    "towers.genus_steps": ("towers.genus_step",),
}

# counts taken from arguments and results rather than from entries
RESULT_COUNTS = (
    "factorize.members",
    "factorize.membership_tests",
    "krull.splits_checked",
    "chains.chains",
    "cli.bytes_out",
)

# (metric name, unit) of everything :meth:`Tracer.metrics` reports
PER_LAYER = (
    [(f"{layer}.calls", "count") for layer in LAYERS]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(name, "s") for name in TIMED]
    + [(name, "count") for name in COUNTED]
    + [(name, "count") for name in RESULT_COUNTS]
)

_TIMED_BY_KEY = {key: metric for metric, keys in TIMED.items() for key in keys}
_COUNTED_BY_KEY = {key: metric for metric, keys in COUNTED.items() for key in keys}
_DONE = object()


class Tracer:
    """Span recorder for one process; wraps the library while installed."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        """Forget every span and total recorded so far."""
        self.layer = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._depth: Counter = Counter()
        self._stack: list[list] = []  # [span index, start, time covered by children]

    def _open(self, lid, timed, counted, is_call=True):
        idx = len(self.start)
        self.layer.append(lid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        if is_call:
            self.calls[lid] += 1
            if counted:
                self.counts[counted] += 1
        if timed:
            self._depth[timed] += 1
        now = time.perf_counter()
        self.start.append(now)
        self._stack.append([idx, now, 0.0])
        return idx

    def _close(self, idx, timed):
        now = time.perf_counter()
        _, began, covered = self._stack.pop()
        duration = now - began
        self.end[idx] = now
        self.self_s[self.layer[idx]] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        if timed:
            self._depth[timed] -= 1
            if not self._depth[timed]:
                self.inclusive[timed] += duration

    def metrics(self) -> dict[str, float]:
        """Per-layer totals since the last :meth:`reset`."""
        out = {}
        for lid, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[lid]
            out[f"{layer}.self_s"] = self.self_s[lid]
        for name in TIMED:
            out[name] = self.inclusive.get(name, 0.0)
        for name in list(COUNTED) + list(RESULT_COUNTS):
            out[name] = self.counts.get(name, 0)
        return out

    def write(self, path) -> None:
        """Write the recorded spans: one JSON header line, then the layer
        (int8), parent (int64, -1 for none), start and end (float64, seconds
        on the perf_counter clock) arrays, each ``count`` entries long."""
        header = {
            "layers": list(LAYERS),
            "count": len(self.start),
            "arrays": [["layer", self.layer.typecode, self.layer.itemsize],
                       ["parent", self.parent.typecode, self.parent.itemsize],
                       ["start", self.start.typecode, self.start.itemsize],
                       ["end", self.end.typecode, self.end.itemsize]],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.layer, self.parent, self.start, self.end):
                arr.tofile(handle)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, layer, key):
        lid = LAYERS.index(layer)
        timed = _TIMED_BY_KEY.get(key)
        counted = _COUNTED_BY_KEY.get(key)
        before = _BEFORE.get(key)
        after = _AFTER.get(key)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            item_counter = "factorize.members" if key == "factorize.PresentedMonoid.elements" else None

            def traced_generator(*args, **kwargs):
                tracer.calls[lid] += 1
                if counted:
                    tracer.counts[counted] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(lid, timed, counted, is_call=False)
                    try:
                        item = next(gen, _DONE)
                    finally:
                        tracer._close(idx, timed)
                    if item is _DONE:
                        return
                    if item_counter:
                        tracer.counts[item_counter] += 1
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            if before:
                args, kwargs = before(tracer, args, kwargs)
            idx = tracer._open(lid, timed, counted)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, timed)
            if after:
                after(tracer, result, args, kwargs)
            return result

        return traced

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap the public entry points of every layer module."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "factorinv" or n.startswith("factorinv."))]
        try:
            for layer in LAYERS:
                module = sys.modules[f"factorinv.{layer}"]
                for name, obj in list(vars(module).items()):
                    if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                        continue
                    if inspect.isfunction(obj):
                        wrapped = self._wrap(obj, layer, f"{layer}.{name}")
                        for mod in package:
                            for alias, value in list(vars(mod).items()):
                                if value is obj:
                                    self._patch(mod, alias, wrapped)
                    elif inspect.isclass(obj):
                        self._install_class(obj, layer)
        except BaseException:
            self.uninstall()
            raise

    def _install_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__":
                if dataclasses.is_dataclass(cls):
                    continue  # generated field assignment, not an entry point
            elif attr != "__mul__" and attr.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, layer, key)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, layer, key))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _count_membership(tracer, args, kwargs):
    """Replace the membership predicate handed to PresentedMonoid with one
    that counts its calls."""
    if "membership" in kwargs:
        predicate = kwargs["membership"]
    else:
        predicate = args[2]
    counts = tracer.counts

    def membership(v):
        counts["factorize.membership_tests"] += 1
        return predicate(v)

    if "membership" in kwargs:
        kwargs = dict(kwargs, membership=membership)
    else:
        args = args[:2] + (membership,) + args[3:]
    return args, kwargs


def _count_splits(tracer, report, args, kwargs):
    tracer.counts["krull.splits_checked"] += report.splits_checked


def _count_chains(tracer, chains, args, kwargs):
    tracer.counts["chains.chains"] += len(chains)


def _count_bytes(tracer, code, args, kwargs):
    out = kwargs["out"] if "out" in kwargs else (args[1] if len(args) > 1 else None)
    if hasattr(out, "getvalue"):
        tracer.counts["cli.bytes_out"] += len(out.getvalue().encode())


_BEFORE = {"factorize.PresentedMonoid.__init__": _count_membership}
_AFTER = {
    "krull.KrullMonoid.verify_transfer": _count_splits,
    "chains.IdealLattice.rigid_factorizations": _count_chains,
    "cli.run": _count_bytes,
}
