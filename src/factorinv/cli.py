"""Command-line front end.

Every subcommand is a thin adapter over the library: it parses input
documents, calls one operation, and renders the result either as aligned
text (default) or as JSON (``--format json``).  Output is deterministic;
size bounds always appear in the report header so truncated scans are never
mistaken for complete ones.  Exit codes: 0 success, 1 usage or validation
error, 2 property violation found by a verify subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import Callable, NamedTuple

from . import chains as chains_mod
from . import towers as towers_mod
from .abelian import FinAbGroup
from .blocks import BlockMonoid, _fmt_element, davenport, subset_from_doc
from .errors import FactorInvError
from .factorize import delta_of_set
from .krull import KrullMonoid, synth_hnp
from .towers import ArcModule, GenusVector, TowerSpec

DEFAULT_KRULL_BOUND = 8
THREADS_ENV = "FACTORINV_THREADS"


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems on exit code 1."""

    def error(self, message):
        raise CliUsageError(message)


class CliUsageError(Exception):
    pass


def _fmt_set(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


# -- input sources -------------------------------------------------------------


def _load_doc(args) -> dict:
    if bool(args.spec) == bool(args.inline):
        raise CliUsageError("exactly one of --spec FILE or --inline JSON is required")
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except OSError as exc:
            raise CliUsageError(f"cannot read {args.spec}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise CliUsageError(f"{args.spec} is not valid JSON: {exc}") from None
    try:
        return json.loads(args.inline)
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"--inline is not valid JSON: {exc}") from None


def _doc_source(from_doc):
    """Loader that builds a library object from the --spec/--inline document."""
    return lambda args: from_doc(_load_doc(args))


def _group_from_args(args) -> FinAbGroup:
    if sum(1 for source in (args.orders, args.spec, args.inline) if source) != 1:
        raise CliUsageError("exactly one input source is required (--orders, --spec, or --inline)")
    if not args.orders:
        return FinAbGroup.from_doc(_load_doc(args))
    try:
        return FinAbGroup(tuple(int(part) for part in args.orders.split(",") if part != ""))
    except ValueError:
        raise CliUsageError(f"cannot parse orders {args.orders!r}") from None


def _block_monoid_from_args(args) -> BlockMonoid:
    """Group plus subset, from --orders/--subset or from a document of the
    form ``{"group": {...}, "subset": "nonzero" | [[residues...], ...]}``."""
    subset_spec = args.subset
    if args.orders:
        group = _group_from_args(args)
    else:
        doc = _load_doc(args)
        if isinstance(doc, dict) and "group" in doc:
            group = FinAbGroup.from_doc(doc["group"])
            subset_spec = doc.get("subset", subset_spec)
        else:
            group = FinAbGroup.from_doc(doc)
    if isinstance(subset_spec, str) and subset_spec not in ("nonzero", "all"):
        try:
            subset_spec = json.loads(subset_spec)
        except json.JSONDecodeError:
            raise CliUsageError(f"--subset must be 'nonzero', 'all', or JSON, got {subset_spec!r}") from None
    return BlockMonoid(group, subset_from_doc(group, subset_spec))


# -- computations: (input, args) -> (result fields, exit code) ------------------
#
# A field named "#name" is shown as the header line "# name: ..." in place of
# the field "name", and is left out of the JSON.


def _blocks_atoms(monoid, args):
    atoms = monoid.atoms()
    return {"orders": monoid.group.orders, "subset": monoid.subset, "atoms": atoms, "count": len(atoms)}, 0


def _blocks_lengths(monoid, args):
    try:
        raw = json.loads(args.sequence)
    except json.JSONDecodeError:
        raise CliUsageError(
            f"--sequence must be a JSON list of residue lists, got {args.sequence!r}") from None
    if not isinstance(raw, list) or not all(isinstance(entry, list) for entry in raw):
        raise CliUsageError("--sequence must be a JSON list of residue lists")
    seq = monoid.sequence([tuple(entry) for entry in raw])
    presented = monoid.presented()
    vector = monoid.vector_of(seq)
    lengths = presented.length_set(vector)
    return {
        "orders": monoid.group.orders,
        "sequence": str(seq),
        "length_set": lengths,
        "delta": delta_of_set(lengths),
        "catenary": presented.catenary_of(vector),
    }, 0


def _blocks_scan(monoid, args):
    """The bounded scan the action names: delta, catenary or rho2."""
    value = getattr(monoid.presented(), args.action)(args.bound)
    return {"orders": monoid.group.orders, "bound": args.bound, args.action: value}, 0


def _krull_verify(monoid, args):
    report = monoid.verify_transfer(args.bound)
    return {"bound": args.bound, **vars(report)}, 0 if report.ok else 2


def _krull_synth(spec, args):
    monoid = synth_hnp(spec)
    return {
        "primes": monoid.primes,
        "classes": monoid.classes,
        "image_classes": monoid.image_classes,
        "atom_count": len(monoid.atoms),
        "#orders": spec.group.orders,
    }, 0


def _towers_comb(_, args):
    try:
        progressions = [(int(a), int(k)) for a, k in (part.split(":") for part in args.arcs.split(","))]
    except ValueError:
        raise CliUsageError(f"cannot parse --arcs {args.arcs!r}; expected 'a:k,a:k,...'") from None
    sizes = towers_mod.disjoint_prefix_cover(args.n, progressions)
    return {"n": args.n, "arcs": progressions, "prefix_sizes": sizes, "#arcs": args.arcs}, 0


def _towers_genus_step(spec, args):
    try:
        raw = json.loads(args.genus)
        genus = GenusVector(raw["udim"], tuple(raw.get("ranks", {}).items()))
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
        raise CliUsageError(
            f"--genus must look like '{{\"udim\": 1, \"ranks\": {{\"T.0\": 1}}}}', got {args.genus!r}"
        ) from None
    stepped = towers_mod.genus_step(genus, args.simple, spec)
    return {"simple": args.simple, "udim": stepped.udim, "ranks": dict(stepped.ranks)}, 0


def _chains(lattice, args):
    """Chains, length set and composition distances of a built-in lattice
    (named by args.name) or of a document; only the length set with --lengths."""
    name = getattr(args, "name", "(document)")
    if getattr(args, "lengths", False):
        return {"lattice": name, "length_set": lattice.length_set()}, 0
    factorizations = lattice.rigid_factorizations()
    lengths = lattice.length_set()
    composition_length = lattice.composition_length()
    distances = [
        [i, j, chains_mod.composition_distance(factorizations[i], factorizations[j])]
        for i in range(len(factorizations))
        for j in range(i + 1, len(factorizations))
    ]
    return {
        "lattice": name,
        "nodes": len(lattice.principal),
        "composition_length": composition_length,
        "chains": [{"nodes": c.nodes, "steps": c.step_labels, "length": c.length} for c in factorizations],
        "length_set": lengths,
        "composition_distances": distances,
    }, 0


# -- text bodies: fields -> lines, or rows of cells that are aligned -----------

# how a field is shown in text when str() is not enough
_SHOW = {
    "orders": lambda orders: ",".join(map(str, orders)) or "-",
    "subset": lambda subset: " ".join(_fmt_element(g) for g in subset),
    "length_set": _fmt_set,
    "delta": _fmt_set,
}


def _chain_lines(fields):
    lines = [f"length_set: {_fmt_set(fields['length_set'])}"]
    for i, chain in enumerate(fields.get("chains", ())):
        steps = " | ".join(",".join(step) for step in chain["steps"])
        lines.append(f"chain[{i}] length {chain['length']} {' < '.join(chain['nodes'])} {steps}")
    return lines + [f"distance[{i},{j}]: {d}" for i, j, d in fields.get("composition_distances", ())]


# -- the command table -----------------------------------------------------------


class Command(NamedTuple):
    """One subcommand: the flags it takes, what it computes, how it reports."""

    topic: str
    action: str
    flags: tuple[str, ...]  # keys of FLAGS, in the order argparse lists them
    load: Callable | None  # args -> the input the source flags describe
    compute: Callable  # (input, args) -> (fields, exit code)
    header: tuple[str, ...]  # fields shown as "# name: value" after the command
    body: tuple[str, ...] | Callable  # fields shown as "name: value" lines, or fields -> rows of cells
    bound: tuple[str, Callable] | None = None  # --bound: (default's help, input -> default)


_SPEC = (("--spec",), {"help": "path to a JSON document"})
_INLINE = (("--inline",), {"help": "inline JSON document"})

FLAGS = {
    "group": [(("--orders",), {"help": "comma-separated cyclic factor orders, e.g. 3,3"}), _SPEC, _INLINE],
    "doc": [_SPEC, _INLINE],
    "subset": [(("--subset",), {"default": "nonzero", "help": "'nonzero', 'all', or JSON residue lists"})],
    "sequence": [(("--sequence",), {"required": True, "help": "JSON list of residue lists"})],
    "n": [(("--n",), {"type": int, "required": True})],
    "arcs": [(("--arcs",), {"required": True, "help": "progressions as 'a:k,a:k,...'"})],
    "genus": [(("--genus",), {"required": True, "help": 'JSON like {"udim": 1, "ranks": {"T.0": 1}}'})],
    "simple": [(("--simple",), {"required": True, "help": "simple label, e.g. T.0"})],
    "name": [(("name",), {})],
    "lengths": [(("--lengths",), {"action": "store_true", "help": "report only the length set"})],
}

_THREADS_HELP = (f"deprecated: checked to be >= 1 (default ${THREADS_ENV}, else 1), then ignored; "
                 "scans run sequentially")
_TWICE_DAVENPORT = ("default: twice the Davenport constant", lambda monoid: 2 * davenport(monoid.group))
_KRULL_BOUND = (f"default {DEFAULT_KRULL_BOUND}", lambda monoid: DEFAULT_KRULL_BOUND)
_MONOID = ("group", "subset")
_LATTICE = ("lattice", "nodes", "composition_length")

COMMANDS = (
    Command("group", "info", ("group",), _group_from_args,
            lambda g, _: ({"orders": g.orders, "cardinality": g.cardinality, "exponent": g.exponent}, 0),
            ("orders",),
            lambda f: [("cardinality", f["cardinality"]), ("exponent", f["exponent"]),
                       ("elements", f["cardinality"])]),
    Command("blocks", "atoms", _MONOID, _block_monoid_from_args, _blocks_atoms, ("orders", "subset"),
            lambda f: [("atom", str(atom), f"length {atom.length}") for atom in f["atoms"]]),
    Command("blocks", "davenport", ("group",), _group_from_args,
            lambda g, _: ({"orders": g.orders, "davenport": davenport(g)}, 0), ("orders",), ("davenport",)),
    Command("blocks", "lengths", _MONOID + ("sequence",), _block_monoid_from_args, _blocks_lengths,
            ("orders", "sequence"), ("length_set", "delta", "catenary")),
    Command("blocks", "delta", _MONOID, _block_monoid_from_args, _blocks_scan, ("orders", "bound"),
            ("delta",), _TWICE_DAVENPORT),
    Command("blocks", "catenary", _MONOID, _block_monoid_from_args, _blocks_scan, ("orders", "bound"),
            ("catenary",), _TWICE_DAVENPORT),
    Command("blocks", "rho2", _MONOID, _block_monoid_from_args, _blocks_scan, ("orders", "bound"),
            ("rho2",), _TWICE_DAVENPORT),
    Command("krull", "verify", ("doc",), _doc_source(KrullMonoid.from_doc), _krull_verify, ("bound",),
            ("ok", "elements_checked", "splits_checked", "surjectivity_checked", "failure"),
            _KRULL_BOUND),
    Command("krull", "fiber-catenary", ("doc",), _doc_source(KrullMonoid.from_doc),
            lambda m, args: ({"bound": args.bound, "fiber_catenary": m.fiber_catenary(args.bound)}, 0),
            ("bound",), ("fiber_catenary",), _KRULL_BOUND),
    Command("krull", "synth", ("doc",), _doc_source(TowerSpec.from_doc), _krull_synth, ("orders",),
            lambda f: [("prime", p, _fmt_element(f["classes"][p])) for p in f["primes"]]),
    Command("towers", "comb", ("n", "arcs"), None, _towers_comb, ("n", "arcs"), ("prefix_sizes",)),
    Command("towers", "submodule", ("doc",), _doc_source(ArcModule.from_doc),
            lambda m, _: ({"module": m.to_doc(), "submodule": towers_mod.full_cycle_submodule(m).to_doc(),
                           "#cycle_length": m.cycle_length}, 0),
            ("cycle_length",),
            lambda f: [("arc", arc["bottom"], f"length {arc['length']}") for arc in f["submodule"]["arcs"]]),
    Command("towers", "genus-step", ("doc", "genus", "simple"), _doc_source(TowerSpec.from_doc),
            _towers_genus_step, ("simple",), lambda f: [("udim", f["udim"]), *f["ranks"].items()]),
    Command("chains", "analyze", ("doc",), _doc_source(chains_mod.load_lattice), _chains, _LATTICE,
            _chain_lines),
    Command("chains", "builtin", ("name", "lengths"), lambda args: chains_mod.builtin(args.name), _chains,
            _LATTICE, _chain_lines),
)


def _execute(command: Command, args):
    source = command.load(args) if command.load else None
    if command.bound:
        if args.bound is None:
            args.bound = command.bound[1](source)
        elif args.bound < 0:
            raise CliUsageError("--bound must be >= 0")
    return command.compute(source, args)


def _render(command: Command, fields: dict, fmt: str, out) -> None:
    name = f"{command.topic} {command.action}"
    if fmt == "json":
        payload = {k: v for k, v in fields.items() if not k.startswith("#")}
        # sequences (the atoms) are written as their (element, multiplicity) counts
        out.write(json.dumps({"command": name, **payload}, sort_keys=True,
                             default=lambda seq: seq.counts) + "\n")
        return
    lines = [f"# command: {name}"]
    for key in command.header:
        value = fields.get("#" + key, fields.get(key))
        if value is not None:
            lines.append(f"# {key}: {_SHOW.get(key, str)(value)}")
    if callable(command.body):
        body = command.body(fields)
    else:  # a field that is None or absent is skipped
        body = [f"{n}: {_SHOW.get(n, str)(fields[n])}" for n in command.body if fields.get(n) is not None]
    if body and all(isinstance(row, tuple) for row in body):
        widths = [max(len(str(row[i])) for row in body) for i in range(len(body[0]))]
        body = ["  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip() for row in body]
    out.write("".join(f"{line}\n" for line in lines + body))


@functools.cache
def build_parser(threads_default: str = "1") -> _Parser:
    """The argparse tree of every command, threads_default (the FACTORINV_THREADS
    value) being the --threads default; built once per value and never changed after."""
    parser = _Parser(prog="factorinv", description=__doc__)
    topics = parser.add_subparsers(dest="topic", required=True)
    actions = {}
    for command in COMMANDS:
        if command.topic not in actions:
            topic = topics.add_parser(command.topic)
            actions[command.topic] = topic.add_subparsers(dest="action", required=True)
        p = actions[command.topic].add_parser(command.action)
        for flag in command.flags:
            for names, options in FLAGS[flag]:
                p.add_argument(*names, **options)
        if command.bound:
            p.add_argument("--bound", type=int, default=None,
                           help=f"1-norm bound for the scan ({command.bound[0]})")
        p.add_argument("--format", choices=("text", "json"), default="text")
        # parse_args converts a string default, so a bad value is a usage error
        p.add_argument("--threads", type=int, default=threads_default, help=_THREADS_HELP)
        p.set_defaults(command=command)
    return parser


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        with contextlib.redirect_stdout(out):  # --help writes to out and exits 0
            args = build_parser(os.environ.get(THREADS_ENV, "1")).parse_args(argv)
        if args.threads < 1:
            raise CliUsageError("--threads must be >= 1")
        fields, code = _execute(args.command, args)
    except (CliUsageError, FactorInvError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except SystemExit as exc:  # after --help
        return exc.code
    _render(args.command, fields, args.format, out)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
