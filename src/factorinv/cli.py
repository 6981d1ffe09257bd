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
import json
import os
import sys

from . import chains as chains_mod
from . import towers as towers_mod
from .abelian import FinAbGroup
from .blocks import BlockMonoid, Sequence, davenport, subset_from_doc
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


def _fmt_element(g) -> str:
    if len(g) == 1:
        return str(g[0])
    return "(" + ",".join(map(str, g)) + ")"


def _fmt_set(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _parse_orders(text: str) -> FinAbGroup:
    try:
        return FinAbGroup(tuple(int(part) for part in text.split(",") if part != ""))
    except ValueError:
        raise CliUsageError(f"cannot parse orders {text!r}") from None


def _load_doc(args) -> dict:
    if getattr(args, "spec", None):
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except OSError as exc:
            raise CliUsageError(f"cannot read {args.spec}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise CliUsageError(f"{args.spec} is not valid JSON: {exc}") from None
    if getattr(args, "inline", None):
        try:
            return json.loads(args.inline)
        except json.JSONDecodeError as exc:
            raise CliUsageError(f"--inline is not valid JSON: {exc}") from None
    raise CliUsageError("exactly one of --spec FILE or --inline JSON is required")


def _group_from_args(args) -> FinAbGroup:
    sources = sum(1 for v in (getattr(args, "orders", None), getattr(args, "spec", None),
                              getattr(args, "inline", None)) if v)
    if sources != 1:
        raise CliUsageError("exactly one input source is required (--orders, --spec, or --inline)")
    if args.orders:
        return _parse_orders(args.orders)
    return FinAbGroup.from_doc(_load_doc(args))


def _block_monoid_from_args(args) -> BlockMonoid:
    """Group plus subset, from --orders/--subset or from a document of the
    form ``{"group": {...}, "subset": "nonzero" | [[residues...], ...]}``."""
    subset_spec = args.subset
    if args.orders:
        group = _group_from_args(args)
    else:
        doc = _load_doc(args)
        if "group" in doc:
            group = FinAbGroup.from_doc(doc["group"])
            if "subset" in doc:
                subset_spec = doc["subset"]
        else:
            group = FinAbGroup.from_doc(doc)
    if isinstance(subset_spec, str) and subset_spec not in ("nonzero", "all"):
        try:
            subset_spec = json.loads(subset_spec)
        except json.JSONDecodeError:
            raise CliUsageError(f"--subset must be 'nonzero', 'all', or JSON, got {subset_spec!r}") from None
    return BlockMonoid(group, subset_from_doc(group, subset_spec))


def _sequence_from_args(monoid: BlockMonoid, text: str) -> Sequence:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        raise CliUsageError(f"--sequence must be a JSON list of residue lists, got {text!r}") from None
    if not isinstance(raw, list) or not all(isinstance(entry, list) for entry in raw):
        raise CliUsageError("--sequence must be a JSON list of residue lists")
    return monoid.sequence([tuple(entry) for entry in raw])


def _render(payload: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    header = payload.get("header", {})
    for key, value in header.items():
        out.write(f"# {key}: {value}\n")
    body = payload.get("body", [])
    if body and all(isinstance(row, (list, tuple)) for row in body):
        widths = [max(len(str(row[i])) for row in body) for i in range(len(body[0]))]
        for row in body:
            cells = [str(cell).ljust(width) for cell, width in zip(row, widths)]
            out.write("  ".join(cells).rstrip() + "\n")
    else:
        for line in body:
            out.write(f"{line}\n")


# -- handlers ------------------------------------------------------------------


def _cmd_group_info(args):
    group = _group_from_args(args)
    payload = {
        "command": "group info",
        "orders": list(group.orders),
        "cardinality": group.cardinality,
        "exponent": group.exponent,
        "header": {"command": "group info", "orders": ",".join(map(str, group.orders)) or "-"},
        "body": [
            ("cardinality", group.cardinality),
            ("exponent", group.exponent),
            ("elements", group.cardinality),
        ],
    }
    return payload, 0


def _cmd_blocks_atoms(args):
    monoid = _block_monoid_from_args(args)
    atoms = monoid.atoms()
    payload = {
        "command": "blocks atoms",
        "orders": list(monoid.group.orders),
        "subset": [list(g) for g in monoid.subset],
        "atoms": [[[list(g), m] for g, m in atom.counts] for atom in atoms],
        "count": len(atoms),
        "header": {
            "command": "blocks atoms",
            "orders": ",".join(map(str, monoid.group.orders)) or "-",
            "subset": " ".join(_fmt_element(g) for g in monoid.subset),
        },
        "body": [("atom", str(atom), f"length {atom.length}") for atom in atoms],
    }
    return payload, 0


def _cmd_blocks_davenport(args):
    group = _group_from_args(args)
    value = davenport(group)
    payload = {
        "command": "blocks davenport",
        "orders": list(group.orders),
        "davenport": value,
        "header": {"command": "blocks davenport", "orders": ",".join(map(str, group.orders)) or "-"},
        "body": [f"davenport: {value}"],
    }
    return payload, 0


def _cmd_blocks_lengths(args):
    monoid = _block_monoid_from_args(args)
    seq = _sequence_from_args(monoid, args.sequence)
    presented = monoid.presented()
    vector = monoid.vector_of(seq)
    lengths = presented.length_set(vector)
    catenary = presented.catenary_of(vector)
    payload = {
        "command": "blocks lengths",
        "orders": list(monoid.group.orders),
        "sequence": str(seq),
        "length_set": list(lengths),
        "delta": list(delta_of_set(lengths)),
        "catenary": catenary,
        "header": {
            "command": "blocks lengths",
            "orders": ",".join(map(str, monoid.group.orders)) or "-",
            "sequence": str(seq),
        },
        "body": [
            f"length_set: {_fmt_set(lengths)}",
            f"delta: {_fmt_set(delta_of_set(lengths))}",
            f"catenary: {catenary}",
        ],
    }
    return payload, 0


def _blocks_bound(args, monoid: BlockMonoid) -> int:
    if args.bound is not None:
        if args.bound < 0:
            raise CliUsageError("--bound must be >= 0")
        return args.bound
    return 2 * davenport(monoid.group)


def _cmd_blocks_delta(args):
    monoid = _block_monoid_from_args(args)
    bound = _blocks_bound(args, monoid)
    value = monoid.presented().delta(bound)
    payload = {
        "command": "blocks delta",
        "orders": list(monoid.group.orders),
        "bound": bound,
        "delta": list(value),
        "header": {
            "command": "blocks delta",
            "orders": ",".join(map(str, monoid.group.orders)) or "-",
            "bound": bound,
        },
        "body": [f"delta: {_fmt_set(value)}"],
    }
    return payload, 0


def _cmd_blocks_catenary(args):
    monoid = _block_monoid_from_args(args)
    bound = _blocks_bound(args, monoid)
    value = monoid.presented().catenary(bound)
    payload = {
        "command": "blocks catenary",
        "orders": list(monoid.group.orders),
        "bound": bound,
        "catenary": value,
        "header": {
            "command": "blocks catenary",
            "orders": ",".join(map(str, monoid.group.orders)) or "-",
            "bound": bound,
        },
        "body": [f"catenary: {value}"],
    }
    return payload, 0


def _cmd_blocks_rho2(args):
    monoid = _block_monoid_from_args(args)
    bound = _blocks_bound(args, monoid)
    value = monoid.presented().rho2(bound)
    payload = {
        "command": "blocks rho2",
        "orders": list(monoid.group.orders),
        "bound": bound,
        "rho2": value,
        "header": {
            "command": "blocks rho2",
            "orders": ",".join(map(str, monoid.group.orders)) or "-",
            "bound": bound,
        },
        "body": [f"rho2: {value}"],
    }
    return payload, 0


def _cmd_krull_verify(args):
    monoid = KrullMonoid.from_doc(_load_doc(args))
    bound = args.bound if args.bound is not None else DEFAULT_KRULL_BOUND
    report = monoid.verify_transfer(bound)
    payload = {
        "command": "krull verify",
        "bound": bound,
        "ok": report.ok,
        "elements_checked": report.elements_checked,
        "splits_checked": report.splits_checked,
        "surjectivity_checked": report.surjectivity_checked,
        "failure": report.failure,
        "header": {"command": "krull verify", "bound": bound},
        "body": [
            f"ok: {report.ok}",
            f"elements_checked: {report.elements_checked}",
            f"splits_checked: {report.splits_checked}",
            f"surjectivity_checked: {report.surjectivity_checked}",
        ]
        + ([f"failure: {report.failure}"] if report.failure else []),
    }
    return payload, 0 if report.ok else 2


def _cmd_krull_fiber(args):
    monoid = KrullMonoid.from_doc(_load_doc(args))
    bound = args.bound if args.bound is not None else DEFAULT_KRULL_BOUND
    value = monoid.fiber_catenary(bound)
    payload = {
        "command": "krull fiber-catenary",
        "bound": bound,
        "fiber_catenary": value,
        "header": {"command": "krull fiber-catenary", "bound": bound},
        "body": [f"fiber_catenary: {value}"],
    }
    return payload, 0


def _cmd_krull_synth(args):
    spec = TowerSpec.from_doc(_load_doc(args))
    monoid = synth_hnp(spec)
    payload = {
        "command": "krull synth",
        "primes": list(monoid.primes),
        "classes": {p: list(monoid.classes[p]) for p in monoid.primes},
        "image_classes": [list(g) for g in monoid.image_classes],
        "atom_count": len(monoid.atoms),
        "header": {
            "command": "krull synth",
            "orders": ",".join(map(str, spec.group.orders)) or "-",
        },
        "body": [
            ("prime", p, _fmt_element(monoid.classes[p])) for p in monoid.primes
        ],
    }
    return payload, 0


def _cmd_towers_comb(args):
    try:
        progressions = []
        for part in args.arcs.split(","):
            a, k = part.split(":")
            progressions.append((int(a), int(k)))
    except ValueError:
        raise CliUsageError(f"cannot parse --arcs {args.arcs!r}; expected 'a:k,a:k,...'") from None
    sizes = towers_mod.disjoint_prefix_cover(args.n, progressions)
    payload = {
        "command": "towers comb",
        "n": args.n,
        "arcs": [[a, k] for a, k in progressions],
        "prefix_sizes": sizes,
        "header": {"command": "towers comb", "n": args.n, "arcs": args.arcs},
        "body": [f"prefix_sizes: [{', '.join(map(str, sizes))}]"],
    }
    return payload, 0


def _cmd_towers_submodule(args):
    module = ArcModule.from_doc(_load_doc(args))
    sub = towers_mod.full_cycle_submodule(module)
    payload = {
        "command": "towers submodule",
        "module": module.to_doc(),
        "submodule": sub.to_doc(),
        "header": {"command": "towers submodule", "cycle_length": module.cycle_length},
        "body": [("arc", arc.bottom, f"length {arc.length}") for arc in sub.arcs]
        or ["zero module"],
    }
    return payload, 0


def _cmd_towers_genus_step(args):
    spec = TowerSpec.from_doc(_load_doc(args))
    try:
        raw = json.loads(args.genus)
        genus = GenusVector(raw["udim"], tuple(raw.get("ranks", {}).items()))
    except (json.JSONDecodeError, KeyError, TypeError):
        raise CliUsageError(
            f"--genus must look like '{{\"udim\": 1, \"ranks\": {{\"T.0\": 1}}}}', got {args.genus!r}"
        ) from None
    stepped = towers_mod.genus_step(genus, args.simple, spec)
    payload = {
        "command": "towers genus-step",
        "simple": args.simple,
        "udim": stepped.udim,
        "ranks": dict(stepped.ranks),
        "header": {"command": "towers genus-step", "simple": args.simple},
        "body": [("udim", stepped.udim)] + [(label, r) for label, r in stepped.ranks],
    }
    return payload, 0


def _chain_rows(factorizations):
    rows = []
    for i, chain in enumerate(factorizations):
        steps = " | ".join(",".join(step) for step in chain.step_labels)
        rows.append((f"chain[{i}]", f"length {chain.length}", " < ".join(chain.nodes), steps))
    return rows


def _analyze_payload(command: str, name: str, lattice) -> dict:
    factorizations = lattice.rigid_factorizations()
    lengths = lattice.length_set()
    composition_length = lattice.composition_length()
    distances = [
        [i, j, chains_mod.composition_distance(factorizations[i], factorizations[j])]
        for i in range(len(factorizations))
        for j in range(i + 1, len(factorizations))
    ]
    return {
        "command": command,
        "lattice": name,
        "nodes": len(lattice.principal),
        "composition_length": composition_length,
        "chains": [
            {"nodes": list(c.nodes), "steps": [list(s) for s in c.step_labels], "length": c.length}
            for c in factorizations
        ],
        "length_set": list(lengths),
        "composition_distances": distances,
        "header": {
            "command": command,
            "lattice": name,
            "nodes": len(lattice.principal),
            "composition_length": composition_length,
        },
        "body": [f"length_set: {_fmt_set(lengths)}"]
        + [" ".join(map(str, row)) for row in _chain_rows(factorizations)]
        + [f"distance[{i},{j}]: {d}" for i, j, d in distances],
    }


def _cmd_chains_analyze(args):
    lattice = chains_mod.load_lattice(_load_doc(args))
    return _analyze_payload("chains analyze", "(document)", lattice), 0


def _cmd_chains_builtin(args):
    lattice = chains_mod.builtin(args.name)
    if args.lengths:
        lengths = lattice.length_set()
        payload = {
            "command": "chains builtin",
            "lattice": args.name,
            "length_set": list(lengths),
            "header": {"command": "chains builtin", "lattice": args.name},
            "body": [f"length_set: {_fmt_set(lengths)}"],
        }
        return payload, 0
    return _analyze_payload("chains builtin", args.name, lattice), 0


# -- parser --------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--threads",
        type=int,
        # parse_args converts a string default, so a bad value is a usage error
        default=os.environ.get(THREADS_ENV, "1"),
        help="worker count for bounded scans; results are independent of it",
    )


def _add_group_source(parser):
    parser.add_argument("--orders", help="comma-separated cyclic factor orders, e.g. 3,3")
    parser.add_argument("--spec", help="path to a JSON document")
    parser.add_argument("--inline", help="inline JSON document")


def _add_doc_source(parser):
    parser.add_argument("--spec", help="path to a JSON document")
    parser.add_argument("--inline", help="inline JSON document")


def build_parser() -> _Parser:
    parser = _Parser(prog="factorinv", description=__doc__)
    top = parser.add_subparsers(dest="topic", required=True)

    group = top.add_parser("group").add_subparsers(dest="action", required=True)
    p = group.add_parser("info")
    _add_group_source(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_group_info)

    blocks = top.add_parser("blocks").add_subparsers(dest="action", required=True)
    for action, handler, needs in (
        ("atoms", _cmd_blocks_atoms, "subset"),
        ("davenport", _cmd_blocks_davenport, None),
        ("lengths", _cmd_blocks_lengths, "sequence"),
        ("delta", _cmd_blocks_delta, "bound"),
        ("catenary", _cmd_blocks_catenary, "bound"),
        ("rho2", _cmd_blocks_rho2, "bound"),
    ):
        p = blocks.add_parser(action)
        _add_group_source(p)
        if needs in ("subset", "sequence", "bound"):
            p.add_argument("--subset", default="nonzero", help="'nonzero', 'all', or JSON residue lists")
        if needs == "sequence":
            p.add_argument("--sequence", required=True, help="JSON list of residue lists")
        if needs == "bound":
            p.add_argument("--bound", type=int, default=None,
                           help="1-norm bound for the scan (default: twice the Davenport constant)")
        _add_common(p)
        p.set_defaults(handler=handler)

    krull = top.add_parser("krull").add_subparsers(dest="action", required=True)
    for action, handler, bounded in (
        ("verify", _cmd_krull_verify, True),
        ("fiber-catenary", _cmd_krull_fiber, True),
        ("synth", _cmd_krull_synth, False),
    ):
        p = krull.add_parser(action)
        _add_doc_source(p)
        if bounded:
            p.add_argument("--bound", type=int, default=None,
                           help=f"1-norm bound for the scan (default {DEFAULT_KRULL_BOUND})")
        _add_common(p)
        p.set_defaults(handler=handler)

    towers = top.add_parser("towers").add_subparsers(dest="action", required=True)
    p = towers.add_parser("comb")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--arcs", required=True, help="progressions as 'a:k,a:k,...'")
    _add_common(p)
    p.set_defaults(handler=_cmd_towers_comb)
    p = towers.add_parser("submodule")
    _add_doc_source(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_towers_submodule)
    p = towers.add_parser("genus-step")
    _add_doc_source(p)
    p.add_argument("--genus", required=True, help='JSON like {"udim": 1, "ranks": {"T.0": 1}}')
    p.add_argument("--simple", required=True, help="simple label, e.g. T.0")
    _add_common(p)
    p.set_defaults(handler=_cmd_towers_genus_step)

    chains = top.add_parser("chains").add_subparsers(dest="action", required=True)
    p = chains.add_parser("analyze")
    _add_doc_source(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_chains_analyze)
    p = chains.add_parser("builtin")
    p.add_argument("name")
    p.add_argument("--lengths", action="store_true", help="report only the length set")
    _add_common(p)
    p.set_defaults(handler=_cmd_chains_builtin)

    return parser


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise CliUsageError("--threads must be >= 1")
        payload, code = args.handler(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FactorInvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    fmt = args.format
    if fmt == "json":
        payload = {k: v for k, v in payload.items() if k not in ("header", "body")}
    _render(payload, fmt, out)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
