"""Output checks for benchmark jobs.

Each job result is checked twice: against facts that hold for every seed
(:func:`problems`), and against a digest of its canonical result pinned for
the job's key (:func:`digest`, ``pinned.json``).  Canonical results keep only
what does not depend on how the seed presented the input, so one pinned
digest serves every seed that produces the same key.
"""

from __future__ import annotations

import hashlib
import json
import os
from math import prod

from workloads import group_name, invariant_factors, olson_davenport

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")

BUILTIN_LENGTH_SETS = {
    "weyl_x2y": [2, 3],
    "m2r_nonhf": [2, 3],
    "m2a_embed": [2],
    "m2a_uniserial": [2],
}


def load_pins() -> dict[str, str]:
    with open(PINNED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def digest(canonical) -> str:
    return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()[:16]


def canonical(workload: str, job: dict, result):
    """The part of a job's result that any presentation of its input shares."""
    if workload == "zero_sum_scan":
        op = job["op"]
        if op == "atoms":
            lengths: dict[int, int] = {}
            for atom in result:
                lengths[atom.length] = lengths.get(atom.length, 0) + 1
            return {"count": len(result), "lengths": sorted(lengths.items())}
        if op == "half_factorial":
            ok, witness = result
            return [ok, None if witness is None else sum(witness[0])]
        if op == "delta":
            return list(result)
        return result
    if workload == "krull_transfer":
        report, fiber = result
        return [report.ok, report.elements_checked, report.splits_checked,
                report.surjectivity_checked, report.failure, fiber]
    code, text = result
    return [code, hashlib.sha256(text.encode()).hexdigest()]


def problems(workload: str, job: dict, result) -> list[str]:
    """Violations of results that hold for any seed."""
    if workload == "zero_sum_scan":
        return _zero_sum_problems(job, result)
    if workload == "krull_transfer":
        report, fiber = result
        out = []
        if not report.ok or report.failure is not None:
            out.append(f"transfer check failed: {report.failure}")
        if report.elements_checked < 1:
            out.append("transfer check scanned no members")
        if fiber > 2:
            out.append(f"fiber catenary {fiber} > 2")
        return out
    return _cli_problems(job, result)


def _zero_sum_problems(job, result) -> list[str]:
    op, orders, bound = job["op"], job["orders"], job["bound"]
    d = olson_davenport(orders)
    size = prod(orders)
    factors = invariant_factors(orders)
    cyclic = len(factors) == 1
    n = factors[0] if cyclic else None
    where = f"{op} on {group_name(orders)}" + ("" if bound is None else f" at bound {bound}")
    out = []
    if op == "davenport" and result != d:
        out.append(f"{where}: {result} != Olson's D(G) = {d}")
    if op == "atoms" and max(a.length for a in result) != d:
        out.append(f"{where}: longest atom has length {max(a.length for a in result)} != D(G) = {d}")
    if op == "rho2" and bound >= 2 * d and size >= 3 and result != d:
        out.append(f"{where}: rho2 = {result} != D(G) = {d}")
    if op == "catenary" and cyclic and bound == 2 * n and result != n:
        out.append(f"{where}: c(C{n}) = {result} != {n}")
    if op == "delta" and cyclic and bound == 2 * n and list(result) != list(range(1, n - 1)):
        out.append(f"{where}: Delta(C{n}) = {list(result)} != [1, {n - 2}]")
    if op == "half_factorial":
        ok, witness = result
        if bound >= 2 * d and ok != (size < 3):
            out.append(f"{where}: half_factorial = {ok} but |G| = {size}")
        if not ok and (sum(witness[0]) > bound or len(witness[1]) < 2):
            out.append(f"{where}: witness {witness} is not a violation within the bound")
    return out


def _cli_problems(job, result) -> list[str]:
    code, text = result
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    kind, expect = job["kind"], job["expect"]
    out = []
    if kind in ("chains_analyze", "chains_builtin"):
        printed = sorted({c["length"] for c in payload["chains"]})
        if payload["length_set"] != printed:
            out.append(f"length_set {payload['length_set']} != printed chain lengths {printed}")
        pairs = len(payload["chains"]) * (len(payload["chains"]) - 1) // 2
        if len(payload["composition_distances"]) != pairs:
            out.append("composition distances do not cover every pair of chains")
    if kind == "chains_analyze":
        if len(payload["chains"]) != expect["chains"]:
            out.append(f"{len(payload['chains'])} chains, the grid has {expect['chains']}")
        if payload["length_set"] != expect["length_set"]:
            out.append(f"length_set {payload['length_set']} != grid length set {expect['length_set']}")
    elif kind == "chains_builtin":
        want = BUILTIN_LENGTH_SETS[expect["name"]]
        if payload["length_set"] != want:
            out.append(f"{expect['name']} length_set {payload['length_set']} != {want}")
    elif kind == "towers_comb":
        out.extend(_cover_problems(expect["n"], expect["arcs"], payload["prefix_sizes"]))
    elif kind == "genus_step":
        if payload["udim"] != 1 or payload["ranks"] != expect["ranks"]:
            out.append(f"genus {payload['ranks']} != {expect['ranks']}")
    elif kind == "group_info":
        for field in ("cardinality", "exponent"):
            if payload[field] != expect[field]:
                out.append(f"{field} {payload[field]} != {expect[field]}")
    elif kind == "blocks_lengths":
        lengths, delta, cat = payload["length_set"], payload["delta"], payload["catenary"]
        gaps = sorted({b - a for a, b in zip(lengths, lengths[1:])})
        if not lengths or delta != gaps:
            out.append(f"delta {delta} is not the gap set of {lengths}")
        elif cat > max(lengths) or (len(lengths) > 1 and cat < 2 + max(delta)):
            out.append(f"catenary {cat} outside [2 + max delta, max length] for {lengths}")
    elif kind == "krull_synth":
        if payload["primes"] != expect["towers"] or payload["atom_count"] < 1:
            out.append(f"synth primes {payload['primes']} != towers {expect['towers']}")
    return out


def _cover_problems(n, arcs, sizes) -> list[str]:
    if len(sizes) != len(arcs):
        return [f"{len(sizes)} prefix sizes for {len(arcs)} progressions"]
    seen = []
    for (a, k), m in zip(arcs, sizes):
        if not 0 <= m <= k + 1:
            return [f"prefix size {m} outside [0, {k + 1}]"]
        seen.extend((a + j) % n for j in range(m))
    if sorted(seen) != list(range(n)):
        return [f"prefixes {sizes} do not partition Z/{n}Z"]
    return []
