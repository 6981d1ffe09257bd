"""Golden CLI outputs: text and JSON stdout, stderr and exit code of every
case below, compared byte for byte against ``tests/golden/<case>.json``.

The cases are the invocations of ``test_cli.py`` plus the built-in lattices
and a few extra inputs that reach the other formatting paths.  To record the
files again from the current code, run
``PYTHONPATH=src python3 tests/test_golden.py``.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile
from unittest import mock

import pytest

from factorinv import krull as krull_mod
from factorinv.cli import THREADS_ENV, run

GOLDEN = pathlib.Path(__file__).parent / "golden"

KRULL_PQ = {
    "group": {"orders": [2]},
    "primes": [{"name": "p", "class": [1]}, {"name": "q", "class": [1]}],
}
TOWERS_ST = {
    "group": {"orders": [2]},
    "towers": [
        {"name": "S", "type": "cycle", "length": 2, "class": [1]},
        {"name": "T", "type": "cycle", "length": 3, "class": [1]},
    ],
}
TOWERS_T = {
    "group": {"orders": [2]},
    "towers": [{"name": "T", "type": "cycle", "length": 2, "class": [1]}],
}
LATTICE_ABC = {
    "simples": ["s"],
    "nodes": [{"id": n, "principal": True} for n in "abc"],
    "covers": [
        {"upper": "a", "lower": "b", "label": "s"},
        {"upper": "b", "lower": "c", "label": "s"},
    ],
    "top": "a",
    "bottom": "c",
}
DEEP = 1500
LATTICE_DEEP = {
    "simples": ["s"],
    "nodes": [{"id": f"n{i}", "principal": True} for i in range(DEEP)],
    "covers": [{"upper": f"n{i}", "lower": f"n{i + 1}", "label": "s"} for i in range(DEEP - 1)],
    "top": "n0",
    "bottom": f"n{DEEP - 1}",
}
# documents passed by file: an argv entry "@name" becomes the file's path
FILES = {"krull_pq": KRULL_PQ, "lattice_abc": LATTICE_ABC, "lattice_deep": LATTICE_DEEP}


def _failed_transfer(self, bound):
    return krull_mod.TransferReport(False, 1, 0, "synthetic failure")


# name -> (argv without --format, environment, patch verify_transfer)
CASES = {
    "group_info_3_3": (["group", "info", "--orders", "3,3"], {}, False),
    "group_info_6": (["group", "info", "--orders", "6"], {}, False),
    "group_info_no_source": (["group", "info"], {}, False),
    "group_info_two_sources": (["group", "info", "--orders", "2", "--inline", '{"orders": [2]}'], {}, False),
    "group_info_inline_2_4": (["group", "info", "--inline", '{"orders": [2, 4]}'], {}, False),
    "blocks_davenport_3_3": (["blocks", "davenport", "--orders", "3,3"], {}, False),
    "blocks_atoms_3": (["blocks", "atoms", "--orders", "3"], {}, False),
    "blocks_atoms_2_2_subset": (
        ["blocks", "atoms", "--orders", "2,2", "--subset", "[[1,0],[0,1],[1,1]]"], {}, False),
    "blocks_atoms_doc_subset": (
        ["blocks", "atoms", "--inline", '{"group": {"orders": [4]}, "subset": [[1], [3]]}'], {}, False),
    "blocks_atoms_bad_subset": (["blocks", "atoms", "--orders", "3", "--subset", "none"], {}, False),
    "blocks_lengths_3": (
        ["blocks", "lengths", "--orders", "3", "--sequence", "[[1],[1],[1],[2],[2],[2]]"], {}, False),
    "blocks_delta_3": (["blocks", "delta", "--orders", "3"], {}, False),
    "blocks_catenary_3": (["blocks", "catenary", "--orders", "3"], {}, False),
    "blocks_rho2_3": (["blocks", "rho2", "--orders", "3"], {}, False),
    "blocks_delta_3_bound_4": (["blocks", "delta", "--orders", "3", "--bound", "4"], {}, False),
    "blocks_catenary_negative_bound": (["blocks", "catenary", "--orders", "3", "--bound", "-1"], {}, False),
    "krull_verify_spec": (["krull", "verify", "--spec", "@krull_pq", "--bound", "6"], {}, False),
    "krull_verify_default_bound": (["krull", "verify", "--inline", json.dumps(KRULL_PQ)], {}, False),
    "krull_verify_violation": (
        ["krull", "verify", "--inline",
         '{"group": {"orders": [2]}, "primes": [{"name": "p", "class": [0]}]}'],
        {}, True),
    "krull_fiber_catenary": (
        ["krull", "fiber-catenary", "--inline", json.dumps(KRULL_PQ), "--bound", "4"], {}, False),
    "krull_synth": (["krull", "synth", "--inline", json.dumps(TOWERS_ST)], {}, False),
    "krull_synth_faithful": (
        ["krull", "synth", "--inline", json.dumps({
            "group": {"orders": [2]},
            "towers": [{"name": "F", "type": "faithful", "length": 2, "class": [0]}],
        })], {}, False),
    "krull_synth_2_2": (
        ["krull", "synth", "--inline", json.dumps({
            "group": {"orders": [2, 2]},
            "towers": [{"name": "A", "type": "cycle", "length": 2, "class": [1, 0]},
                       {"name": "B", "type": "cycle", "length": 1, "class": [1, 1]}],
        })], {}, False),
    "towers_comb_4": (["towers", "comb", "--n", "4", "--arcs", "0:1,2:1"], {}, False),
    "towers_comb_not_covering": (["towers", "comb", "--n", "4", "--arcs", "0:1"], {}, False),
    "towers_comb_7": (["towers", "comb", "--n", "7", "--arcs", "0:3,3:3,1:2"], {}, False),
    "towers_comb_spaced_arcs": (["towers", "comb", "--n", "4", "--arcs", "0:1, 2:1"], {}, False),
    "towers_comb_bad_arcs": (["towers", "comb", "--n", "4", "--arcs", "0-1"], {}, False),
    "towers_submodule": (
        ["towers", "submodule", "--inline", '{"cycle_length": 2, "arcs": [{"bottom": 0, "length": 3}]}'],
        {}, False),
    "towers_submodule_zero": (
        ["towers", "submodule", "--inline", '{"cycle_length": 2, "arcs": []}'], {}, False),
    "towers_genus_step": (
        ["towers", "genus-step", "--inline", json.dumps(TOWERS_T),
         "--genus", '{"udim": 1, "ranks": {"T.0": 1, "T.1": 1}}', "--simple", "T.0"], {}, False),
    "towers_genus_step_bad_genus": (
        ["towers", "genus-step", "--inline", json.dumps(TOWERS_T), "--genus", "{}", "--simple", "T.0"],
        {}, False),
    "chains_builtin_nosuch": (["chains", "builtin", "nosuch"], {}, False),
    "chains_analyze_spec": (["chains", "analyze", "--spec", "@lattice_abc"], {}, False),
    "chains_analyze_invalid": (["chains", "analyze", "--inline", '{"nodes": []}'], {}, False),
    "chains_analyze_missing_file": (["chains", "analyze", "--spec", "no/such/lattice.json"], {}, False),
    "chains_analyze_no_source": (["chains", "analyze"], {}, False),
    "chains_analyze_deep": (["chains", "analyze", "--spec", "@lattice_deep"], {}, False),
    "krull_verify_not_json": (["krull", "verify", "--inline", "{not json"], {}, False),
    "blocks_unknown_action": (["blocks", "nosuch"], {}, False),
    "unknown_topic": (["nosuch"], {}, False),
    "blocks_lengths_missing_sequence": (["blocks", "lengths", "--orders", "3"], {}, False),
    "blocks_catenary_4": (["blocks", "catenary", "--orders", "4"], {}, False),
    "blocks_catenary_4_threads_4": (["blocks", "catenary", "--orders", "4", "--threads", "4"], {}, False),
    "blocks_catenary_4_threads_0": (["blocks", "catenary", "--orders", "4", "--threads", "0"], {}, False),
    # settled by the atom pair products at the length cap, before the member table
    "blocks_catenary_12": (["blocks", "catenary", "--orders", "12"], {}, False),
    "blocks_delta_12": (["blocks", "delta", "--orders", "12"], {}, False),
    "group_info_threads_env_abc": (["group", "info", "--orders", "4"], {THREADS_ENV: "abc"}, False),
    "blocks_davenport_threads_env_2": (["blocks", "davenport", "--orders", "2"], {THREADS_ENV: "2"}, False),
    "blocks_lengths_deep": (
        ["blocks", "lengths", "--orders", "2", "--sequence", json.dumps([[1]] * 3000)], {}, False),
    "blocks_lengths_bool_residues": (
        ["blocks", "lengths", "--orders", "2", "--sequence", "[[true],[true]]"], {}, False),
}
for _i, _text in enumerate(["[1]", "[[1], 2]", '["1"]', "[null]"]):
    CASES[f"blocks_lengths_entry_not_a_list_{_i}"] = (
        ["blocks", "lengths", "--orders", "2", "--sequence", _text], {}, False)
for _name in ("m2a_embed", "m2a_uniserial", "m2r_nonhf", "weyl_x2y"):
    CASES[f"chains_builtin_{_name}"] = (["chains", "builtin", _name], {}, False)
    CASES[f"chains_builtin_{_name}_lengths"] = (["chains", "builtin", _name, "--lengths"], {}, False)


def invoke(name: str, files: dict) -> dict:
    """The case's argv and, per format, its exit code, stdout and stderr."""
    argv, env, patched = CASES[name]
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    record = {"argv": CASES[name][0]}
    for fmt in ("text", "json"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.dict(os.environ))
            os.environ.pop(THREADS_ENV, None)
            os.environ.update(env)
            if patched:
                stack.enter_context(
                    mock.patch.object(krull_mod.KrullMonoid, "verify_transfer", _failed_transfer))
            stack.enter_context(contextlib.redirect_stderr(err))
            code = run(argv + ["--format", fmt], out=out)
        record[fmt] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return record


def write_files(directory: pathlib.Path) -> dict:
    paths = {}
    for name, doc in FILES.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return write_files(tmp_path_factory.mktemp("docs"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name, files):
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert invoke(name, files) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_files(pathlib.Path(tmp))
        for case in sorted(CASES):
            text = json.dumps(invoke(case, paths), indent=1, ensure_ascii=False) + "\n"
            (GOLDEN / f"{case}.json").write_text(text, encoding="utf-8")
