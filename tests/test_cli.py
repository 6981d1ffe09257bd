import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from factorinv.cli import run

from oracles import principal_grid


def capture(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def test_group_info():
    code, out = capture(["group", "info", "--orders", "3,3"])
    assert code == 0
    assert "cardinality  9" in out


def test_group_info_json():
    code, out = capture(["group", "info", "--orders", "6", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["cardinality"] == 6
    assert payload["exponent"] == 6


def test_exactly_one_input_source():
    code, _ = capture(["group", "info"])
    assert code == 1
    code, _ = capture(["group", "info", "--orders", "2", "--inline", '{"orders": [2]}'])
    assert code == 1


def test_blocks_davenport():
    code, out = capture(["blocks", "davenport", "--orders", "3,3"])
    assert code == 0
    assert "davenport: 5" in out


def test_blocks_atoms():
    code, out = capture(["blocks", "atoms", "--orders", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3


def test_blocks_lengths():
    code, out = capture([
        "blocks", "lengths", "--orders", "3",
        "--sequence", "[[1],[1],[1],[2],[2],[2]]", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["length_set"] == [2, 3]
    assert payload["catenary"] == 3
    assert payload["delta"] == [1]


def test_blocks_delta_catenary_rho2_defaults():
    code, out = capture(["blocks", "delta", "--orders", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 6  # twice the Davenport constant
    assert payload["delta"] == [1]
    code, out = capture(["blocks", "catenary", "--orders", "3", "--format", "json"])
    assert json.loads(out)["catenary"] == 3
    code, out = capture(["blocks", "rho2", "--orders", "3", "--format", "json"])
    assert json.loads(out)["rho2"] == 3


def test_header_reports_bound():
    code, out = capture(["blocks", "delta", "--orders", "3", "--bound", "4"])
    assert code == 0
    assert "# bound: 4" in out


def test_krull_verify_ok(tmp_path):
    doc = {
        "group": {"orders": [2]},
        "primes": [{"name": "p", "class": [1]}, {"name": "q", "class": [1]}],
    }
    path = tmp_path / "krull.json"
    path.write_text(json.dumps(doc))
    code, out = capture(["krull", "verify", "--spec", str(path), "--bound", "6"])
    assert code == 0
    assert "ok: True" in out


def test_krull_verify_violation_exits_2(monkeypatch):
    from factorinv import krull as krull_mod

    def fake_verify(self, bound):
        return krull_mod.TransferReport(False, 1, 0, "synthetic failure")

    monkeypatch.setattr(krull_mod.KrullMonoid, "verify_transfer", fake_verify)
    code, out = capture([
        "krull", "verify", "--inline",
        '{"group": {"orders": [2]}, "primes": [{"name": "p", "class": [0]}]}',
    ])
    assert code == 2
    assert "synthetic failure" in out


def test_krull_fiber_catenary():
    code, out = capture([
        "krull", "fiber-catenary", "--inline",
        '{"group": {"orders": [2]}, "primes": [{"name": "p", "class": [1]}, {"name": "q", "class": [1]}]}',
        "--bound", "4", "--format", "json",
    ])
    assert code == 0
    assert json.loads(out)["fiber_catenary"] == 2


def test_krull_synth():
    doc = {
        "group": {"orders": [2]},
        "towers": [
            {"name": "S", "type": "cycle", "length": 2, "class": [1]},
            {"name": "T", "type": "cycle", "length": 3, "class": [1]},
        ],
    }
    code, out = capture(["krull", "synth", "--inline", json.dumps(doc), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["primes"] == ["S", "T"]
    assert payload["atom_count"] == 3


def test_krull_synth_rejects_faithful():
    doc = {
        "group": {"orders": [2]},
        "towers": [{"name": "F", "type": "faithful", "length": 2, "class": [0]}],
    }
    code, _ = capture(["krull", "synth", "--inline", json.dumps(doc)])
    assert code == 1


def test_towers_comb():
    code, out = capture(["towers", "comb", "--n", "4", "--arcs", "0:1,2:1"])
    assert code == 0
    assert "prefix_sizes: [2, 2]" in out


def test_towers_comb_not_covering():
    code, _ = capture(["towers", "comb", "--n", "4", "--arcs", "0:1"])
    assert code == 1


def test_towers_submodule():
    doc = {"cycle_length": 2, "arcs": [{"bottom": 0, "length": 3}]}
    code, out = capture(["towers", "submodule", "--inline", json.dumps(doc), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["submodule"]["arcs"] == [{"bottom": 0, "length": 2}]


def test_towers_genus_step():
    doc = {
        "group": {"orders": [2]},
        "towers": [{"name": "T", "type": "cycle", "length": 2, "class": [1]}],
    }
    code, out = capture([
        "towers", "genus-step", "--inline", json.dumps(doc),
        "--genus", '{"udim": 1, "ranks": {"T.0": 1, "T.1": 1}}',
        "--simple", "T.0", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == {"T.1": 2}


def test_chains_builtin_lengths():
    code, out = capture(["chains", "builtin", "weyl_x2y", "--lengths"])
    assert code == 0
    assert "length_set: {2, 3}" in out


def test_chains_builtin_full():
    code, out = capture(["chains", "builtin", "m2r_nonhf", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["length_set"] == [2, 3]
    assert len(payload["chains"]) == 3


def test_chains_builtin_unknown():
    code, _ = capture(["chains", "builtin", "nosuch"])
    assert code == 1


def test_chains_analyze(tmp_path):
    doc = {
        "simples": ["s"],
        "nodes": [
            {"id": "a", "principal": True},
            {"id": "b", "principal": True},
            {"id": "c", "principal": True},
        ],
        "covers": [
            {"upper": "a", "lower": "b", "label": "s"},
            {"upper": "b", "lower": "c", "label": "s"},
        ],
        "top": "a",
        "bottom": "c",
    }
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(doc))
    code, out = capture(["chains", "analyze", "--spec", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["length_set"] == [2]


def test_chains_analyze_invalid_document():
    code, _ = capture(["chains", "analyze", "--inline", '{"nodes": []}'])
    assert code == 1


def test_malformed_document_single_line_diagnostic(capsys):
    code, _ = capture(["krull", "verify", "--inline", "{not json"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_unknown_subcommand():
    assert run(["blocks", "nosuch"]) == 1
    assert run(["nosuch"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["blocks", "davenport", "--orders", "3,3"],
        ["blocks", "atoms", "--orders", "3", "--format", "json"],
        ["chains", "builtin", "m2r_nonhf"],
        ["towers", "comb", "--n", "7", "--arcs", "0:3,3:3,1:2"],
    ],
)
def test_byte_identical_reruns(argv):
    first = capture(argv)
    second = capture(argv)
    assert first == second


def test_threads_flag_does_not_change_output():
    base = capture(["blocks", "catenary", "--orders", "4"])
    threaded = capture(["blocks", "catenary", "--orders", "4", "--threads", "4"])
    assert base == threaded
    code, _ = capture(["blocks", "catenary", "--orders", "4", "--threads", "0"])
    assert code == 1


def test_threads_env_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("FACTORINV_THREADS", "abc")
    code, out = capture(["group", "info", "--orders", "4"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'abc'" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text", ["[1]", "[[1], 2]", '["1"]', "[null]"])
def test_sequence_entries_must_be_lists(text, capsys):
    code, out = capture(["blocks", "lengths", "--orders", "2", "--sequence", text])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_blocks_lengths_deep_element_needs_no_recursion():
    sequence = json.dumps([[1]] * 3000)
    code, out = capture([
        "blocks", "lengths", "--orders", "2", "--sequence", sequence, "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["length_set"] == [1500]
    assert payload["catenary"] == 0


def test_threads_env_default(monkeypatch):
    monkeypatch.setenv("FACTORINV_THREADS", "2")
    code, out = capture(["blocks", "davenport", "--orders", "2"])
    assert code == 0
    assert "davenport: 2" in out


def test_sequence_residues_must_not_be_bools(capsys):
    code, out = capture(["blocks", "lengths", "--orders", "2", "--sequence", "[[true],[true]]"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_chains_analyze_deep_total_order(tmp_path):
    n = 1500
    doc = {
        "simples": ["s"],
        "nodes": [{"id": f"n{i}", "principal": True} for i in range(n)],
        "covers": [{"upper": f"n{i}", "lower": f"n{i + 1}", "label": "s"} for i in range(n - 1)],
        "top": "n0",
        "bottom": f"n{n - 1}",
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code, out = capture(["chains", "analyze", "--spec", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["composition_length"] == n - 1
    assert payload["length_set"] == [n - 1]
    assert [c["length"] for c in payload["chains"]] == [n - 1]


@pytest.mark.parametrize(
    "argv",
    [
        ["towers", "genus-step", "--inline", json.dumps({
            "group": {"orders": [2]},
            "towers": [{"name": "T", "type": "cycle", "length": 2, "class": [1]}],
        }), "--genus", '{"udim":1,"ranks":[1]}', "--simple", "T.0"],
        ["blocks", "atoms", "--inline", "null"],
        ["blocks", "atoms", "--inline", '"group"'],
    ],
)
def test_malformed_input_is_one_error_line_not_a_traceback(argv, capsys):
    code, out = capture(argv)
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


TOWER_F2 = {"group": {"orders": [2]}, "towers": [{"name": "F", "type": "faithful", "length": 2, "class": [1]}]}
TOWER_BOOL_LENGTH = {"group": {"orders": [2]}, "towers": [{"name": "F", "type": "faithful", "length": True, "class": [1]}]}


@pytest.mark.parametrize(
    "argv",
    [
        ["krull", "synth", "--inline", json.dumps(TOWER_BOOL_LENGTH)],
        ["towers", "genus-step", "--inline", json.dumps(TOWER_F2),
         "--genus", '{"udim":1,"ranks":{"F.1":1.5}}', "--simple", "F.1"],
        ["towers", "genus-step", "--inline", json.dumps(TOWER_F2),
         "--genus", '{"udim":true,"ranks":{"F.1":1}}', "--simple", "F.1"],
        ["towers", "submodule", "--inline", '{"cycle_length": true, "arcs": [{"bottom": 0, "length": 1}]}'],
        ["towers", "submodule", "--inline",
         '{"cycle_length": 2, "arcs": [{"bottom": 0, "length": true}, {"bottom": 1, "length": 2}]}'],
    ],
    ids=["tower-length-true", "rank-1.5", "udim-true", "cycle-length-true", "arc-length-true"],
)
def test_bool_or_fractional_integer_fields_are_one_error_line(argv, capsys):
    code, out = capture(argv)
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


KRULL_PQ = '{"group": {"orders": [2]}, "primes": [{"name": "p", "class": [1]}, {"name": "q", "class": [1]}]}'
BOUNDED = [
    ["blocks", "delta", "--orders", "3"],
    ["blocks", "catenary", "--orders", "3"],
    ["blocks", "rho2", "--orders", "3"],
    ["krull", "verify", "--inline", KRULL_PQ],
    ["krull", "fiber-catenary", "--inline", KRULL_PQ],
]


@pytest.mark.parametrize("argv", BOUNDED)
def test_every_bounded_command_reports_its_bound(argv):
    code, out = capture(argv + ["--bound", "4"])
    assert code == 0
    assert "# bound: 4" in out


@pytest.mark.parametrize("argv", BOUNDED)
@pytest.mark.parametrize("bound", ["-1", "-3"])
def test_every_bounded_command_rejects_a_negative_bound(argv, bound, capsys):
    code, out = capture(argv + ["--bound", bound])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: --bound must be >= 0\n"


TOWER_S = json.dumps({
    "group": {"orders": [2]},
    "towers": [{"name": "T", "type": "cycle", "length": 2, "class": [1]}],
})
LATTICE_AB = json.dumps({
    "simples": ["s"],
    "nodes": [{"id": "a", "principal": True}, {"id": "b", "principal": True}],
    "covers": [{"upper": "a", "lower": "b", "label": "s"}],
    "top": "a",
    "bottom": "b",
})
# (argv without the document, a valid --spec document for it)
DOCUMENT_SOURCES = [
    (["blocks", "atoms"], '{"group": {"orders": [3]}, "subset": "nonzero"}'),
    (["blocks", "lengths", "--sequence", "[[1],[2]]"], '{"orders": [3]}'),
    (["blocks", "delta", "--bound", "3"], '{"orders": [3]}'),
    (["blocks", "catenary", "--bound", "3"], '{"orders": [3]}'),
    (["blocks", "rho2", "--bound", "3"], '{"orders": [3]}'),
    (["krull", "verify", "--bound", "2"], KRULL_PQ),
    (["krull", "fiber-catenary", "--bound", "2"], KRULL_PQ),
    (["krull", "synth"], TOWER_S),
    (["towers", "submodule"], '{"cycle_length": 2, "arcs": [{"bottom": 0, "length": 3}]}'),
    (["towers", "genus-step", "--genus", '{"udim": 1, "ranks": {"T.0": 1}}', "--simple", "T.0"], TOWER_S),
    (["chains", "analyze"], LATTICE_AB),
]


@pytest.mark.parametrize("argv,doc", DOCUMENT_SOURCES, ids=[" ".join(argv[:2]) for argv, _ in DOCUMENT_SOURCES])
def test_spec_and_inline_together_are_rejected(argv, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(doc)
    code, _ = capture(argv + ["--spec", str(path)])
    assert code == 0, "the --spec document alone is valid"
    capsys.readouterr()
    for inline in ("{broken", doc):
        code, out = capture(argv + ["--spec", str(path), "--inline", inline])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == "error: exactly one of --spec FILE or --inline JSON is required\n"


def lattice_doc(**fields):
    """LATTICE_AB with some fields replaced."""
    return json.dumps({**json.loads(LATTICE_AB), **fields})


NODES_AB = [{"id": "a", "principal": True}, {"id": "b", "principal": True}]
GENUS_STEP = ["towers", "genus-step", "--inline", TOWER_S, "--genus", '{"udim": 1}', "--simple"]
# (argv, the message of its one error line); "{spec}" stands for a file that is not JSON
REFUSALS = [
    (["group", "info", "--inline", '{"orders": 3}'], "'orders' must be a list, got 3"),
    (["group", "info", "--spec", "{spec}"],
     "{spec} is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (["blocks", "atoms", "--orders", "3", "--subset", "[[1, 2]]"], "expected 1 residues, got 2: (1, 2)"),
    (["blocks", "atoms", "--orders", "3", "--subset", '[["1"]]'], "residues must be integers: ('1',)"),
    (["blocks", "atoms", "--orders", "3", "--subset", "[1]"], "subset entries must be residue lists: 1"),
    (["blocks", "lengths", "--orders", "3", "--sequence", "[[1]"],
     "--sequence must be a JSON list of residue lists, got '[[1]'"),
    (["krull", "verify", "--inline", KRULL_PQ.replace('"q"', '"p"')], "prime names must be unique: ('p', 'p')"),
    (["chains", "analyze", "--inline", lattice_doc(nodes=[NODES_AB[0], NODES_AB[0]])], "duplicate node id 'a'"),
    (["chains", "analyze", "--inline", lattice_doc(nodes=[{"id": "a", "principal": 1}, NODES_AB[1]])],
     "principal flag of 'a' must be boolean"),
    (["chains", "analyze", "--inline", lattice_doc(covers=[{"upper": "a", "lower": "c", "label": "s"}])],
     "cover references unknown node 'c'"),
    (["chains", "analyze", "--inline", lattice_doc(covers=[{"upper": "a", "lower": "b", "label": "t"}])],
     "cover label 't' is not a declared simple"),
    (["chains", "analyze", "--inline", lattice_doc(top="c")], "declared top or bottom is not a node"),
    (["chains", "analyze", "--inline", lattice_doc(
        nodes=NODES_AB + [{"id": "c", "principal": True}],
        covers=[{"upper": "a", "lower": "b", "label": "s"}, {"upper": "a", "lower": "c", "label": "s"}])],
     "expected unique bottom 'b', minimal nodes are ['b', 'c']"),
    (GENUS_STEP + ["U.0"], "no tower named 'U'"),
    (GENUS_STEP + ["T.x"], "malformed simple label 'T.x'"),
    (GENUS_STEP + ["T.2"], "'T.2' is out of range for tower 'T'"),
]


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[message.split(":")[0][:40] for _, message in REFUSALS])
def test_each_refusal_is_one_error_line(argv, message, tmp_path, capsys):
    spec = tmp_path / "broken.json"
    spec.write_text("{broken")
    code, out = capture([arg.replace("{spec}", str(spec)) for arg in argv])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {message.replace('{spec}', str(spec))}\n"


def test_blocks_atoms_of_a_long_cyclic_atom():
    code, out = capture(["blocks", "atoms", "--orders", "1200", "--subset", "[[1]]"])
    assert code == 0
    assert "atom  1^1200  length 1200" in out


def timed_capture(argv):
    start = time.perf_counter()
    code, out = capture(argv)
    elapsed = time.perf_counter() - start
    assert elapsed < 1, f"took {elapsed:.2f}s"
    return code, out


def test_towers_comb_large_n_not_covering_is_one_error_line(capsys):
    code, out = timed_capture(["towers", "comb", "--n", "4000000", "--arcs", "0:3"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: residue 4 mod 4000000 is not covered\n"


def test_towers_comb_large_n_two_halves():
    code, out = timed_capture(["towers", "comb", "--n", "4000000", "--arcs", "0:1999999,2000000:1999999"])
    assert code == 0
    assert "prefix_sizes: [2000000, 2000000]" in out


def test_towers_comb_at_n_ten_billion(capsys):
    # work and memory grow with the number of arcs, not with n
    n = "10000000000"
    code, out = timed_capture(["towers", "comb", "--n", n, "--arcs", "0:3"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: residue 4 mod {n} is not covered\n"
    code, out = timed_capture(["towers", "comb", "--n", n, "--arcs", "0:9999999999,5:3"])
    assert code == 0
    assert f"prefix_sizes: [{n}, 0]" in out


def test_towers_submodule_at_n_ten_billion():
    # the long arc misses only residues 5 and 4, so the short arc keeps
    # 7, 6, 5, 4 and the long arc the other n - 4 residues
    n = 10_000_000_000
    doc = {"cycle_length": n, "arcs": [{"bottom": 7, "length": 5}, {"bottom": 3, "length": n - 2}]}
    code, out = timed_capture(["towers", "submodule", "--inline", json.dumps(doc), "--format", "json"])
    assert code == 0
    assert json.loads(out)["submodule"]["arcs"] == [{"bottom": 7, "length": 4}, {"bottom": 3, "length": n - 4}]


def test_towers_submodule_of_a_long_arc():
    doc = {"cycle_length": 3, "arcs": [{"bottom": 0, "length": 5_000_000}]}
    code, out = timed_capture(["towers", "submodule", "--inline", json.dumps(doc), "--format", "json"])
    assert code == 0
    assert json.loads(out)["submodule"]["arcs"] == [{"bottom": 0, "length": 3}]


def test_out_of_memory_is_one_error_line():
    # listing the 10^9 elements of C_(10^9) takes gigabytes, so under a 400 MB
    # address-space limit (set in the child only) the atom walk runs out of memory
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["blocks", "atoms", "--orders", "1000000000"]
    result = subprocess.run(
        [sys.executable, "-m", "factorinv.cli", *argv], env=env, capture_output=True,
        text=True, timeout=120, preexec_fn=limit_address_space,
    )
    assert (result.returncode, result.stdout, result.stderr) == (1, "", "error: out of memory\n")


def test_chains_analyze_caps_the_chains(capsys):
    code, out = capture(["chains", "analyze", "--inline", json.dumps(principal_grid(6, 6)), "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["chains"]) == 252
    for size in (7, 32):  # C(12, 6) = 924 chains, and C(62, 31) ≈ 4.65e17
        start = time.perf_counter()
        code, out = capture(["chains", "analyze", "--inline", json.dumps(principal_grid(size, size))])
        assert time.perf_counter() - start < 2
        assert code == 1 and out == ""
        assert capsys.readouterr().err == "error: lattice has more than 500 maximal principal chains\n"


def test_blocks_lengths_caps_the_listed_factorizations(capsys):
    def sequence(m):  # 1^m·2^m·...·6^m over C7
        return json.dumps([[g] for g in range(1, 7) for _ in range(m)])

    code, out = capture(["blocks", "lengths", "--orders", "7", "--sequence", sequence(3), "--format", "json"])
    assert code == 0 and json.loads(out)["catenary"] == 3  # 263 factorizations
    for m in (4, 5):  # 2,751 factorizations, and more
        start = time.perf_counter()
        code, out = capture(["blocks", "lengths", "--orders", "7", "--sequence", sequence(m)])
        assert time.perf_counter() - start < 2
        assert code == 1 and out == ""
        assert capsys.readouterr().err == "error: element has more than 1000 factorizations\n"


def test_console_script_help_goes_to_stdout_with_exit_0():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "factorinv.cli", "towers", "comb", "--help"],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0 and result.stderr == ""
    assert result.stdout.startswith("usage: factorinv towers comb")


def test_blocks_rho2_at_twice_davenport_stops_at_the_length_cap():
    # D(C3×C6) = 8: an atom of length 8 times its inverse has length 8 = 16 // 2,
    # the length cap at the default bound, so the pair walk stops there
    start = time.perf_counter()
    code, out = capture(["blocks", "rho2", "--orders", "3,6"])
    assert time.perf_counter() - start < 2
    assert code == 0 and "rho2: 8" in out.splitlines()


@pytest.mark.parametrize("argv, line", [
    (["catenary", "--orders", "12"], "catenary: 12"),
    (["delta", "--orders", "12"], "delta: {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}"),
    (["rho2", "--orders", "3,6"], "rho2: 8"),
], ids=["catenary", "delta", "rho2"])
def test_scans_over_all_of_g_stop_at_the_length_cap_of_g_minus_zero(argv, line):
    # the atom 0 is a prime, so it sets no length cap: the pair pass settles these as over G minus 0
    start = time.perf_counter()
    code, out = capture(["blocks", *argv, "--subset", "all"])
    assert time.perf_counter() - start < 2
    assert code == 0 and line in out.splitlines()
