"""Property tests of the CLI: whatever argv is drawn from the command table,
``run()`` returns 0, 1 or 2 without raising, and exit code 1 comes with
exactly one ``error:`` line on stderr; and the parser tree ``run()`` keeps
and reuses parses, rejects and helps exactly as a freshly built one."""

import argparse
import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from factorinv import cli
from factorinv.cli import COMMANDS, FLAGS, CliUsageError, build_parser, run

from oracles import principal_grid

# keys of every document kind, so drawn objects can come close to valid ones
KEYS = [
    "orders", "group", "subset", "primes", "name", "class", "towers", "type", "length",
    "cycle_length", "arcs", "bottom", "simples", "nodes", "id", "principal", "covers",
    "upper", "lower", "label", "top", "udim", "ranks", "T.0", "T.1",
]
LATTICE = {
    "simples": ["s"],
    "nodes": [{"id": n, "principal": True} for n in "abc"],
    "covers": [{"upper": "a", "lower": "b", "label": "s"}, {"upper": "b", "lower": "c", "label": "s"}],
    "top": "a",
    "bottom": "c",
}
# simples and node ids that are not strings, and a repeated cover: each ends in one error line
BAD_LATTICES = [
    {**LATTICE, "simples": [1], "covers": [{"upper": "a", "lower": "b", "label": 1},
                                           {"upper": "b", "lower": "c", "label": 1}]},
    {"simples": ["s"], "nodes": [{"id": 1, "principal": True}, {"id": 2, "principal": True}],
     "covers": [{"upper": 1, "lower": 2, "label": "s"}], "top": 1, "bottom": 2},
    {**LATTICE, "simples": "s"},
    {**LATTICE, "covers": LATTICE["covers"] + LATTICE["covers"][:1]},  # a cover given twice
]
TOWERS = [
    {"group": {"orders": [2]}, "towers": [{"name": "T", "type": "cycle", "length": 2, "class": [1]}]},
    {"group": {"orders": [2]}, "towers": [{"name": "F", "type": "faithful", "length": 1, "class": [0]},
                                          {"name": "T", "type": "cycle", "length": 3, "class": [1]}]},
]
# tower names that are not strings: each ends in one error line
BAD_NAMES = [
    {"group": {"orders": [2]}, "towers": [{"name": name, "type": "cycle", "length": 1, "class": [1]}]}
    for name in (["T"], 5)
]
KRULL = {"group": {"orders": [2]}, "primes": [{"name": "p", "class": [1]}, {"name": "q", "class": [1]}]}
# prime names that are not strings: each ends in one error line
BAD_PRIMES = [
    {"group": {"orders": [2]}, "primes": [{"name": a, "class": [1]}, {"name": b, "class": [1]}]}
    for a, b in ((5, "5"), (None, "q"), (True, 1))
]
# documents by action, valid but for BAD_NAMES, BAD_PRIMES and BAD_LATTICES; every other action reads a group or
# a block monoid
DOCUMENTS = {
    "verify": [KRULL] + BAD_PRIMES,
    "fiber-catenary": [KRULL] + BAD_PRIMES,
    "synth": TOWERS + BAD_NAMES,
    "genus-step": TOWERS + BAD_NAMES,
    "submodule": [{"cycle_length": 2, "arcs": [{"bottom": 0, "length": 3}]}],
    "analyze": [LATTICE, *BAD_LATTICES, principal_grid(7, 7)],  # the grid has 924 chains, over the cap
}
GROUPS = [{"orders": [2, 2]}, {"group": {"orders": [4]}, "subset": [[1], [3]]}]

# small integers and short lists keep every drawn group, bound and scan cheap
scalars = st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(KEYS + ["", "nonzero", "all", "x"])
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)
not_objects = st.sampled_from(["null", "true", "7", '"group"', "[[1]]"])


def dumped(strategy):
    return strategy.map(json.dumps)


def text(*choices):
    return st.sampled_from(choices) | st.text("0123:,-x[] ", max_size=6)


def document(valid):
    """Half valid documents, then random JSON, JSON that is not an object, and broken JSON."""
    return st.integers(0, 7).flatmap(
        lambda kind: dumped(st.sampled_from(valid)) if kind < 4
        else dumped(values) if kind < 6
        else not_objects if kind < 7
        else st.just("{not json")
    )


genus = dumped(st.fixed_dictionaries({"udim": st.integers(0, 2) | values, "ranks": values}))
OPTION_VALUES = {
    "--orders": text("1", "2", "3", "4", "2,2", "2,", "0", "-2"),
    "--spec": st.sampled_from(["no/such/file.json", "."]),
    "--subset": dumped(values) | text("nonzero", "all", "[[1]]"),
    "--sequence": dumped(values) | st.sampled_from(["[[1],[1]]", "[[1],[2]]", "[[1,1],[1,1]]"]),
    "--bound": st.integers(-2, 4).map(str) | st.just("x"),
    "--n": st.integers(-1, 6).map(str) | st.sampled_from(["1000000", "4000000", "10000000000"]),
    "--arcs": text("0:1,2:1", "0:3", "1:0,0:1"),
    "--genus": genus | dumped(values) | st.sampled_from(['{"udim": 1, "ranks": {"T.0": 1}}', "{"]),
    "--simple": st.sampled_from(["T.0", "T.1", "T.2", "F.0", "S.0", "x", ""]),
    "name": st.sampled_from(["m2r_nonhf", "weyl_x2y", "m2a_embed", "m2a_uniserial", "nosuch"]),
    "--format": st.sampled_from(["text", "json", "xml"]),
    "--threads": st.sampled_from(["1", "2", "0", "-1", "abc"]),
}
# out of 8: how often a flag is given; the rest are given half the time
CHANCE = {"--inline": 6, "--spec": 1}


HELP = st.sampled_from(["-h", "--help", "--he"])
TOPICS = sorted({command.topic for command in COMMANDS})


@st.composite
def prefix_argvs(draw):
    """Argvs that name no command: help or a usage error from above one, or
    an action under another topic or under none."""
    command = draw(st.sampled_from(COMMANDS))
    topic = draw(st.sampled_from(TOPICS))
    return draw(st.sampled_from([
        [], [topic], [topic, "--help"], ["--help"], ["--format", "json", command.topic, command.action],
        [topic, command.action], [topic, "nosuch"], [command.action],
    ]))


@st.composite
def argvs(draw):
    if draw(st.integers(0, 7)) == 0:
        return draw(prefix_argvs())
    command = draw(st.sampled_from(COMMANDS))
    flags = [(names[0], kw) for flag in command.flags for names, kw in FLAGS[flag]]
    flags += [("--bound", {})] * bool(command.bound) + [("--format", {}), ("--threads", {})]
    argv = [command.topic, command.action]
    for option, kw in flags:
        required = kw.get("required") or option == "name"
        if draw(st.integers(0, 7)) >= (7 if required else CHANCE.get(option, 4)):
            continue
        if option == "--lengths":
            argv.append(option)
        elif option == "name":
            argv.insert(2, draw(OPTION_VALUES[option]))
        elif option == "--inline":
            argv += [option, draw(document(DOCUMENTS.get(command.action, GROUPS)))]
        else:
            argv += [option, draw(OPTION_VALUES[option])]
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(2, len(argv))), draw(HELP))
    return argv


@settings(max_examples=600, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_run_never_raises_and_errors_are_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out=out)
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()


def outcome(parser, argv):
    """The namespace, the usage error, or the help text and exit code."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "namespace", vars(parser.parse_args(argv))
    except CliUsageError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "help", exc.code, out.getvalue()


class Parsed(Exception):
    """Carries the parser that ``run()`` parses with."""


def parser_run_uses(argv):
    """The tree ``run(argv)`` parses with, caught before it parses."""
    def grab(parser, args=None):
        raise Parsed(parser)

    with mock.patch.object(cli._Parser, "parse_args", grab), pytest.raises(Parsed) as parsed:
        run(argv)
    return parsed.value.args[0]


@settings(max_examples=600, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs(), st.sampled_from([None, "1", "2", "0", "abc"]))
def test_the_shared_tree_acts_as_a_fresh_one(argv, env):
    """The one tree run() keeps per FACTORINV_THREADS value parses, rejects
    and helps as a tree built for this call's value would."""
    with mock.patch.dict(os.environ):
        os.environ.pop(cli.THREADS_ENV, None)
        if env is not None:
            os.environ[cli.THREADS_ENV] = env
        shared = parser_run_uses(argv)
        fresh = build_parser.__wrapped__("1" if env is None else env)
    assert outcome(shared, argv) == outcome(fresh, argv)


def subparser(parser, name):
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


LEVELS = [[]] + [[topic] for topic in TOPICS] + [[c.topic, c.action] for c in COMMANDS]


@pytest.mark.parametrize("level", LEVELS, ids=lambda level: " ".join(level) or "top")
def test_help_at_every_level_is_the_full_trees_and_goes_to_out(level, capsys):
    expected = build_parser()
    for name in level:
        expected = subparser(expected, name)
    out = io.StringIO()
    assert run(level + ["--help"], out=out) == 0
    assert out.getvalue() == expected.format_help()
    assert capsys.readouterr() == ("", "")
