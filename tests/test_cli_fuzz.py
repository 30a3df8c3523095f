"""Fuzzing ``cli.main`` with malformed command lines and malformed scenario files.

Whatever it is given, the CLI exits 0, 1 or 2 and prints no traceback.
Every number an example can pass is small, so no example builds a large
problem, and every path it can name lies in one temporary directory, the
working directory while an example runs.
"""

import contextlib
import io
import json
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqgcodesign as lq
from lqgcodesign.cli import main

import support

COMMANDS = (
    ("riccati",), ("cost", "--set", "0;1"), ("select", "budget", "--budget", "1"),
    ("select", "budget", "--budget", "2", "--method", "logdet", "--format", "json"),
    ("select", "budget", "--method", "random", "--mandatory", "0", "--seed", "3"),
    ("select", "mincost", "--kappa", "2", "--method", "oracle", "--out", "out.csv"),
    ("ratio", "--ratio-cap", "1"), ("bound", "budget", "--budget", "1"),
    ("bound", "mincost", "--kappa", "2"), ("simulate", "--set", "1", "--runs", "2"),
    ("simulate", "--budget", "2", "--method", "random", "--runs", "2"),
)
# each template is a valid command; the fuzz replaces, deletes and inserts tokens
TEMPLATES = (
    *((*command, "--scenario", "scenario.json") for command in COMMANDS),
    ("scenario", "formation", "--agents", "1", "--horizon", "2", "--out", "out.json"),
    ("scenario", "uav", "--landmarks", "1", "--horizon", "2", "--mode", "heterogeneous",
     "--out", "out.json"),
    ("sweep", "--scenario", "formation", "--agents", "1,2", "--horizon", "2", "--budgets", "1,2",
     "--runs", "2", "--methods", "greedy,all"),
    ("sweep", "--scenario", "uav", "--landmarks", "1", "--horizon", "2", "--budgets", "1",
     "--runs", "0", "--ratio-cap", "2", "--oracle-cap", "3"),
)
VALUES = st.sampled_from((
    "", "-", ",", ";", "0", "1", "2", "-1", "1.5", "1e400", "nan", "inf", "-inf", "x",
    "0;1", "1,0", "0,,1", "1;9", "greedy", "oracle", "logdet", "random", "all", "csv", "json",
    "budget", "mincost", "formation", "uav", "homogeneous", "heterogeneous", "uniform",
    "scenario.json", "truncated.json", "missing.json", "dir", "out.csv",
))
# the noise has no digits, since a run of them could name a large problem, and
# no slash, so that every path stays in the working directory
TOKENS = VALUES | st.text(alphabet="-=,;:.ax \x00\u00e9", max_size=4) | st.sampled_from((
    "scenario", "riccati", "cost", "select", "simulate", "ratio", "bound", "sweep", "nonsense",
    "--scenario", "--set", "--budget", "--kappa", "--method", "--methods", "--mandatory",
    "--runs", "--seed", "--ratio-cap", "--oracle-cap", "--format", "--out", "--agents",
    "--landmarks", "--horizon", "--budgets", "--mode", "--help", "-h", "--",
))
# documents the file fuzz starts from: the scalar fixture and a small UAV with per-step lists
DOCUMENTS = (
    json.dumps(support.scalar_scenario_dict()),
    json.dumps(lq.scenario_to_dict(replace(lq.build_uav_scenario(1, 2), budget=2.0, kappa=50.0))),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.text(max_size=3)
    | st.floats(-1e3, 1e3) | st.sampled_from([float("nan"), float("inf"), 1e308, -0.0]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _reset(workdir) -> None:
    """The files an example may name, rewritten because an earlier one may have overwritten them."""
    text = json.dumps(support.scalar_scenario_dict())
    (workdir / "scenario.json").write_text(text)
    (workdir / "truncated.json").write_text(text[:len(text) // 2])
    (workdir / "dir").mkdir(exist_ok=True)
    (workdir / "missing.json").unlink(missing_ok=True)


def _assert_clean_exit(workdir, argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue(), (argv, err.getvalue())


@settings(max_examples=100)
@given(template=st.sampled_from(TEMPLATES), data=st.data())
def test_malformed_command_lines_exit_cleanly(workdir, template, data):
    _reset(workdir)
    argv = list(template)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.sampled_from(range(len(argv))))
        edit = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        if edit == "delete":
            del argv[at]
        elif edit == "replace":
            argv[at] = data.draw(VALUES)
        else:
            argv.insert(at, data.draw(TOKENS))
    _assert_clean_exit(workdir, argv)


def _mutated(document, data) -> dict:
    """The document with one nested value replaced or deleted, or given an unknown key."""
    parent, key, node = None, None, document
    while isinstance(node, (dict, list)) and node and (parent is None or data.draw(st.booleans())):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = parent[key]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "add" and isinstance(node, dict):
        node[data.draw(st.text(max_size=3))] = data.draw(JSON_VALUES)
    elif action == "delete":
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES)
    return document


@settings(max_examples=80)
@given(command=st.sampled_from(COMMANDS), form=st.sampled_from(["json", "text", "bytes"]),
       data=st.data())
def test_malformed_scenario_files_exit_cleanly(workdir, command, form, data):
    _reset(workdir)
    path = workdir / "fuzzed.json"
    document = json.loads(data.draw(st.sampled_from(DOCUMENTS)))
    for _ in range(data.draw(st.integers(1, 3))):
        document = _mutated(document, data)
    text = json.dumps(document)
    if form == "json":
        path.write_text(text)
    elif form == "text":
        path.write_text(text[:data.draw(st.integers(0, len(text)))])
    else:
        path.write_bytes(data.draw(st.binary(max_size=16)) + text.encode())
    _assert_clean_exit(workdir, [*command, "--scenario", "fuzzed.json"])
