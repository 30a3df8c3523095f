"""Command-line output pinned byte for byte against recorded JSON.

Each case runs one command through ``cli.main`` on the scalar scenario or
on a small UAV scenario written by the test, and its exit code and stdout
must equal ``data/cli_outputs.json`` exactly.  The scalar file stores a
budget and a cost cap, so its commands take no constraint flag; the UAV
file stores neither, so its commands pass them.  Regenerate the file by
hand only for a deliberate, named output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from lqgcodesign import cli

import support

GOLDEN = Path(__file__).with_name("data") / "cli_outputs.json"
UAV = ("scenario", "uav", "--landmarks", "3", "--horizon", "5")
# (file stem, --budget flags, --kappa flags, a cost cap for simulate)
FILES = (("scalar", (), (), "0.8"),
         ("uav", ("--budget", "3"), ("--kappa", "2220"), "2220"))
SWEEP = ("sweep", "--scenario", "formation", "--agents", "2", "--horizon", "4",
         "--budgets", "2,3", "--runs", "5", "--seed", "7")


def _commands(path: Path, budget, kappa, cap):
    """(case name, argv) of every pinned command on one scenario file."""
    scenario = ("--scenario", str(path))
    yield "cost", ("cost", *scenario, "--set", "0;1")
    for method in cli.METHODS:
        yield (f"select-budget-{method}",
               ("select", "budget", *scenario, *budget, "--method", method,
                "--mandatory", "0", "--seed", "3"))
    yield ("select-budget-greedy-json",
           ("select", "budget", *scenario, *budget, "--format", "json"))
    for method in ("greedy", "oracle"):
        yield (f"select-mincost-{method}",
               ("select", "mincost", *scenario, *kappa, "--method", method))
    simulate = ("simulate", *scenario, "--runs", "5", "--seed", "7")
    yield "simulate-set", (*simulate, "--set", "0;1")
    yield "simulate-set-kappa", (*simulate, "--set", "1", *kappa)
    yield "simulate-method", (*simulate, *budget, "--method", "greedy")
    yield "simulate-method-kappa", (*simulate, "--kappa", cap, "--method", "oracle")
    yield "bound-budget", ("bound", "budget", *scenario, *budget)
    yield "bound-mincost", ("bound", "mincost", *scenario, *kappa)
    yield "ratio", ("ratio", *scenario)
    yield "riccati", ("riccati", *scenario)


def _run(argv) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": stdout.getvalue()}


def outputs(workdir: Path) -> dict:
    """Every pinned case's exit code and stdout, keyed by file and command."""
    (workdir / "scalar.json").write_text(json.dumps(support.scalar_scenario_dict()))
    assert _run((*UAV, "--out", str(workdir / "uav.json")))["exit"] == 0
    cases = {}
    for stem, *flags in FILES:
        for name, argv in _commands(workdir / f"{stem}.json", *flags):
            cases[f"{stem}/{name}"] = _run(argv)
    cases["sweep"] = _run(SWEEP)
    return cases


def test_cli_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    current = outputs(tmp_path)
    assert sorted(current) == sorted(golden)
    for name, outcome in current.items():
        assert outcome == golden[name], name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        cases = outputs(Path(workdir))
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
