"""Command-line surface: subcommands, formats, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lqgcodesign as lq
from lqgcodesign.cli import COLUMNS, main

import support


def _write_scalar(tmp_path, **overrides):
    data = support.scalar_scenario_dict()
    data.update(overrides)
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(data))
    return path


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _select_row(tmp_path, source, problem, method, extra=()):
    out = tmp_path / f"{problem}-{method}.csv"
    code = main(["select", problem, "--scenario", str(source),
                 "--method", method, *extra, "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)
    assert len(rows) == 1
    return rows[0]


def test_scenario_subcommand_writes_loadable_file(tmp_path):
    out = tmp_path / "formation.json"
    code = main(["scenario", "formation", "--agents", "2", "--horizon", "4",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    scenario = lq.load_scenario(out)
    assert scenario.state_dim == 8


def test_scenario_uav_subcommand(tmp_path):
    out = tmp_path / "uav.json"
    code = main(["scenario", "uav", "--landmarks", "3", "--horizon", "5",
                 "--mode", "heterogeneous", "--seed", "2", "--out", str(out)])
    assert code == 0
    scenario = lq.load_scenario(out)
    assert len(scenario.suite) == 5
    assert lq.set_cost(scenario.suite, (0, 1)) == 5.0


def test_select_budget_csv(tmp_path):
    source = _write_scalar(tmp_path)
    row = _select_row(tmp_path, source, "budget", "greedy")
    assert list(row.keys()) == list(COLUMNS)
    assert row["method"] == "greedy"
    assert row["selected_set"] == "1"
    assert row["set_cost"] == "2.0"
    assert float(row["objective_f"]) == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert float(row["gamma_exact"]) == pytest.approx(1.0, abs=1e-9)
    assert row["cert_pass"] == "true"
    assert row["budget_or_kappa"] == "2.0"
    assert row["empirical_mean"] == ""
    assert row["runs"] == ""


def test_select_budget_every_method(tmp_path):
    source = _write_scalar(tmp_path)
    rows = {m: _select_row(tmp_path, source, "budget", m, extra=("--seed", "3"))
            for m in ("greedy", "oracle", "logdet", "random", "all")}
    assert rows["all"]["selected_set"] == "0;1"
    assert float(rows["all"]["objective_f"]) == pytest.approx(0.125, abs=1e-9)
    assert rows["oracle"]["selected_set"] == "1"
    # baselines carry no certificate columns
    assert rows["logdet"]["cert_pass"] == ""
    assert rows["random"]["gamma_exact"] == ""


def test_select_mincost_rows(tmp_path):
    source = _write_scalar(tmp_path, kappa=0.7)
    greedy = _select_row(tmp_path, source, "mincost", "greedy")
    oracle = _select_row(tmp_path, source, "mincost", "oracle")
    assert greedy["selected_set"] == "0;1"
    assert greedy["budget_or_kappa"] == "0.7"
    assert oracle["selected_set"] == "1"
    assert float(greedy["cert_rhs"]) == pytest.approx(2.0 + 2.0 * np.log(6.0),
                                                      abs=1e-9)
    assert greedy["cert_pass"] == "true"


def test_select_infeasible_mincost_exits_2(tmp_path, capsys):
    source = _write_scalar(tmp_path, kappa=0.6)
    code = main(["select", "mincost", "--scenario", str(source),
                 "--method", "greedy"])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_budget_flag_overrides_file(tmp_path):
    source = _write_scalar(tmp_path)
    row = _select_row(tmp_path, source, "budget", "greedy",
                      extra=("--budget", "3"))
    assert row["selected_set"] == "0;1"
    assert row["budget_or_kappa"] == "3.0"


def test_missing_file_exits_1(tmp_path, capsys):
    code = main(["select", "budget", "--scenario", str(tmp_path / "absent.json"),
                 "--method", "greedy"])
    assert code == 1
    assert capsys.readouterr().err != ""


def test_malformed_file_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["cost", "--scenario", str(path), "--set", "0"]) == 1


def test_overflowing_objective_exits_1(tmp_path):
    # a fresh interpreter, so numpy warnings print to stderr as a user sees them
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(support.overflowing_scenario_dict()))
    env = {**os.environ, "PYTHONPATH": str(Path(lq.__file__).parents[1])}
    for argv in (["cost", "--set", ""], ["select", "budget", "--budget", "1"]):
        proc = subprocess.run([sys.executable, "-m", "lqgcodesign", *argv, "--scenario", str(path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lqgcodesign: error:")
        assert "not finite" in lines[0]


def test_overflowing_ratio_bound_exits_1(tmp_path, capsys):
    # the spectral bound reads trajectories, not memoized objectives
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(support.overflowing_scenario_dict()))
    assert main(["ratio", "--scenario", str(path), "--ratio-cap", "0"]) == 1
    captured = capsys.readouterr()
    assert "not finite" in captured.err
    assert captured.out == ""


def test_unknown_flag_exits_1(tmp_path, capsys):
    source = _write_scalar(tmp_path)
    code = main(["select", "budget", "--scenario", str(source), "--frobnicate"])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    assert main(["transmogrify"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_select_json_format(tmp_path):
    source = _write_scalar(tmp_path)
    out = tmp_path / "rows.json"
    code = main(["select", "budget", "--scenario", str(source),
                 "--method", "greedy", "--format", "json", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert rows[0]["method"] == "greedy"
    assert rows[0]["selected_set"] == [1]
    assert rows[0]["cert_pass"] is True
    assert rows[0]["empirical_mean"] is None
    assert list(rows[0].keys()) == list(COLUMNS)


def test_cost_subcommand(tmp_path, capsys):
    source = _write_scalar(tmp_path)
    code = main(["cost", "--scenario", str(source), "--set", "0"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["method"] == "set"
    assert float(row["objective_f"]) == pytest.approx(0.25, abs=1e-9)
    assert float(row["analytical_g"]) == pytest.approx(0.75, abs=1e-9)


def test_riccati_subcommand(tmp_path, capsys):
    source = _write_scalar(tmp_path)
    code = main(["riccati", "--scenario", str(source)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["K"][0] == [[-0.5]]
    assert payload["theta"][0] == [[0.5]]
    assert payload["N"][0] == [[0.5]]


def test_ratio_subcommand(tmp_path, capsys):
    source = _write_scalar(tmp_path)
    code = main(["ratio", "--scenario", str(source)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] == pytest.approx(1.0, abs=1e-9)
    assert payload["hypotheses"]["normalized_sensors"] is False
    assert payload["witness"]["sensor"] in (0, 1)


def test_bound_budget_subcommand(tmp_path, capsys):
    source = _write_scalar(tmp_path)
    code = main(["bound", "budget", "--scenario", str(source)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["passed"] is True
    assert payload["gamma_exact"] == pytest.approx(1.0, abs=1e-9)


def test_bound_mincost_subcommand(tmp_path, capsys):
    source = _write_scalar(tmp_path, kappa=0.7)
    code = main(["bound", "mincost", "--scenario", str(source)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["cap_satisfied"] is True
    assert payload["certificate"]["passed"] is True


def test_simulate_explicit_set(tmp_path):
    source = _write_scalar(tmp_path)
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--scenario", str(source), "--set", "0",
                 "--runs", "50", "--seed", "11", "--out", str(out)])
    assert code == 0
    row = _read_rows(out)[0]
    assert row["method"] == "set"
    assert row["runs"] == "50"
    assert row["selected_set"] == "0"
    assert float(row["empirical_stderr"]) > 0.0
    assert float(row["analytical_g"]) == pytest.approx(0.75, abs=1e-9)


def test_simulate_method_flag(tmp_path):
    source = _write_scalar(tmp_path)
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--scenario", str(source), "--method", "greedy",
                 "--runs", "20", "--seed", "11", "--out", str(out)])
    assert code == 0
    row = _read_rows(out)[0]
    assert row["selected_set"] == "1"
    assert row["method"] == "greedy"


def test_byte_identical_reruns(tmp_path):
    source = _write_scalar(tmp_path)
    for method in ("greedy", "random"):
        first = tmp_path / f"{method}-a.csv"
        second = tmp_path / f"{method}-b.csv"
        args = ["simulate", "--scenario", str(source), "--method", method,
                "--runs", "25", "--seed", "4"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_sweep_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", "formation", "--agents", "2",
                 "--horizon", "4", "--budgets", "2,4",
                 "--methods", "greedy,random,all", "--runs", "10",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)
    assert len(rows) == 6
    assert {r["method"] for r in rows} == {"greedy", "random", "all"}
    assert rows[0]["scenario_id"].startswith("formation-a2-T4-")
    for row in rows:
        if row["gamma_exact"]:
            assert row["cert_pass"] == "true"
        assert row["horizon"] == "4"
        assert row["runs"] == "10"
        assert row["empirical_mean"] != ""


def test_sweep_deterministic(tmp_path):
    args = ["sweep", "--scenario", "uav", "--landmarks", "3", "--horizon", "3",
            "--budgets", "3", "--methods", "greedy,all", "--runs", "5",
            "--seed", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdout_when_no_out_flag(tmp_path, capsys):
    source = _write_scalar(tmp_path)
    code = main(["select", "budget", "--scenario", str(source),
                 "--method", "greedy"])
    assert code == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header == ",".join(COLUMNS)
