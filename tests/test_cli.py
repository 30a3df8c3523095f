"""Command-line surface: subcommands, formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lqgcodesign as lq
from lqgcodesign import _parallel, cli, kalman
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


@pytest.mark.parametrize("argv", [["riccati"], ["cost", "--set", "0"]])
def test_overflowing_riccati_recursion_exits_1(tmp_path, argv):
    # a fresh interpreter, so numpy warnings print to stderr as a user sees them
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(support.overflowing_riccati_scenario_dict()))
    env = {**os.environ, "PYTHONPATH": str(Path(lq.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "lqgcodesign", *argv, "--scenario", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lqgcodesign: error: regulator matrices")
    assert "not finite at time index 245; the Riccati recursion overflowed" in lines[0]


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


def _json_of(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _solved_file(path):
    scenario = lq.load_scenario(path)
    sol = lq.solve_riccati(scenario.system, scenario.weights)
    return scenario, sol, lq.ObjectiveCache(scenario, sol)


def _hypotheses_json(hypotheses):
    return {"theta_sum_pd": hypotheses.theta_sum_pd,
            "normalized_sensors": hypotheses.normalized_sensors,
            "trace_dominated": hypotheses.trace_dominated,
            "applicable": hypotheses.applicable}


def test_ratio_json_on_the_exact_path(tmp_path, capsys):
    source = _write_scalar(tmp_path)
    scenario, sol, cache = _solved_file(source)
    bound, hypotheses = lq.ratio_lower_bound(cache)
    assert _json_of(capsys, ["ratio", "--scenario", str(source)]) == {
        "exact": 1.0,
        "witness": {"subset": [], "superset": [], "sensor": 0,
                    "subset_gain": 0.25, "superset_gain": 0.25, "ratio": 1.0},
        "lower_bound": bound,
        "hypotheses": _hypotheses_json(hypotheses),
    }
    assert hypotheses.applicable is False


def test_ratio_json_above_the_cap(tmp_path, capsys):
    source = _write_scalar(tmp_path)
    scenario, sol, cache = _solved_file(source)
    bound, hypotheses = lq.ratio_lower_bound(cache)
    payload = _json_of(capsys, ["ratio", "--scenario", str(source), "--ratio-cap", "1"])
    assert payload == {"exact": None, "witness": None, "lower_bound": bound,
                       "hypotheses": _hypotheses_json(hypotheses)}


def _bound_json(report, problem, gamma_exact, gamma_bound, certificate):
    return {
        "problem": problem, "method": "greedy", "selected_set": list(report.chosen),
        "set_cost": report.cost, "objective_f": report.objective_f,
        "analytical_g": report.lqg_cost_g, "gamma_exact": gamma_exact,
        "gamma_bound": gamma_bound, "certificate": certificate,
    }


def test_bound_json_on_the_exact_path(tmp_path, capsys):
    source = _write_scalar(tmp_path)
    scenario, sol, cache = _solved_file(source)
    report = lq.greedy_budget(cache, scenario.budget)
    rhs = lq.budget_certificate(report, 1.0, cache.f(())).rhs
    payload = _json_of(capsys, ["bound", "budget", "--scenario", str(source)])
    assert payload == _bound_json(report, "budget", 1.0, None, {
        "kind": "budget", "gamma": 1.0, "lhs": 1.0, "rhs": rhs, "passed": True,
        "cap_satisfied": None, "note": None,
    })


def test_bound_json_on_the_spectral_path(tmp_path, capsys):
    # the spectral hypotheses hold, and a ratio cap of 0 rules out the exact ratio
    scenario, sol, cache = support.solved(support.normalized_bound_scenario(7))
    kappa = 0.5 * (cache.g(()) + cache.g(scenario.suite.ids))
    source = tmp_path / "normalized.json"
    lq.save_scenario(replace(scenario, budget=2.0, kappa=kappa), source)
    scenario, sol, cache = _solved_file(source)
    gamma, hypotheses = lq.ratio_lower_bound(cache)
    assert hypotheses.applicable
    budget = lq.greedy_budget(cache, scenario.budget)
    payload = _json_of(capsys, ["bound", "budget", "--scenario", str(source), "--ratio-cap", "0"])
    assert payload == _bound_json(budget, "budget", None, gamma, {
        "kind": "budget", "gamma": gamma, "lhs": None,
        "rhs": lq.budget_certificate(budget, gamma, cache.f(())).rhs,
        "passed": None, "cap_satisfied": None, "note": None,
    })
    mincost = lq.greedy_mincost(cache, scenario.kappa)
    assert mincost.chosen
    payload = _json_of(capsys, ["bound", "mincost", "--scenario", str(source), "--ratio-cap", "0"])
    assert payload == _bound_json(mincost, "mincost", None, gamma, {
        "kind": "mincost", "gamma": gamma, "lhs": mincost.cost, "rhs": None, "passed": None,
        "cap_satisfied": True, "note": "no reference optimum supplied",
    })


def test_bound_without_certificate_exits_1(tmp_path, capsys):
    # above the ratio cap, and the scalar sensors are not unit-gain
    source = _write_scalar(tmp_path)
    assert main(["bound", "budget", "--scenario", str(source), "--ratio-cap", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "lqgcodesign: error: ground set of 2 sensors exceeds the ratio cap 1 "
        "and the spectral bound hypotheses fail; no certificate\n"
    )


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


def test_simulate_takes_a_budget_or_a_cost_cap_not_both(tmp_path, capsys):
    # one run solves one problem, so a budget and a cost cap together are a usage error
    source = _write_scalar(tmp_path)
    code = main(["simulate", "--scenario", str(source), "--method", "greedy",
                 "--budget", "1", "--kappa", "1e9", "--runs", "5"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --kappa: not allowed with argument --budget" in captured.err


@pytest.mark.parametrize("flag", ["--budget", "--kappa"])
def test_simulate_set_takes_the_constraint_flags(tmp_path, flag):
    # a given flag replaces the file's constraints, as it does for --method
    uav = tmp_path / "uav.json"
    assert main(["scenario", "uav", "--landmarks", "2", "--horizon", "5", "--out", str(uav)]) == 0
    for source, value in ((uav, "3"), (_write_scalar(tmp_path, budget=2.0, kappa=2.0), "0.9")):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scenario", str(source), "--set", "0;1", flag, value,
                     "--runs", "5", "--out", str(out)]) == 0
        assert float(_read_rows(out)[0]["budget_or_kappa"]) == float(value), source


def _write_without(tmp_path, *names):
    data = support.scalar_scenario_dict()
    for name in names:
        del data[name]
    path = tmp_path / f"without-{'-'.join(names)}.json"
    path.write_text(json.dumps(data))
    return path


def test_simulate_takes_a_stored_kappa_when_no_budget_is_stored(tmp_path):
    # with only a kappa left after the flags, simulate solves the cost-capped problem
    data = {**support.scalar_scenario_dict(), "kappa": 0.8}
    del data["budget"]
    source = tmp_path / "kappa.json"
    source.write_text(json.dumps(data))
    rows = []
    for flags in ((), ("--kappa", "0.8")):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scenario", str(source), "--method", "oracle",
                     "--runs", "5", *flags, "--out", str(out)]) == 0
        rows.append(_read_rows(out)[0])
    assert rows[0] == rows[1]
    assert (rows[0]["budget_or_kappa"], rows[0]["selected_set"]) == ("0.8", "0")


def test_a_missing_constraint_is_named_before_any_solve(tmp_path, monkeypatch, capsys):
    loads, solves = [], []

    def counted(function, calls):
        def call(*args, **kwargs):
            calls.append(None)
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr("lqgcodesign.cli.load_scenario", counted(lq.load_scenario, loads))
    monkeypatch.setattr("lqgcodesign.cli.solve_riccati", counted(lq.solve_riccati, solves))
    for argv, name in ((["select", "budget", "--scenario", _write_without(tmp_path, "budget")],
                        "budget"),
                       (["bound", "mincost", "--scenario", _write_without(tmp_path, "kappa")],
                        "kappa"),
                       (["simulate", "--scenario", _write_without(tmp_path, "budget", "kappa"),
                         "--runs", "5"], "budget")):
        loads.clear()
        assert main([str(arg) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"lqgcodesign: error: no {name} given; "
                                f"pass --{name} or store one in the scenario\n")
        assert (len(loads), len(solves)) == (1, 0), argv
    scenario = ("--scenario", str(_write_scalar(tmp_path)))
    for argv in (["cost", *scenario, "--set", "0"],
                 ["select", "budget", *scenario],
                 ["select", "mincost", *scenario, "--method", "oracle"],
                 ["simulate", *scenario, "--set", "0", "--runs", "2"],
                 ["simulate", *scenario, "--method", "greedy", "--runs", "2"],
                 ["bound", "budget", *scenario],
                 ["bound", "mincost", *scenario],
                 ["ratio", *scenario]):
        loads.clear()
        solves.clear()
        assert main(argv) == 0, capsys.readouterr().err
        assert (len(loads), len(solves)) == (1, 1), argv


@pytest.mark.parametrize("flags, message", [
    (["cost", "--set", "0,x"], "--set: expected an integer, got 'x'"),
    (["simulate", "--set", "a", "--runs", "2"], "--set: expected an integer, got 'a'"),
    (["select", "budget", "--method", "random", "--mandatory", "0;y"],
     "--mandatory: expected an integer, got 'y'"),
    (["simulate", "--method", "random", "--mandatory", "z", "--runs", "2"],
     "--mandatory: expected an integer, got 'z'"),
    *[(["simulate", "--kappa", "1", "--method", method, "--runs", "2"],
       f"method {method!r} applies only to budget selection")
      for method in ("logdet", "random", "all")],
], ids=["cost-set", "simulate-set", "select-mandatory", "simulate-mandatory",
        "simulate-kappa-logdet", "simulate-kappa-random", "simulate-kappa-all"])
def test_malformed_input_is_refused_before_any_solve(tmp_path, monkeypatch, capsys, flags,
                                                     message):
    solves = []

    def counted(*args, **kwargs):
        solves.append(None)
        return lq.solve_riccati(*args, **kwargs)

    monkeypatch.setattr("lqgcodesign.cli.solve_riccati", counted)
    assert main([*flags, "--scenario", str(_write_scalar(tmp_path))]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"lqgcodesign: error: {message}\n")
    assert solves == []


def test_simulate_has_no_ratio_cap(tmp_path, capsys):
    # simulate never certifies, so only the oracle cap applies to it
    source = _write_scalar(tmp_path)
    base = ["simulate", "--scenario", str(source), "--runs", "2"]
    assert main([*base, "--ratio-cap", "3"]) == 1
    assert "unrecognized arguments: --ratio-cap 3" in capsys.readouterr().err
    assert main([*base, "--method", "oracle", "--oracle-cap", "3"]) == 0


def test_singular_prior_is_supported(tmp_path, capsys):
    # rank-3 sigma_init: everything but the log-volume, which is -inf, runs
    source = tmp_path / "uav.json"
    lq.save_scenario(support.singular_prior_uav_scenario(), source)
    scenario = ["--scenario", str(source)]
    for argv in (["select", "budget", "--method", "greedy"],
                 ["select", "budget", "--method", "oracle"],
                 ["bound", "budget"],
                 ["simulate", "--runs", "3"],
                 ["cost", "--set", "0;1"]):
        assert main([*argv, *scenario]) == 0, argv
    capsys.readouterr()
    assert main(["select", "budget", "--method", "logdet", *scenario]) == 1
    assert capsys.readouterr().err == (
        "lqgcodesign: error: filtering covariance not positive definite at time index 0\n")


@pytest.mark.parametrize("field, value, named", [
    ("kappa", [1], "kappa"),
    ("budget", {"a": 1}, "budget"),
    ("budget", "cheap", "budget"),
    ("horizon", 1.7, "horizon"),
    ("A", [[1.0, 2.0], [3.0]], "A"),
    ("cost", None, "sensor 0 cost"),
    ("V", [["x"]], "sensor 0 V"),
])
def test_malformed_scalar_fails_cleanly(tmp_path, capsys, field, value, named):
    data = support.scalar_scenario_dict()
    (data["sensors"][0] if named.startswith("sensor") else data)[field] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    assert main(["cost", "--scenario", str(path), "--set", "0"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"lqgcodesign: error: {named}: ")


@pytest.mark.parametrize("field", ["W", "R", "Q", "sigma_init"])
def test_huge_finite_entry_does_not_overflow(tmp_path, capsys, field):
    # symmetrizing a matrix with an entry near the float maximum stays finite
    path = _write_scalar(tmp_path, **{field: [[1e308]]})
    assert main(["cost", "--scenario", str(path), "--set", "0"]) == 0
    assert capsys.readouterr().err == ""


def test_asymmetric_entries_near_float_maximum_fail_cleanly(tmp_path):
    # a fresh interpreter, so an overflow warning would print to stderr as a user sees it
    eye = np.eye(2).tolist()
    path = _write_scalar(tmp_path, state_dim=2, A=eye, B=eye, Q=eye, R=eye, sigma_init=eye,
                         W=[[1.0, 1e308], [-1e308, 1.0]],
                         sensors=[{"id": 0, "C": [[1.0, 0.0]], "V": [[1.0]], "cost": 1.0}])
    env = {**os.environ, "PYTHONPATH": str(Path(lq.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "lqgcodesign", "cost", "--set", "0",
                           "--scenario", str(path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr == "lqgcodesign: error: W at time index 0: not symmetric within 1e-09\n"


def test_deeply_nested_json_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["riccati", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lqgcodesign: error: ")
    assert "malformed JSON" in lines[0]


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


@pytest.mark.parametrize("grid", [
    ("--scenario", "formation", "--agents", "2,3", "--horizon", "4,5", "--budgets", "3,4,5",
     "--methods", "greedy,oracle,logdet,random,all", "--runs", "12", "--seed", "3"),
    ("--scenario", "uav", "--landmarks", "3", "--horizon", "4", "--budgets", "3,5,7",
     "--mode", "heterogeneous", "--methods", "all,greedy,random,logdet", "--runs", "7",
     "--seed", "1"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_equals_the_per_row_loop(monkeypatch, capsys, grid, fmt):
    # one monte_carlo_many per grid point against one monte_carlo per row
    argv = ["sweep", *grid, "--format", fmt]
    assert main(argv) == 0
    shared = capsys.readouterr().out
    monkeypatch.setattr("lqgcodesign.cli._sweep_point", support.reference_sweep_point)
    assert main(argv) == 0
    assert shared == capsys.readouterr().out
    rows = json.loads(shared) if fmt == "json" else list(csv.DictReader(shared.splitlines()))
    assert rows and all(str(row["runs"]) == grid[grid.index("--runs") + 1] for row in rows)


def test_stdout_when_no_out_flag(tmp_path, capsys):
    source = _write_scalar(tmp_path)
    code = main(["select", "budget", "--scenario", str(source),
                 "--method", "greedy"])
    assert code == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header == ",".join(COLUMNS)


def test_certificate_without_oracle_reference_above_the_oracle_cap(tmp_path, capsys):
    # the ground set is within the ratio cap but above the oracle cap: the
    # certificate keeps its ratio side and leaves the optimum side undefined
    source = _write_scalar(tmp_path, kappa=0.7)
    caps = ("--ratio-cap", "2", "--oracle-cap", "1")
    row = _select_row(tmp_path, source, "budget", "greedy", extra=caps)
    assert float(row["gamma_exact"]) == pytest.approx(1.0, abs=1e-9)
    assert float(row["cert_rhs"]) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)
    assert row["cert_lhs"] == "" and row["cert_pass"] == ""
    payload = _json_of(capsys, ["bound", "budget", "--scenario", str(source), *caps])
    assert payload["certificate"]["lhs"] is None
    assert payload["certificate"]["passed"] is None
    payload = _json_of(capsys, ["bound", "mincost", "--scenario", str(source), *caps])
    assert payload["certificate"]["note"] == "no reference optimum supplied"
    assert payload["certificate"]["cap_satisfied"] is True
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", "formation", "--agents", "2", "--horizon", "4",
                 "--budgets", "2", "--methods", "greedy", "--runs", "0",
                 "--ratio-cap", "4", "--oracle-cap", "3", "--out", str(out)]) == 0
    (row,) = _read_rows(out)
    assert row["gamma_exact"] != "" and row["cert_rhs"] != ""
    assert row["cert_lhs"] == "" and row["cert_pass"] == ""


def _sweep_args(**flags):
    args = {"--agents": "2", "--horizon": "4", "--budgets": "2", "--methods": "greedy,all",
            "--runs": "2", **flags}
    return ["sweep", "--scenario", "formation", *(x for pair in args.items() for x in pair)]


def test_sweep_rejects_negative_runs(capsys):
    assert main(_sweep_args(**{"--runs": "-3"})) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lqgcodesign: error: runs must be at least 0")
    # zero runs is valid and leaves the Monte Carlo columns empty
    assert main(_sweep_args(**{"--runs": "0"})) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 2
    assert all(r["runs"] == "" and r["empirical_mean"] == "" for r in rows)


@pytest.mark.parametrize("flag, value, noun", [
    pytest.param("--agents", value, "agent count", id=value) for value in ("", ",", " , ")
] + [
    pytest.param("--methods", value, "method", id=f"methods{value}") for value in ("", ",")
])
def test_sweep_rejects_an_empty_agent_list(capsys, flag, value, noun):
    assert main(_sweep_args(**{flag: value})) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lqgcodesign: error: sweep needs at least one {noun}\n"


@pytest.mark.parametrize("command, message", [
    (_sweep_args(**{"--budgets": "2,x"}), "--budgets: expected a number, got 'x'"),
    (_sweep_args(**{"--horizon": "4.5"}), "--horizon: expected an integer, got '4.5'"),
    (["cost", "--scenario", "SCALAR", "--set", "0;inf"], "--set: expected an integer, got 'inf'"),
    (["select", "budget", "--scenario", "SCALAR", "--method", "greedy", "--mandatory", "a"],
     "--mandatory: expected an integer, got 'a'"),
    (["select", "budget", "--scenario", "SCALAR", "--method", "random", "--seed", "-1"],
     "argument --seed: expected a nonnegative integer, got '-1'"),
    (["simulate", "--scenario", "SCALAR", "--set", "0", "--seed", "x"],
     "argument --seed: expected a nonnegative integer, got 'x'"),
], ids=["budgets", "horizons", "set", "mandatory", "negative-seed", "seed"])
def test_bad_list_items_and_seeds_name_the_flag(tmp_path, capsys, command, message):
    source = str(_write_scalar(tmp_path))
    assert main([source if arg == "SCALAR" else arg for arg in command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err.splitlines()[-1]


@pytest.mark.parametrize("command, name", [
    (["sweep", "--scenario", "uav", "--landmarks", "2", "--horizon", "5", "--budgets", "nan",
      "--methods", "all", "--runs", "0"], "budget"),
    (["select", "budget", "--scenario", "SCALAR", "--budget", "-1"], "budget"),
    (["select", "mincost", "--scenario", "SCALAR", "--kappa", "inf"], "kappa"),
    (["simulate", "--scenario", "SCALAR", "--set", "0", "--kappa", "nan"], "kappa"),
], ids=["sweep-nan-budget", "negative-budget", "infinite-kappa", "simulate-set-nan-kappa"])
def test_an_invalid_constraint_exits_1(tmp_path, capsys, command, name):
    source = str(_write_scalar(tmp_path))
    assert main([source if arg == "SCALAR" else arg for arg in command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lqgcodesign: error: {name} must be finite and nonnegative\n"


@pytest.mark.parametrize("command", [
    ["scenario", "formation", "--horizon", "-1"],
    ["scenario", "uav", "--horizon", "0"],
    _sweep_args(**{"--horizon": "0"}),
])
def test_a_horizon_below_one_is_named(tmp_path, capsys, command):
    assert main([*command, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "lqgcodesign: error: horizon must be at least 1\n"
    assert not (tmp_path / "out").exists()


def test_sweep_computes_the_ratio_once_per_grid_point(monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].scenario.budget)
        return lq.ratio_report(*args, **kwargs)

    monkeypatch.setattr("lqgcodesign.cli.ratio_report", counted)
    args = _sweep_args(**{"--budgets": "1,2,3", "--methods": "greedy,logdet", "--runs": "0"})
    assert main(args) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 6
    assert all(r["gamma_exact"] != "" for r in rows if r["method"] == "greedy")
    assert calls == [None]
    # no greedy row, no ratio
    assert main(_sweep_args(**{"--budgets": "1,2,3", "--methods": "logdet,all"})) == 0
    assert calls == [None]


def test_select_certifies_with_the_spectral_bound_as_bound_does(tmp_path, capsys):
    # the spectral hypotheses hold, and a ratio cap of 0 rules out the exact ratio
    scenario = support.normalized_bound_scenario(7)
    source = tmp_path / "normalized.json"
    lq.save_scenario(replace(scenario, budget=2.0), source)
    caps = ("--ratio-cap", "0")
    row = _select_row(tmp_path, source, "budget", "greedy", extra=caps)
    payload = _json_of(capsys, ["bound", "budget", "--scenario", str(source), *caps])
    assert row["gamma_exact"] == "" and payload["gamma_exact"] is None
    assert float(row["gamma_bound"]) == payload["gamma_bound"]
    assert float(row["cert_rhs"]) == payload["certificate"]["rhs"]
    assert row["cert_lhs"] == "" and row["cert_pass"] == ""


def _propagated(monkeypatch) -> list:
    """The masks of every covariance trajectory the caches propagate from now on, in
    this process: a single CPU keeps every sweep column and rollout share here."""
    masks = []
    trajectories = kalman.ObjectiveCache.trajectories

    def recorded(cache, asked):
        asked = list(asked)
        masks.extend(asked)
        yield from trajectories(cache, asked)

    monkeypatch.setattr(_parallel, "_cpus", lambda: 1)
    monkeypatch.setattr(kalman.ObjectiveCache, "trajectories", recorded)
    return masks


def test_certified_commands_skip_a_bound_whose_hypotheses_fail(tmp_path, monkeypatch, capsys):
    # formation a2's relative sensors are not normalized, so no certificate can
    # use the spectral bound: select, bound and sweep propagate neither its
    # full-set nor its empty-set trajectory, while ratio still prints the bound
    scenario = lq.build_formation_scenario(2, 6, "heterogeneous", 7)
    source = tmp_path / "a2.json"
    lq.save_scenario(scenario, source)
    bound, hypotheses = lq.ratio_lower_bound(support.solved(scenario)[2])
    assert hypotheses.theta_sum_pd and not hypotheses.normalized_sensors and bound is not None
    full = (1 << len(scenario.suite)) - 1
    masks = _propagated(monkeypatch)
    for caps in ((), ("--ratio-cap", "0")):
        for argv in (["select", "budget", "--budget", "2"], ["bound", "budget", "--budget", "2"]):
            code = main([*argv, "--scenario", str(source), *caps])
            assert code == (1 if caps and argv[0] == "bound" else 0)  # bound needs a gamma
            assert masks == [], argv
    capsys.readouterr()
    sweep = ["sweep", "--scenario", "formation", "--agents", "2", "--horizon", "6",
             "--mode", "heterogeneous", "--seed", "7", "--budgets", "2,3",
             "--methods", "greedy,logdet,random", "--runs", "5"]
    assert main(sweep) == 0
    assert masks and full not in masks  # the rollouts' sets only
    masks.clear()
    capsys.readouterr()
    payload = _json_of(capsys, ["ratio", "--scenario", str(source), "--ratio-cap", "0"])
    assert payload["lower_bound"] == bound and masks == [full, 0]


def test_certified_commands_still_print_an_applicable_bound(tmp_path, monkeypatch, capsys):
    scenario = support.normalized_bound_scenario(7)
    source = tmp_path / "normalized.json"
    lq.save_scenario(replace(scenario, budget=2.0), source)
    bound, hypotheses = lq.ratio_lower_bound(support.solved(scenario)[2])
    assert hypotheses.applicable and bound > 0.0
    full = (1 << len(scenario.suite)) - 1
    masks = _propagated(monkeypatch)
    row = _select_row(tmp_path, source, "budget", "greedy", extra=("--ratio-cap", "0"))
    assert float(row["gamma_bound"]) == bound and masks == [0, full]
    masks.clear()
    payload = _json_of(capsys, ["bound", "budget", "--scenario", str(source), "--ratio-cap", "0"])
    assert payload["gamma_bound"] == payload["certificate"]["gamma"] == bound
    assert masks == [0, full]


def test_a_certifying_bound_stops_at_the_first_failed_hypothesis():
    scenarios = support.differential_scenarios()[::3] + [support.normalized_bound_scenario(1)]
    scenarios.append(lq.build_formation_scenario(2, 6, "heterogeneous", 7))
    for scenario in scenarios:
        cache = support.solved(scenario)[2]
        bound, flags = lq.ratio_lower_bound(cache)
        certified, checked = lq.ratio_lower_bound(cache, certifying=True)
        every = [flags.theta_sum_pd, flags.normalized_sensors, flags.trace_dominated]
        asked = every.index(False) + 1 if False in every else 3
        assert [checked.theta_sum_pd, checked.normalized_sensors,
                checked.trace_dominated] == every[:asked] + [None] * (3 - asked)
        assert checked.applicable == flags.applicable
        assert certified == (bound if flags.applicable else None)
        report = lq.ratio_report(cache, 0, certifying=True)
        assert report.gamma_bound == lq.ratio_report(cache, 0).gamma_bound


def _parsed(parser, argv) -> tuple:
    """Exit code, stdout and stderr of parsing ``argv``; a parse that succeeds exits None."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


PARSED = [[], ["--help"], ["-h"], ["frobnicate"], ["-x", "select"], ["select"],
          ["select", "nope"], ["sweep"], ["select", "budget", "--scenario", "x", "--frob"],
          ["sweep", "--scenario", "formation", "--budgets", "1", "--seed", "-1"]]
PARSED += [[*command, "--help"] for command in (
    ["scenario"], ["scenario", "formation"], ["scenario", "uav"], ["riccati"], ["cost"],
    ["select"], ["select", "budget"], ["select", "mincost"], ["simulate"], ["ratio"],
    ["bound"], ["bound", "budget"], ["bound", "mincost"], ["sweep"])]


@pytest.mark.parametrize("argv", PARSED, ids=" ".join)
def test_main_parses_as_a_parser_built_whole(argv):
    code, out, err = _parsed(cli.build_parser(), argv)
    assert code is not None
    assert _parsed(cli.build_parser(lazy=True), argv) == (code, out, err)
    with contextlib.redirect_stdout(io.StringIO()) as got, \
            contextlib.redirect_stderr(io.StringIO()) as got_err:
        assert main(argv) == code
    assert (got.getvalue(), got_err.getvalue()) == (out, err)


@pytest.mark.parametrize("argv, built", [
    (["sweep", "--help"], ["sweep"]),
    (["select", "budget", "--help"], ["select", "select budget"]),
    (["bound", "mincost", "--help"], ["bound", "bound mincost"]),
    (["scenario", "uav", "--help"], ["scenario", "scenario uav"]),
    (["--help"], []),
])
def test_main_builds_only_the_invoked_parsers(monkeypatch, argv, built):
    made = []
    for name in ("_scenario_args", "_riccati_args", "_cost_args", "_select_args",
                 "_simulate_args", "_ratio_args", "_bound_args", "_sweep_args",
                 "_family_args", "_select_problem_args", "_bound_problem_args"):
        build = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda *args, build=build: made.append(args[-1].prog) or build(*args))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert made == [f"lqgcodesign {name}" for name in built]
