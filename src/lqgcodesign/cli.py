"""Command-line interface.

Subcommands cover the full workflow: build benchmark scenarios, inspect
the regulator recursion, select sensor sets under either constraint,
simulate closed-loop costs, and evaluate ratio bounds and certificates.
Result-producing commands emit rows with a fixed column set (CSV by
default, JSON mirroring the same fields) so runs can be concatenated and
diffed; identical invocations with identical seeds produce byte-identical
output.

Exit codes: 0 on success, 1 on validation or usage errors, 2 when a
cost-capped problem is infeasible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from ._linalg import NumericalError
from .analysis import (
    RATIO_CAP,
    budget_certificate,
    exact_supermodularity_ratio,
    mincost_certificate,
    ratio_lower_bound,
)
from .kalman import ObjectiveCache
from .model import ValidationError, load_scenario, save_scenario
from .riccati import solve_riccati
from .selection import (
    InfeasibleError,
    SelectionReport,
    baseline_logdet,
    baseline_random,
    evaluate_set,
    greedy_budget,
    greedy_mincost,
    oracle_budget,
    oracle_mincost,
)
from .simulate import build_formation_scenario, build_uav_scenario, monte_carlo

COLUMNS = (
    "scenario_id", "method", "horizon", "budget_or_kappa", "selected_set",
    "set_cost", "objective_f", "analytical_g", "empirical_mean",
    "empirical_stderr", "runs", "gamma_exact", "gamma_bound",
    "cert_lhs", "cert_rhs", "cert_pass",
)

ORACLE_CAP = 20


@dataclass(frozen=True)
class ResultRow:
    """One selection or simulation outcome in the fixed column set."""

    scenario_id: str
    method: str
    horizon: int
    budget_or_kappa: float | None
    selected_set: tuple[int, ...]
    set_cost: float
    objective_f: float
    analytical_g: float
    empirical_mean: float | None = None
    empirical_stderr: float | None = None
    runs: int | None = None
    gamma_exact: float | None = None
    gamma_bound: float | None = None
    cert_lhs: float | None = None
    cert_rhs: float | None = None
    cert_pass: bool | None = None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ";".join(str(i) for i in value)
    return str(value)


def rows_to_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([_cell(getattr(row, name)) for name in COLUMNS])
    return buf.getvalue()


def rows_to_json(rows: list[ResultRow]) -> str:
    payload = []
    for row in rows:
        entry = {}
        for name in COLUMNS:
            value = getattr(row, name)
            entry[name] = list(value) if isinstance(value, tuple) else value
        payload.append(entry)
    return json.dumps(payload, indent=2) + "\n"


def _emit_rows(rows: list[ResultRow], fmt: str, out: str | None) -> None:
    text = rows_to_json(rows) if fmt == "json" else rows_to_csv(rows)
    _write_text(text, out)


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(payload, out: str | None) -> None:
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _parse_ids(text: str) -> tuple[int, ...]:
    if text is None:
        return ()
    cleaned = text.replace(",", ";")
    parts = [p.strip() for p in cleaned.split(";") if p.strip()]
    return tuple(int(p) for p in parts)


def _parse_float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _parse_int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _certify(scenario, sol, cache, report: SelectionReport, problem: str,
             ratio_cap: int, oracle_cap: int):
    """Ratio values and certificate fields for a greedy report, where enumerable."""
    gamma_exact = None
    cert = None
    if len(scenario.suite) <= ratio_cap:
        gamma_exact, _ = exact_supermodularity_ratio(scenario, sol, cache, ratio_cap)
        g_empty = cache.g(())
        if problem == "budget":
            ref = oracle_budget(scenario, sol, cache, max_sensors=oracle_cap)
            cert = budget_certificate(report, gamma_exact, g_empty, g_star=ref.lqg_cost_g)
        else:
            ref = oracle_mincost(scenario, sol, cache, max_sensors=oracle_cap)
            cert = mincost_certificate(report, gamma_exact, g_empty, b_star=ref.cost)
    bound, hypotheses = ratio_lower_bound(scenario, sol, cache)
    gamma_bound = bound if (bound is not None and hypotheses.applicable) else None
    return gamma_exact, gamma_bound, cert


def _selection_row(scenario_id, scenario, report: SelectionReport,
                   summary=None, gamma_exact=None, gamma_bound=None, cert=None) -> ResultRow:
    return ResultRow(
        scenario_id=scenario_id,
        method=report.method,
        horizon=scenario.horizon,
        budget_or_kappa=report.budget if report.budget is not None else report.kappa,
        selected_set=report.chosen,
        set_cost=report.cost,
        objective_f=report.objective_f,
        analytical_g=report.lqg_cost_g,
        empirical_mean=None if summary is None else summary.mean_cost,
        empirical_stderr=None if summary is None else summary.std_error,
        runs=None if summary is None else summary.run_count,
        gamma_exact=gamma_exact,
        gamma_bound=gamma_bound,
        cert_lhs=None if cert is None else cert.lhs,
        cert_rhs=None if cert is None else cert.rhs,
        cert_pass=None if cert is None else cert.passed,
    )


def _run_method(scenario, sol, cache, problem: str, method: str, args) -> SelectionReport:
    if problem == "mincost" and method not in ("greedy", "oracle"):
        raise ValueError(f"method {method!r} applies only to budget selection")
    if method == "greedy":
        if problem == "budget":
            return greedy_budget(scenario, sol, cache)
        return greedy_mincost(scenario, sol, cache)
    if method == "oracle":
        if problem == "budget":
            return oracle_budget(scenario, sol, cache, max_sensors=args.oracle_cap)
        return oracle_mincost(scenario, sol, cache, max_sensors=args.oracle_cap)
    if method == "logdet":
        return baseline_logdet(scenario, sol, cache)
    if method == "random":
        mandatory = _parse_ids(getattr(args, "mandatory", "") or "")
        return baseline_random(scenario, sol, mandatory, seed=args.seed, cache=cache)
    if method == "all":
        return evaluate_set(scenario, sol, scenario.suite.ids, cache, method="all")
    raise ValueError(f"unknown method {method!r}")


def _scenario_with_constraint(args, problem: str):
    scenario = load_scenario(args.scenario)
    if problem == "budget":
        if args.budget is not None:
            scenario = replace(scenario, budget=args.budget)
        if scenario.budget is None:
            raise ValueError("no budget given; pass --budget or store one in the scenario")
    else:
        if args.kappa is not None:
            scenario = replace(scenario, kappa=args.kappa)
        if scenario.kappa is None:
            raise ValueError("no kappa given; pass --kappa or store one in the scenario")
    return scenario


def cmd_scenario(args) -> int:
    if args.family == "formation":
        scenario = build_formation_scenario(
            agents=args.agents, horizon=args.horizon, mode=args.mode, seed=args.seed,
        )
    else:
        scenario = build_uav_scenario(
            landmarks=args.landmarks, horizon=args.horizon,
            cost_mode=args.mode, seed=args.seed,
        )
    save_scenario(scenario, args.out)
    return 0


def cmd_riccati(args) -> int:
    scenario = load_scenario(args.scenario)
    sol = solve_riccati(scenario.system, scenario.weights)
    payload = {
        "horizon": sol.horizon,
        "S": [m.tolist() for m in sol.S],
        "N": [m.tolist() for m in sol.N],
        "M": [m.tolist() for m in sol.M],
        "K": [m.tolist() for m in sol.K],
        "theta": [m.tolist() for m in sol.theta],
    }
    _emit_json(payload, args.out)
    return 0


def cmd_cost(args) -> int:
    scenario = load_scenario(args.scenario)
    sol = solve_riccati(scenario.system, scenario.weights)
    cache = ObjectiveCache(scenario, sol)
    report = evaluate_set(scenario, sol, _parse_ids(args.set), cache)
    row = _selection_row(Path(args.scenario).stem, scenario, report)
    _emit_rows([row], args.format, args.out)
    return 0


def cmd_select(args) -> int:
    scenario = _scenario_with_constraint(args, args.problem)
    sol = solve_riccati(scenario.system, scenario.weights)
    cache = ObjectiveCache(scenario, sol)
    report = _run_method(scenario, sol, cache, args.problem, args.method, args)
    gamma_exact = gamma_bound = cert = None
    if args.method == "greedy":
        gamma_exact, gamma_bound, cert = _certify(
            scenario, sol, cache, report, args.problem, args.ratio_cap, args.oracle_cap,
        )
    row = _selection_row(Path(args.scenario).stem, scenario, report,
                         gamma_exact=gamma_exact, gamma_bound=gamma_bound, cert=cert)
    _emit_rows([row], args.format, args.out)
    return 0


def cmd_simulate(args) -> int:
    if args.set is not None:
        scenario = load_scenario(args.scenario)
        sol = solve_riccati(scenario.system, scenario.weights)
        cache = ObjectiveCache(scenario, sol)
        report = evaluate_set(scenario, sol, _parse_ids(args.set), cache)
    else:
        problem = "mincost" if args.kappa is not None else "budget"
        scenario = _scenario_with_constraint(args, problem)
        sol = solve_riccati(scenario.system, scenario.weights)
        cache = ObjectiveCache(scenario, sol)
        report = _run_method(scenario, sol, cache, problem, args.method, args)
    summary = monte_carlo(scenario, sol, report.chosen, runs=args.runs,
                          base_seed=args.seed, method=report.method, cache=cache)
    row = _selection_row(Path(args.scenario).stem, scenario, report, summary=summary)
    _emit_rows([row], args.format, args.out)
    return 0


def cmd_ratio(args) -> int:
    scenario = load_scenario(args.scenario)
    sol = solve_riccati(scenario.system, scenario.weights)
    cache = ObjectiveCache(scenario, sol)
    payload = {}
    if len(scenario.suite) <= args.ratio_cap:
        exact, witness = exact_supermodularity_ratio(scenario, sol, cache, args.ratio_cap)
        payload["exact"] = exact
        payload["witness"] = None if witness is None else {
            "subset": list(witness.subset),
            "superset": list(witness.superset),
            "sensor": witness.sensor,
            "subset_gain": witness.subset_gain,
            "superset_gain": witness.superset_gain,
            "ratio": witness.ratio,
        }
    else:
        payload["exact"] = None
        payload["witness"] = None
    bound, hypotheses = ratio_lower_bound(scenario, sol, cache)
    payload["lower_bound"] = bound
    payload["hypotheses"] = {
        "theta_sum_pd": hypotheses.theta_sum_pd,
        "normalized_sensors": hypotheses.normalized_sensors,
        "trace_dominated": hypotheses.trace_dominated,
        "applicable": hypotheses.applicable,
    }
    _emit_json(payload, args.out)
    return 0


def cmd_bound(args) -> int:
    scenario = _scenario_with_constraint(args, args.problem)
    sol = solve_riccati(scenario.system, scenario.weights)
    cache = ObjectiveCache(scenario, sol)
    if args.problem == "budget":
        report = greedy_budget(scenario, sol, cache)
    else:
        report = greedy_mincost(scenario, sol, cache)
    gamma_exact, gamma_bound, cert = _certify(
        scenario, sol, cache, report, args.problem, args.ratio_cap, args.oracle_cap,
    )
    if cert is None:
        if gamma_bound is None:
            raise ValueError(
                f"ground set of {len(scenario.suite)} sensors exceeds the ratio cap "
                f"{args.ratio_cap} and the spectral bound hypotheses fail; no certificate"
            )
        g_empty = cache.g(())
        if args.problem == "budget":
            cert = budget_certificate(report, gamma_bound, g_empty)
        else:
            cert = mincost_certificate(report, gamma_bound, g_empty)
    payload = {
        "problem": args.problem,
        "method": report.method,
        "selected_set": list(report.chosen),
        "set_cost": report.cost,
        "objective_f": report.objective_f,
        "analytical_g": report.lqg_cost_g,
        "gamma_exact": gamma_exact,
        "gamma_bound": gamma_bound,
        "certificate": {
            "kind": cert.kind,
            "gamma": cert.gamma,
            "lhs": cert.lhs,
            "rhs": cert.rhs,
            "passed": cert.passed,
            "cap_satisfied": cert.cap_satisfied,
            "note": cert.note,
        },
    }
    _emit_json(payload, args.out)
    return 0


def cmd_sweep(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    allowed = {"greedy", "oracle", "logdet", "random", "all"}
    unknown = set(methods) - allowed
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    horizons = _parse_int_list(args.horizon)
    budgets = _parse_float_list(args.budgets)
    if not horizons or not budgets:
        raise ValueError("sweep needs at least one horizon and one budget")
    if args.mode is None:
        args.mode = "homogeneous" if args.family == "formation" else "uniform"
    rows: list[ResultRow] = []
    if args.family == "formation":
        agent_counts = _parse_int_list(args.agents)
        grid = [("formation", a, T) for a in agent_counts for T in horizons]
    else:
        grid = [("uav", args.landmarks, T) for T in horizons]
    for family, size, horizon in grid:
        if family == "formation":
            scenario_base = build_formation_scenario(
                agents=size, horizon=horizon, mode=args.mode, seed=args.seed,
            )
            scenario_id = f"formation-a{size}-T{horizon}-{args.mode}-s{args.seed}"
            mandatory = tuple(range(size))
        else:
            scenario_base = build_uav_scenario(
                landmarks=size, horizon=horizon, cost_mode=args.mode, seed=args.seed,
            )
            scenario_id = f"uav-l{size}-T{horizon}-{args.mode}-s{args.seed}"
            mandatory = (0,)
        sol = solve_riccati(scenario_base.system, scenario_base.weights)
        cache = ObjectiveCache(scenario_base, sol)
        for budget in budgets:
            scenario = replace(scenario_base, budget=budget)
            for method in methods:
                if method == "random":
                    report = baseline_random(scenario, sol, mandatory,
                                             seed=args.seed, cache=cache)
                else:
                    report = _run_method(scenario, sol, cache, "budget", method, args)
                summary = None
                if args.runs > 0:
                    summary = monte_carlo(scenario, sol, report.chosen, runs=args.runs,
                                          base_seed=args.seed, method=method, cache=cache)
                gamma_exact = gamma_bound = cert = None
                if method == "greedy":
                    gamma_exact, gamma_bound, cert = _certify(
                        scenario, sol, cache, report, "budget",
                        args.ratio_cap, args.oracle_cap,
                    )
                rows.append(_selection_row(scenario_id, scenario, report, summary=summary,
                                           gamma_exact=gamma_exact, gamma_bound=gamma_bound,
                                           cert=cert))
    _emit_rows(rows, args.format, args.out)
    return 0


def _add_common_output(parser) -> None:
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_caps(parser) -> None:
    parser.add_argument("--ratio-cap", type=int, default=RATIO_CAP,
                        help="largest ground set enumerated for the exact ratio")
    parser.add_argument("--oracle-cap", type=int, default=ORACLE_CAP,
                        help="largest ground set enumerated by the brute-force oracle")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lqgcodesign",
                     description="Sensor selection and LQG control co-design")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scn = sub.add_parser("scenario", help="build a benchmark scenario file")
    scn_sub = p_scn.add_subparsers(dest="family", required=True)
    p_form = scn_sub.add_parser("formation", help="planar formation benchmark")
    p_form.add_argument("--agents", type=int, default=4)
    p_form.add_argument("--horizon", type=int, default=20)
    p_form.add_argument("--mode", choices=("homogeneous", "heterogeneous"),
                        default="homogeneous")
    p_form.add_argument("--seed", type=int, default=0)
    p_form.add_argument("--out", required=True)
    p_form.set_defaults(func=cmd_scenario, family="formation")
    p_uav = scn_sub.add_parser("uav", help="UAV landing benchmark")
    p_uav.add_argument("--landmarks", type=int, default=3)
    p_uav.add_argument("--horizon", type=int, default=20)
    p_uav.add_argument("--mode", choices=("uniform", "heterogeneous"), default="uniform")
    p_uav.add_argument("--seed", type=int, default=0)
    p_uav.add_argument("--out", required=True)
    p_uav.set_defaults(func=cmd_scenario, family="uav")

    p_ric = sub.add_parser("riccati", help="dump the regulator recursion matrices")
    p_ric.add_argument("--scenario", required=True)
    p_ric.add_argument("--out", default=None)
    p_ric.set_defaults(func=cmd_riccati)

    p_cost = sub.add_parser("cost", help="objectives of an explicit sensor set")
    p_cost.add_argument("--scenario", required=True)
    p_cost.add_argument("--set", required=True, help="semicolon-separated sensor ids")
    _add_common_output(p_cost)
    p_cost.set_defaults(func=cmd_cost)

    p_sel = sub.add_parser("select", help="choose a sensor set")
    sel_sub = p_sel.add_subparsers(dest="problem", required=True)
    for problem in ("budget", "mincost"):
        p = sel_sub.add_parser(problem)
        p.add_argument("--scenario", required=True)
        if problem == "budget":
            p.add_argument("--budget", type=float, default=None)
            p.add_argument("--method", default="greedy",
                           choices=("greedy", "oracle", "logdet", "random", "all"))
            p.add_argument("--mandatory", default="",
                           help="ids always included by the random baseline")
            p.add_argument("--seed", type=int, default=0)
        else:
            p.add_argument("--kappa", type=float, default=None)
            p.add_argument("--method", default="greedy", choices=("greedy", "oracle"))
        _add_caps(p)
        _add_common_output(p)
        p.set_defaults(func=cmd_select, problem=problem)

    p_sim = sub.add_parser("simulate", help="Monte Carlo closed-loop cost of a set")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--set", default=None, help="explicit sensor ids; overrides --method")
    p_sim.add_argument("--method", default="greedy",
                       choices=("greedy", "oracle", "logdet", "random", "all"))
    p_sim.add_argument("--budget", type=float, default=None)
    p_sim.add_argument("--kappa", type=float, default=None)
    p_sim.add_argument("--mandatory", default="")
    p_sim.add_argument("--runs", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    _add_caps(p_sim)
    _add_common_output(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ratio = sub.add_parser("ratio", help="supermodularity ratio and spectral bound")
    p_ratio.add_argument("--scenario", required=True)
    p_ratio.add_argument("--ratio-cap", type=int, default=RATIO_CAP)
    p_ratio.add_argument("--out", default=None)
    p_ratio.set_defaults(func=cmd_ratio)

    p_bound = sub.add_parser("bound", help="greedy run plus its certificate")
    bound_sub = p_bound.add_subparsers(dest="problem", required=True)
    for problem in ("budget", "mincost"):
        p = bound_sub.add_parser(problem)
        p.add_argument("--scenario", required=True)
        if problem == "budget":
            p.add_argument("--budget", type=float, default=None)
        else:
            p.add_argument("--kappa", type=float, default=None)
        _add_caps(p)
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_bound, problem=problem)

    p_sweep = sub.add_parser("sweep", help="method-by-method grid, one CSV")
    p_sweep.add_argument("--scenario", dest="family", required=True,
                         choices=("formation", "uav"))
    p_sweep.add_argument("--agents", default="4",
                         help="comma-separated agent counts (formation)")
    p_sweep.add_argument("--landmarks", type=int, default=3)
    p_sweep.add_argument("--horizon", default="20", help="comma-separated horizons")
    p_sweep.add_argument("--budgets", required=True, help="comma-separated budgets")
    p_sweep.add_argument("--mode", default=None,
                         choices=("homogeneous", "heterogeneous", "uniform"),
                         help="weight mode (formation) or cost mode (uav)")
    p_sweep.add_argument("--methods", default="greedy,logdet,random,all")
    p_sweep.add_argument("--runs", type=int, default=100)
    p_sweep.add_argument("--seed", type=int, default=0)
    _add_caps(p_sweep)
    _add_common_output(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"lqgcodesign: infeasible: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, NumericalError, ValueError) as exc:
        print(f"lqgcodesign: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"lqgcodesign: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
