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
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from itertools import product
from pathlib import Path

from . import _parallel
from ._linalg import NumericalError
from .analysis import RATIO_CAP, certify, ratio_report
from .kalman import ObjectiveCache
from .model import ValidationError, load_scenario, save_scenario
from .riccati import solve_riccati
from .selection import (
    ORACLE_CAP,
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
from .simulate import build_formation_scenario, build_uav_scenario, monte_carlo, monte_carlo_many

METHODS = ("greedy", "oracle", "logdet", "random", "all")


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


COLUMNS = tuple(f.name for f in fields(ResultRow))


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
    return json.dumps([asdict(row) for row in rows], indent=2) + "\n"


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


_KINDS = {int: "an integer", float: "a number"}


def _parse_list(text: str, kind, flag: str) -> list:
    """The non-blank comma-separated items of ``text``, each converted by ``kind``.

    An item ``kind`` rejects raises ``ValueError`` naming ``flag`` and the item.
    """
    items = []
    for item in text.split(","):
        if item.strip():
            try:
                items.append(kind(item))
            except ValueError:
                raise ValueError(f"{flag}: expected {_KINDS[kind]}, got {item.strip()!r}") from None
    return items


def _parse_ids(text: str | None, flag: str) -> tuple[int, ...]:
    """Sensor ids separated by semicolons or commas."""
    return tuple(_parse_list((text or "").replace(";", ","), int, flag))


def _seed(text: str) -> int:
    """A ``--seed`` value: a nonnegative integer, as numpy's Philox generator takes."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


class _Commands(argparse._SubParsersAction):
    """Subcommands, each with a function that adds its arguments to its parser.

    A whole parser makes every subcommand's parser at once.  A ``lazy`` one
    registers each subcommand's name and help text, which are all that its
    help and errors print, and makes a subcommand's parser only once
    argparse dispatches to it, so a command line builds only the parsers it
    runs.
    """

    def __init__(self, *args, lazy: bool, **kwargs):
        super().__init__(*args, **kwargs)
        self._lazy = lazy

    def add_parser(self, name, build, **kwargs):
        if not self._lazy:
            parser = super().add_parser(name, **kwargs)
            build(parser)
            return parser
        if "help" in kwargs:
            self._choices_actions.append(self._ChoicesPseudoAction(name, (), kwargs["help"]))
        self._name_parser_map[name] = build  # replaced by its parser when invoked
        return None

    def __call__(self, parser, namespace, values, option_string=None):
        build = self._name_parser_map[values[0]]
        if not isinstance(build, argparse.ArgumentParser):
            # the prog argparse's add_parser gives it
            made = self._parser_class(prog=f"{self._prog_prefix} {values[0]}", lazy=True)
            build(made)
            self._name_parser_map[values[0]] = made
        super().__call__(parser, namespace, values, option_string)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1, and subcommands (``_Commands``)
    whose arguments are added ``lazy``, or at once."""

    def __init__(self, *args, lazy: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self._lazy = lazy

    def add_subparsers(self, **kwargs):
        return super().add_subparsers(action=_Commands, lazy=self._lazy, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _solved(scenario) -> ObjectiveCache:
    """A fresh objective cache over the scenario's Riccati solution."""
    return ObjectiveCache(scenario, solve_riccati(scenario.system, scenario.weights))


def _certify(cache, report: SelectionReport, args, ratio):
    """(gamma_exact, gamma_bound, ``analysis.certify``) of a greedy report; all None otherwise."""
    if report.method != "greedy":
        return None, None, None
    return ratio.exact, ratio.gamma_bound, certify(cache, report, ratio, args.oracle_cap)


def _selection_row(scenario_id, scenario, report: SelectionReport,
                   summary=None, certified=(None, None, None)) -> ResultRow:
    gamma_exact, gamma_bound, cert = certified
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


def _run_method(cache, problem: str, method: str, limit: float, args,
                mandatory=()) -> SelectionReport:
    """``method``'s report on ``problem`` under ``limit``, the budget or the cost cap."""
    if method == "greedy":
        if problem == "budget":
            return greedy_budget(cache, limit)
        return greedy_mincost(cache, limit)
    if method == "oracle":
        if problem == "budget":
            return oracle_budget(cache, limit, max_sensors=args.oracle_cap)
        return oracle_mincost(cache, limit, max_sensors=args.oracle_cap)
    if method == "logdet":
        return baseline_logdet(cache, limit)
    if method == "random":
        return baseline_random(cache, limit, mandatory, seed=args.seed)
    if method == "all":
        return evaluate_set(cache, cache.scenario.suite.ids, method="all", budget=limit)
    raise ValueError(f"unknown method {method!r}")


def _report(args, problem: str | None, method: str | None, certified: bool = False):
    """(scenario, cache, report, ratio) of one command on its scenario file.

    A given ``--budget`` or ``--kappa`` replaces the file's constraints.
    ``--set`` is reported under the constraints that remain; otherwise
    ``method`` solves ``problem``, which None makes the cost-cap problem when
    only a kappa remains and the budget problem when not.  Every input error
    that needs no model, a missing constraint, an id list that does not
    parse or a method the problem does not take, is raised before the
    Riccati solve.  ``ratio`` is the ratio report of a ``certified`` greedy
    run, computed before the sweep so that its 2^n table, filled in full
    batches, serves the sweep and the certificate's oracle; else None.
    """
    scenario = load_scenario(args.scenario)
    budget, kappa = getattr(args, "budget", None), getattr(args, "kappa", None)
    if budget is not None or kappa is not None:
        scenario = replace(scenario, budget=budget, kappa=kappa)
    if getattr(args, "set", None) is not None:
        ids = _parse_ids(args.set, "--set")
        cache = _solved(scenario)
        return scenario, cache, evaluate_set(cache, ids, budget=scenario.budget,
                                             kappa=scenario.kappa), None
    if problem is None:
        problem = "mincost" if scenario.budget is None and scenario.kappa is not None else "budget"
    name = "budget" if problem == "budget" else "kappa"
    limit = getattr(scenario, name)
    if limit is None:
        raise ValueError(f"no {name} given; pass --{name} or store one in the scenario")
    mandatory = _parse_ids(getattr(args, "mandatory", None), "--mandatory")
    if problem == "mincost" and method not in ("greedy", "oracle"):
        raise ValueError(f"method {method!r} applies only to budget selection")
    cache = _solved(scenario)
    ratio = (ratio_report(cache, args.ratio_cap, certifying=True)
             if certified and method == "greedy" else None)
    return scenario, cache, _run_method(cache, problem, method, limit, args, mandatory), ratio


def _build_scenario(family: str, size: int, horizon: int, mode: str, seed: int):
    """A benchmark scenario of ``size`` agents or landmarks; ``mode`` is its family's mode."""
    if family == "formation":
        return build_formation_scenario(agents=size, horizon=horizon, mode=mode, seed=seed)
    return build_uav_scenario(landmarks=size, horizon=horizon, cost_mode=mode, seed=seed)


def cmd_scenario(args) -> int:
    size = args.agents if args.family == "formation" else args.landmarks
    save_scenario(_build_scenario(args.family, size, args.horizon, args.mode, args.seed), args.out)
    return 0


def cmd_riccati(args) -> int:
    scenario = load_scenario(args.scenario)
    sol = solve_riccati(scenario.system, scenario.weights)
    payload = {
        "horizon": sol.horizon,
        "S": sol.S.tolist(),
        "N": sol.N.tolist(),
        "M": [m.tolist() for m in sol.M],
        "K": [m.tolist() for m in sol.K],
        "theta": sol.theta.tolist(),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_cost(args) -> int:
    scenario, _, report, _ = _report(args, None, None)
    _emit_rows([_selection_row(Path(args.scenario).stem, scenario, report)], args.format, args.out)
    return 0


def cmd_select(args) -> int:
    scenario, cache, report, ratio = _report(args, args.problem, args.method, certified=True)
    row = _selection_row(Path(args.scenario).stem, scenario, report,
                         certified=_certify(cache, report, args, ratio))
    _emit_rows([row], args.format, args.out)
    return 0


def cmd_simulate(args) -> int:
    scenario, cache, report, _ = _report(args, None, args.method)
    summary = monte_carlo(cache, report.chosen, runs=args.runs, base_seed=args.seed)
    row = _selection_row(Path(args.scenario).stem, scenario, report, summary=summary)
    _emit_rows([row], args.format, args.out)
    return 0


def cmd_ratio(args) -> int:
    scenario = load_scenario(args.scenario)
    report = ratio_report(_solved(scenario), args.ratio_cap)
    payload = asdict(report)
    payload["hypotheses"]["applicable"] = report.hypotheses.applicable
    _emit_json(payload, args.out)
    return 0


def cmd_bound(args) -> int:
    scenario, cache, report, ratio = _report(args, args.problem, "greedy", certified=True)
    gamma_exact, gamma_bound, cert = _certify(cache, report, args, ratio)
    if cert is None:
        raise ValueError(
            f"ground set of {len(scenario.suite)} sensors exceeds the ratio cap "
            f"{args.ratio_cap} and the spectral bound hypotheses fail; no certificate"
        )
    payload = {
        "problem": args.problem,
        "method": report.method,
        "selected_set": list(report.chosen),
        "set_cost": report.cost,
        "objective_f": report.objective_f,
        "analytical_g": report.lqg_cost_g,
        "gamma_exact": gamma_exact,
        "gamma_bound": gamma_bound,
        "certificate": asdict(cert),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_sweep(args) -> int:
    methods = _parse_list(args.methods, str.strip, "--methods")
    if not methods:
        raise ValueError("sweep needs at least one method")
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    horizons = _parse_list(args.horizon, int, "--horizon")
    budgets = _parse_list(args.budgets, float, "--budgets")
    if not horizons or not budgets:
        raise ValueError("sweep needs at least one horizon and one budget")
    formation = args.family == "formation"
    sizes = _parse_list(args.agents, int, "--agents") if formation else [args.landmarks]
    if not sizes:
        raise ValueError("sweep needs at least one agent count")
    if args.runs < 0:
        raise ValueError("runs must be at least 0 (0 skips the Monte Carlo columns)")
    if args.mode is None:
        args.mode = "homogeneous" if formation else "uniform"
    rows: list[ResultRow] = []
    for size, horizon in product(sizes, horizons):
        base = _build_scenario(args.family, size, horizon, args.mode, args.seed)
        if formation:
            scenario_id = f"formation-a{size}-T{horizon}-{args.mode}-s{args.seed}"
            mandatory = tuple(range(size))
        else:
            scenario_id = f"uav-l{size}-T{horizon}-{args.mode}-s{args.seed}"
            mandatory = (0,)
        rows.extend(_sweep_point(base, scenario_id, mandatory, methods, budgets, args))
    _emit_rows(rows, args.format, args.out)
    return 0


def _sweep_point(base, scenario_id: str, mandatory, methods, budgets, args) -> list[ResultRow]:
    """The rows of one sweep grid point, budget-major, each method in turn.

    Every method's column of reports is selected (``_columns``), then each
    row is certified in row order; an exception a column raised is raised at
    its row, so the first in row order wins, as in the per-row loop.  One
    ``monte_carlo_many`` call then rolls out the rows' distinct sets on the
    shared seeds.
    """
    cache = _solved(base)
    ratio = ratio_report(cache, args.ratio_cap, certifying=True) if "greedy" in methods else None
    columns = _columns(cache, methods, budgets, args, mandatory)
    picked = []
    for i in range(len(budgets)):
        for method in methods:
            report = _parallel.taken(columns[method], i)
            picked.append((report, _certify(cache, report, args, ratio)))
    summaries = [None] * len(picked)
    if args.runs > 0:
        summaries = monte_carlo_many(cache, [report.chosen for report, _ in picked],
                                     runs=args.runs, base_seed=args.seed)
    return [_selection_row(scenario_id, base, report, summary, certified)
            for (report, certified), summary in zip(picked, summaries)]


def _columns(cache, methods, budgets, args, mandatory) -> dict:
    """Each method's reports over the budgets, in order, up to the first exception raised.

    An ``oracle`` column runs here, where its table fills are dealt.  The
    others go whole (their budgets share a memo) to this process and the
    cache's workers (``_parallel.deal``), the heaviest first to the least
    loaded: a greedy sweep counts m**2 sets of the m sensors, a log-det
    sweep, which also factors each posterior, 3/2 of that (formation a4: 22
    against 15 ms), another method a set per budget.
    """
    sweeps = {"greedy": 1.0, "logdet": 1.5}
    weight = {method: sweeps[method] * len(cache.scenario.suite) ** 2 if method in sweeps
              else len(budgets) for method in dict.fromkeys(methods) if method != "oracle"}
    processes = _parallel.processes(sum(weight.values()), cache.scenario.system)
    shares = [[] for _ in range(max(1, min(processes, len(weight))))]
    loads = [0] * len(shares)
    for method in sorted(weight, key=weight.get, reverse=True):
        least = loads.index(min(loads))
        shares[least].append(method)
        loads[least] += weight[method]
    columns = _column_reports(cache, ["oracle"] if "oracle" in methods else [], budgets, args,
                              mandatory)
    for share in _parallel.deal(cache, [(_column_reports, (share, budgets, args, mandatory))
                                        for share in shares]):
        columns.update(share)
    return columns


def _column_reports(cache, methods, budgets, args, mandatory) -> dict:
    """Each method's report at each budget in turn; the first exception raised ends its list."""
    columns = {}
    for method in methods:
        columns[method] = reports = []
        for budget in budgets:
            reports.append(_parallel.kept(_run_method, cache, "budget", method, budget, args,
                                          mandatory))
            if isinstance(reports[-1], Exception):  # raised at its row
                break
    return columns


def _add_common_output(parser) -> None:
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_oracle_cap(parser) -> None:
    parser.add_argument("--oracle-cap", type=int, default=ORACLE_CAP,
                        help="largest ground set enumerated by the brute-force oracle")


def _add_caps(parser) -> None:
    parser.add_argument("--ratio-cap", type=int, default=RATIO_CAP,
                        help="largest ground set enumerated for the exact ratio")
    _add_oracle_cap(parser)


def _family_args(family: str, p) -> None:
    if family == "formation":
        p.add_argument("--agents", type=int, default=4)
    else:
        p.add_argument("--landmarks", type=int, default=3)
    p.add_argument("--horizon", type=int, default=20)
    mode = "homogeneous" if family == "formation" else "uniform"
    p.add_argument("--mode", choices=(mode, "heterogeneous"), default=mode)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scenario, family=family)


def _scenario_args(p) -> None:
    sub = p.add_subparsers(dest="family", required=True)
    for family, text in (("formation", "planar formation benchmark"),
                         ("uav", "UAV landing benchmark")):
        sub.add_parser(family, partial(_family_args, family), help=text)


def _riccati_args(p) -> None:
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_riccati)


def _cost_args(p) -> None:
    p.add_argument("--scenario", required=True)
    p.add_argument("--set", required=True, help="semicolon-separated sensor ids")
    _add_common_output(p)
    p.set_defaults(func=cmd_cost)


def _select_problem_args(problem: str, p) -> None:
    p.add_argument("--scenario", required=True)
    if problem == "budget":
        p.add_argument("--budget", type=float, default=None)
        p.add_argument("--method", default="greedy", choices=METHODS)
        p.add_argument("--mandatory", default="",
                       help="ids always included by the random baseline")
        p.add_argument("--seed", type=_seed, default=0)
    else:
        p.add_argument("--kappa", type=float, default=None)
        p.add_argument("--method", default="greedy", choices=("greedy", "oracle"))
    _add_caps(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_select, problem=problem)


def _select_args(p) -> None:
    sub = p.add_subparsers(dest="problem", required=True)
    for problem in ("budget", "mincost"):
        sub.add_parser(problem, partial(_select_problem_args, problem))


def _simulate_args(p) -> None:
    p.add_argument("--scenario", required=True)
    p.add_argument("--set", default=None, help="explicit sensor ids; overrides --method")
    p.add_argument("--method", default="greedy", choices=METHODS)
    limits = p.add_mutually_exclusive_group()
    limits.add_argument("--budget", type=float, default=None)
    limits.add_argument("--kappa", type=float, default=None)
    p.add_argument("--mandatory", default="")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    _add_oracle_cap(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_simulate)


def _ratio_args(p) -> None:
    p.add_argument("--scenario", required=True)
    p.add_argument("--ratio-cap", type=int, default=RATIO_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ratio)


def _bound_problem_args(problem: str, p) -> None:
    p.add_argument("--scenario", required=True)
    if problem == "budget":
        p.add_argument("--budget", type=float, default=None)
    else:
        p.add_argument("--kappa", type=float, default=None)
    _add_caps(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bound, problem=problem)


def _bound_args(p) -> None:
    sub = p.add_subparsers(dest="problem", required=True)
    for problem in ("budget", "mincost"):
        sub.add_parser(problem, partial(_bound_problem_args, problem))


def _sweep_args(p) -> None:
    p.add_argument("--scenario", dest="family", required=True, choices=("formation", "uav"))
    p.add_argument("--agents", default="4", help="comma-separated agent counts (formation)")
    p.add_argument("--landmarks", type=int, default=3)
    p.add_argument("--horizon", default="20", help="comma-separated horizons")
    p.add_argument("--budgets", required=True, help="comma-separated budgets")
    p.add_argument("--mode", default=None, choices=("homogeneous", "heterogeneous", "uniform"),
                   help="weight mode (formation) or cost mode (uav)")
    p.add_argument("--methods", default="greedy,logdet,random,all")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    _add_caps(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_sweep)


def build_parser(lazy: bool = False) -> argparse.ArgumentParser:
    """The command-line parser, every subcommand's arguments added at once or, ``lazy``
    (as ``main`` builds it), only the invoked subcommands'."""
    parser = _Parser(prog="lqgcodesign", description="Sensor selection and LQG control co-design",
                     lazy=lazy)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("scenario", _scenario_args, help="build a benchmark scenario file")
    sub.add_parser("riccati", _riccati_args, help="dump the regulator recursion matrices")
    sub.add_parser("cost", _cost_args, help="objectives of an explicit sensor set")
    sub.add_parser("select", _select_args, help="choose a sensor set")
    sub.add_parser("simulate", _simulate_args, help="Monte Carlo closed-loop cost of a set")
    sub.add_parser("ratio", _ratio_args, help="supermodularity ratio and spectral bound")
    sub.add_parser("bound", _bound_args, help="greedy run plus its certificate")
    sub.add_parser("sweep", _sweep_args, help="method-by-method grid, one CSV")
    return parser


def main(argv=None) -> int:
    parser = build_parser(lazy=True)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"lqgcodesign: infeasible: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, NumericalError, ValueError, OSError) as exc:
        print(f"lqgcodesign: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
