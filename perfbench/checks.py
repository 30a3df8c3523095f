"""Answer checks: the reference evaluator, invariants and the recorded answers.

Every returned set is re-evaluated by ``reference.ReferenceModel`` on any
seed, and the invariants below must hold:

* a budget selection costs at most the budget;
* a mincost selection meets the LQG cap ``g <= kappa``;
* a certificate that is present passes (``cert_pass`` / ``passed`` true);
* the oracle's f is at most the greedy f at the same budget;
* the full set's f is at most every other f of the same sweep budget;
* the ratio witness is a nested pair whose gains the reference reproduces.

On the default seed the parsed outputs must also equal the answers recorded
in ``answers_seed7.json``: ids, flags and the witness exactly, floats within
``GOLDEN_RTOL`` relative.  A near-tie that flips under a new evaluator then
shows as a failure rather than as noise.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from reference import ReferenceModel

# Information form (package) against covariance form (reference): they agree
# to ~1e-13 relative on these scenarios; 1e-8 leaves room for conditioning.
REF_RTOL = 1e-8
GOLDEN_RTOL = 1e-9
# Monte Carlo means are tested against g only with enough runs for a z-test.
MC_MIN_RUNS = 30
MC_Z = 6.0

ANSWERS = Path(__file__).resolve().parent / "answers_seed7.json"


def parse_output(kind: str, text: str):
    """Parsed JSON output of a command; ``select`` yields its single row."""
    data = json.loads(text)
    if kind == "select":
        if not isinstance(data, list) or len(data) != 1:
            raise ValueError("select output must hold exactly one row")
        return data[0]
    return data


def compare(expected, actual, where: str = "") -> list[str]:
    """Differences between recorded and current answers, as messages."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{where}: keys differ"]
        out = []
        for key in expected:
            out += compare(expected[key], actual[key], f"{where}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{where}: {actual!r} != {expected!r}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, f"{where}[{i}]")
        return out
    if isinstance(expected, float) and not isinstance(actual, bool) \
            and isinstance(actual, (int, float)):
        if math.isclose(expected, actual, rel_tol=GOLDEN_RTOL, abs_tol=0.0):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def load_answers(workload: str) -> dict | None:
    if not ANSWERS.exists():
        return None
    with open(ANSWERS, "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload)


class AnswerCheck:
    """Collects problems per command; one problem fails that command."""

    def __init__(self):
        self.problems: dict[str, list[str]] = {}

    def require(self, command: str, ok: bool, message: str) -> None:
        if not ok:
            self.problems.setdefault(command, []).append(message)

    def close(self, command: str, got, want, what: str, rtol: float = REF_RTOL,
              scale: float | None = None) -> None:
        tol = rtol * (abs(want) if scale is None else scale)
        ok = isinstance(got, (int, float)) and abs(got - want) <= tol
        self.require(command, ok, f"{what}: program {got!r}, reference {want!r}")

    def selection(self, command: str, row: dict, ref: ReferenceModel,
                  budget=None, kappa=None) -> None:
        """Checks shared by a select row, a bound payload and a sweep row."""
        ids = row["selected_set"]
        self.require(command, ids == sorted(set(ids)) and set(ids) <= set(ref.ids),
                     f"selected_set {ids} is not a sorted set of sensor ids")
        if not set(ids) <= set(ref.ids):
            return
        self.close(command, row["set_cost"], ref.cost(ids), "set_cost", rtol=1e-12)
        self.close(command, row["objective_f"], ref.f(ids), "objective_f")
        self.close(command, row["analytical_g"], ref.g(ids), "analytical_g")
        if budget is not None:
            self.require(command, ref.cost(ids) <= budget + 1e-9,
                         f"set cost {ref.cost(ids)} exceeds the budget {budget}")
        if kappa is not None:
            self.require(command, ref.g(ids) <= kappa * (1.0 + REF_RTOL),
                         f"g {ref.g(ids)} exceeds the cap {kappa}")

    def select(self, command: str, row: dict, ref: ReferenceModel, context: dict) -> None:
        self.selection(command, row, ref, context.get("budget"), context.get("kappa"))
        self.require(command, row["cert_pass"] in (None, True), "certificate failed")

    def bound(self, command: str, payload: dict, ref: ReferenceModel, context: dict) -> None:
        self.selection(command, payload, ref, context.get("budget"), context.get("kappa"))
        cert = payload["certificate"]
        gamma = payload["gamma_exact"]
        self.require(command, gamma is not None and 0.0 <= gamma <= 1.0,
                     f"exact ratio {gamma!r} missing or outside [0, 1]")
        self.require(command, cert["passed"] in (None, True), "certificate failed")
        if "kappa" in context:
            self.require(command, cert["cap_satisfied"] is True, "certificate: cap not met")

    def ratio(self, command: str, payload: dict, ref: ReferenceModel, gamma) -> None:
        self.require(command, payload["exact"] == gamma,
                     f"ratio {payload['exact']!r} differs from the bound's {gamma!r}")
        w = payload["witness"]
        if w is None:
            self.require(command, payload["exact"] == 1.0, "no witness for a ratio below 1")
            return
        sub, sup, x = set(w["subset"]), set(w["superset"]), w["sensor"]
        self.require(command, sub <= sup and x not in sup and x in ref.ids,
                     f"witness {w} is not a nested pair with an outside sensor")
        if not self.problems.get(command):
            for key, base in (("subset_gain", sub), ("superset_gain", sup)):
                f_base, f_plus = ref.f(base), ref.f(base | {x})
                self.close(command, w[key], f_base - f_plus, f"witness {key}",
                           scale=max(abs(f_base), abs(f_plus)))
            if w["subset_gain"] > 0.0 and w["superset_gain"] > 0.0:
                self.close(command, w["ratio"], w["subset_gain"] / w["superset_gain"],
                           "witness ratio", rtol=1e-12)

    def sweep(self, command: str, rows: list[dict], ref: ReferenceModel, context: dict) -> None:
        self.require(command, len(rows) > 0, "sweep returned no rows")
        for row in rows:
            budget = row["budget_or_kappa"]
            self.selection(command, row, ref, None if row["method"] == "all" else budget)
            self.require(command, row["cert_pass"] in (None, True), "certificate failed")
            self.require(command, row["runs"] == context["runs"], "wrong run count")
            if context["runs"] >= MC_MIN_RUNS:
                gap = abs(row["empirical_mean"] - row["analytical_g"])
                self.require(command, gap <= MC_Z * row["empirical_stderr"],
                             f"Monte Carlo mean {row['empirical_mean']} is more than "
                             f"{MC_Z} standard errors from g {row['analytical_g']}")
        for row in rows:
            full = [r for r in rows if r["method"] == "all"
                    and r["budget_or_kappa"] == row["budget_or_kappa"]]
            for r in full:
                self.require(command, r["objective_f"] <= row["objective_f"] * (1 + 1e-12),
                             f"f(V) above the f of the {row['method']} set")

    def golden(self, command: str, expected, actual) -> None:
        for problem in compare(expected, actual, command):
            self.require(command, False, f"differs from the recorded answer: {problem}")


def check_workload(lq, plan, parsed: dict, workdir: Path, golden: dict | None) -> AnswerCheck:
    """Check the parsed output of every command of a plan.

    ``parsed`` maps a command's metric name to its parsed output; commands
    missing from it already failed to run.  Cross-command invariants name
    the command they compare against in its context (``greedy_from``,
    ``gamma_from``).
    """
    from workloads import HORIZON

    check = AnswerCheck()
    refs = {label: ReferenceModel(path) for label, path in plan.scenarios.items()}
    for cmd in plan.commands + plan.checks:
        if cmd.metric not in parsed:
            continue
        out = parsed[cmd.metric]
        ctx = cmd.context
        try:
            if cmd.kind == "sweep":
                path = workdir / "sweep-reference.json"
                lq.save_scenario(lq.build_formation_scenario(
                    ctx["agents"], HORIZON, "heterogeneous", ctx["seed"]), path)
                check.sweep(cmd.metric, out, ReferenceModel(path), ctx)
            elif cmd.kind == "select":
                check.select(cmd.metric, out, refs[ctx["scenario"]], ctx)
            elif cmd.kind == "bound":
                check.bound(cmd.metric, out, refs[ctx["scenario"]], ctx)
            elif cmd.kind == "ratio":
                gamma = parsed.get(ctx["gamma_from"], {}).get("gamma_exact")
                check.ratio(cmd.metric, out, refs[ctx["scenario"]], gamma)
            if "greedy_from" in ctx and ctx["greedy_from"] in parsed:
                greedy_f = parsed[ctx["greedy_from"]]["objective_f"]
                check.require(cmd.metric, out["objective_f"] <= greedy_f * (1 + 1e-12),
                              f"oracle f {out['objective_f']} above greedy f {greedy_f}")
        except (KeyError, TypeError, ValueError) as exc:
            check.require(cmd.metric, False, f"malformed output: {exc!r}")
        if golden is not None:
            if cmd.metric in golden:
                check.golden(cmd.metric, golden[cmd.metric], out)
            else:
                check.require(cmd.metric, False, "no recorded answer for this command")
    return check
