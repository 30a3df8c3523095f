"""Selection reports pinned bit for bit against recorded JSON.

Every field of every report, iteration records, candidate values and
``gain_per_cost`` included, must equal ``data/selection_reports.json``
exactly: each case is compared as JSON text, so a float matches only by
its ``repr`` (``inf`` rates, ``-0.0`` and an integer ``0`` included).
Regenerate the file by hand only for a deliberate, named output change:

    PYTHONPATH=src python tests/test_selection_golden.py
"""

import json
from dataclasses import asdict
from pathlib import Path

import lqgcodesign as lq

import support

GOLDEN = Path(__file__).with_name("data") / "selection_reports.json"
RANDOM_SEEDS = range(2400, 2410)


def _outcome(routine, *args, **kwargs) -> dict:
    try:
        report = routine(*args, **kwargs)
    except (lq.InfeasibleError, ValueError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return asdict(report)


def _budget_reports(name: str, scenario: lq.Scenario):
    scenario, sol, cache = support.solved(scenario)
    for routine in (lq.greedy_budget, lq.baseline_logdet, lq.oracle_budget):
        yield f"{name}/{routine.__name__}", _outcome(routine, cache, scenario.budget)
    for seed in (0, 7):
        yield (f"{name}/baseline_random/{seed}",
               _outcome(lq.baseline_random, cache, scenario.budget, (), seed))


def _mincost_reports(name: str, scenario: lq.Scenario):
    scenario, sol, cache = support.solved(scenario)
    for routine in (lq.greedy_mincost, lq.oracle_mincost):
        yield f"{name}/{routine.__name__}", _outcome(routine, cache, scenario.kappa)


def _scalar_reports():
    for budget in (0.0, 2.0, 3.0):
        yield from _budget_reports(f"scalar/budget={budget}",
                                   support.scalar_two_sensor_scenario(budget=budget))
    for kappa in (0.6, 0.7, 10.0):
        yield from _mincost_reports(f"scalar/kappa={kappa}",
                                    support.scalar_two_sensor_scenario(kappa=kappa))
    free = lq.Sensor.time_invariant(0, [[1.0]], [[1.0]], 0.0, 1)
    paid = lq.Sensor.time_invariant(1, [[1.0]], [[0.5]], 1.0, 1)
    yield from _budget_reports("scalar/free", lq.Scenario(
        system=support.scalar_system(), weights=support.scalar_weights(),
        suite=lq.SensorSuite(sensors=(free, paid), state_dim=1), budget=0.0))
    twins = tuple(lq.Sensor.time_invariant(i, [[1.0]], [[1.0]], 1.0, 1) for i in range(2))
    yield from _budget_reports("scalar/twins", lq.Scenario(
        system=support.scalar_system(), weights=support.scalar_weights(),
        suite=lq.SensorSuite(sensors=twins, state_dim=1), budget=1.0))
    yield from _budget_reports("complementary", support.complementary_pair_scenario())
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    for ids in ((), (1,), (0, 1)):
        yield (f"scalar/evaluate_set/{ids}",
               _outcome(lq.evaluate_set, cache, ids, budget=scenario.budget,
                        kappa=scenario.kappa))


def _random_reports():
    for seed in RANDOM_SEEDS:
        for unit in (False, True):
            base = support.random_scenario(seed, max_sensors=6, with_budget=True,
                                           unit_costs=unit)
            yield from _budget_reports(f"random/{seed}/unit={unit}", base)
        feasible = support.with_feasible_kappa(*support.solved(base), seed=seed)
        yield from _mincost_reports(f"random/{seed}/kappa", feasible)
        scenario, sol, cache = support.solved(feasible)
        ids = scenario.suite.ids[::2]
        yield (f"random/{seed}/evaluate_set",
               _outcome(lq.evaluate_set, cache, ids, budget=scenario.budget,
                        kappa=scenario.kappa))


def reports() -> dict:
    """Every pinned case, keyed by scenario and routine, as JSON-ready values."""
    cases = dict(_scalar_reports())
    cases.update(_random_reports())
    return json.loads(json.dumps(cases))


def test_selection_reports_match_golden():
    golden = json.loads(GOLDEN.read_text())
    current = reports()
    assert sorted(current) == sorted(golden)
    for name, report in current.items():
        assert json.dumps(report, sort_keys=True) == json.dumps(golden[name], sort_keys=True), name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports(), indent=1, sort_keys=True) + "\n")
