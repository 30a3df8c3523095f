"""Sensor-set selection: greedy sweeps, brute-force oracles, and baselines.

Two problems are solved over the ground set of sensor ids:

* budget-capped:   minimize the sensing objective subject to a total
  selection cost no greater than ``scenario.budget``;
* cost-capped:     minimize the selection cost subject to the full LQG
  cost staying at or below ``scenario.kappa``.

The greedy sweeps pick, at each step, the sensor with the best objective
drop per unit cost.  All argmax/argmin ties resolve to the smallest sensor
id, so every routine is a pure function of its inputs.  A free sensor
(cost 0) with positive gain rates as infinitely efficient and is admitted
before anything else, in id order; free sensors can never violate a budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kalman import ObjectiveCache, _mask_ids
from .model import Scenario, set_cost
from .riccati import RiccatiSolution


class InfeasibleError(RuntimeError):
    """No sensor set can satisfy the LQG cost cap.

    Carries the sensing objective of the full ground set (``f_all``) and
    the effective cap (``kappa_bar``) for diagnostics.
    """

    def __init__(self, f_all: float, kappa_bar: float):
        super().__init__(
            "cost cap infeasible: even the full sensor set reaches sensing objective "
            f"{f_all!r}, above the effective cap {kappa_bar!r}"
        )
        self.f_all = f_all
        self.kappa_bar = kappa_bar


@dataclass(frozen=True)
class IterationRecord:
    """One greedy step: what was added and at what efficiency."""

    added: int
    gain: float
    gain_per_cost: float
    cumulative_cost: float
    objective_after: float


@dataclass(frozen=True)
class CandidateRecord:
    """A candidate set considered by a sweep, with its surrogate objective."""

    label: str
    ids: tuple[int, ...]
    objective: float


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of one selection routine.

    ``objective_f`` and ``lqg_cost_g`` are always the LQG quantities of the
    chosen set, regardless of the surrogate a baseline optimized.
    ``iterations`` chronicles the sweep (for the budget sweep it may end
    with a step that was rolled back; see ``removed``).  ``last_added`` and
    ``prefix_f`` describe the final greedy step of the cost-capped sweep,
    which the multiplicative cost certificate needs.
    """

    method: str
    chosen: tuple[int, ...]
    objective_f: float
    lqg_cost_g: float
    cost: float
    budget: float | None = None
    kappa: float | None = None
    kappa_bar: float | None = None
    candidates: tuple[CandidateRecord, ...] = ()
    iterations: tuple[IterationRecord, ...] = ()
    removed: int | None = None
    last_added: int | None = None
    prefix_f: float | None = None
    seed: int | None = None


def _rate(gain: float, cost: float) -> float:
    if cost > 0.0:
        return gain / cost
    return math.inf if gain > 0.0 else 0.0


def _gain_table(objective_many, base_ids: frozenset, base_value: float, candidates: list[int]):
    """Objective drop for each candidate addition, in candidate order, from one call."""
    values = objective_many([base_ids | {a} for a in candidates])
    return [(a, base_value - v, v) for a, v in zip(candidates, values)]


def _pick_best_rate(table, costs) -> tuple[int, float, float, float]:
    """Highest gain-per-cost entry; ties go to the smallest id."""
    best = None
    for a, gain, value in table:
        rate = _rate(gain, costs[a])
        if best is None or rate > best[1]:
            best = (a, rate, gain, value)
    return best


def _require_budget(scenario: Scenario) -> float:
    if scenario.budget is None:
        raise ValueError("scenario defines no budget; set one to use budget-capped selection")
    return scenario.budget


def _greedy_budget_core(scenario, objective_many):
    """Shared budget sweep: best singleton versus efficiency-greedy set."""
    budget = _require_budget(scenario)
    costs = {s.id: s.cost for s in scenario.suite}
    ids = sorted(costs)
    empty = frozenset()
    affordable = [i for i in ids if costs[i] <= budget]
    base_value, *single_values = objective_many(
        [empty, *(frozenset({i}) for i in affordable)])

    single_id = None
    single_value = math.inf
    for i, value in zip(affordable, single_values):
        if value < single_value:
            single_id, single_value = i, value
    singleton = empty if single_id is None else frozenset({single_id})
    if single_id is None:
        single_value = base_value

    chosen = empty
    chosen_value = base_value
    cost_acc = 0.0
    remaining = list(ids)
    iterations = []
    while remaining and cost_acc <= budget:
        table = _gain_table(objective_many, chosen, chosen_value, remaining)
        a, rate, gain, value = _pick_best_rate(table, costs)
        chosen = chosen | {a}
        chosen_value = value
        # recompute in id order so the comparison with the budget cannot
        # drift with the order sensors happened to be added in
        cost_acc = set_cost(scenario.suite, chosen)
        remaining.remove(a)
        iterations.append(IterationRecord(
            added=a, gain=gain, gain_per_cost=rate,
            cumulative_cost=cost_acc, objective_after=value,
        ))
    removed = None
    if cost_acc > budget:
        removed = iterations[-1].added
        chosen = chosen - {removed}
        chosen_value = objective_many([chosen])[0]
        cost_acc = set_cost(scenario.suite, chosen)

    if chosen_value <= single_value:
        final, final_value = chosen, chosen_value
    else:
        final, final_value = singleton, single_value
    candidates = (
        CandidateRecord("singleton", tuple(sorted(singleton)), single_value),
        CandidateRecord("greedy", tuple(sorted(chosen)), chosen_value),
    )
    return final, final_value, candidates, tuple(iterations), removed, budget


def greedy_budget(scenario: Scenario, sol: RiccatiSolution,
                  cache: ObjectiveCache | None = None) -> SelectionReport:
    """Efficiency-greedy sweep under the budget, guarded by the best singleton.

    Returns whichever of the greedy set and the best affordable singleton
    has the smaller sensing objective.  The sweep adds sensors by gain per
    unit cost until the ground set is exhausted or the budget is crossed;
    a crossing step is rolled back (a set costing exactly the budget is
    kept).
    """
    cache = cache or ObjectiveCache(scenario, sol)
    final, final_value, candidates, iterations, removed, budget = _greedy_budget_core(
        scenario, cache.f_many
    )
    return SelectionReport(
        method="greedy",
        chosen=tuple(sorted(final)),
        objective_f=final_value,
        lqg_cost_g=final_value + cache.offset,
        cost=set_cost(scenario.suite, final),
        budget=budget,
        candidates=candidates,
        iterations=iterations,
        removed=removed,
    )


def greedy_mincost(scenario: Scenario, sol: RiccatiSolution,
                   cache: ObjectiveCache | None = None) -> SelectionReport:
    """Efficiency-greedy sweep that stops once the LQG cost cap is met.

    Starts empty and keeps adding the best gain-per-cost sensor while the
    sensing objective still exceeds the effective cap.  Raises
    ``InfeasibleError`` when the full ground set cannot meet the cap.
    """
    cache = cache or ObjectiveCache(scenario, sol)
    cap = cache.kappa_bar()
    costs = {s.id: s.cost for s in scenario.suite}
    chosen = frozenset()
    value = cache.f(chosen)
    empty_value = value
    remaining = sorted(costs)
    iterations = []
    while remaining and value > cap:
        table = _gain_table(cache.f_many, chosen, value, remaining)
        a, rate, gain, value = _pick_best_rate(table, costs)
        chosen = chosen | {a}
        remaining.remove(a)
        iterations.append(IterationRecord(
            added=a, gain=gain, gain_per_cost=rate,
            cumulative_cost=set_cost(scenario.suite, chosen), objective_after=value,
        ))
    if value > cap:
        raise InfeasibleError(f_all=value, kappa_bar=cap)
    if iterations:
        last_added = iterations[-1].added
        prefix_f = iterations[-2].objective_after if len(iterations) > 1 else empty_value
    else:
        last_added = None
        prefix_f = None
    return SelectionReport(
        method="greedy",
        chosen=tuple(sorted(chosen)),
        objective_f=value,
        lqg_cost_g=value + cache.offset,
        cost=set_cost(scenario.suite, chosen),
        kappa=scenario.kappa,
        kappa_bar=cap,
        iterations=tuple(iterations),
        last_added=last_added,
        prefix_f=prefix_f,
    )


def _require_enumerable(scenario: Scenario, max_sensors: int) -> int:
    count = len(scenario.suite)
    if count > max_sensors:
        raise ValueError(
            f"brute force over {count} sensors exceeds the enumeration cap "
            f"{max_sensors}; raise max_sensors explicitly to override"
        )
    return count


def oracle_budget(scenario: Scenario, sol: RiccatiSolution,
                  cache: ObjectiveCache | None = None, max_sensors: int = 20) -> SelectionReport:
    """Exhaustive minimum of the sensing objective over affordable sets.

    Ties resolve to the lexicographically smallest id tuple.  Guarded by an
    enumeration cap since the search visits every subset.
    """
    budget = _require_budget(scenario)
    count = _require_enumerable(scenario, max_sensors)
    cache = cache or ObjectiveCache(scenario, sol)
    costs = [s.cost for s in scenario.suite]
    affordable = [ids for ids in map(_mask_ids, range(1 << count))
                  if sum(costs[i] for i in ids) <= budget]
    values = cache.f_many(affordable)
    best_ids, best_value = (), values[0]    # mask 0 fits any nonnegative budget
    for ids, value in zip(affordable[1:], values[1:]):
        if value < best_value or (value == best_value and ids < best_ids):
            best_ids, best_value = ids, value
    return SelectionReport(
        method="oracle",
        chosen=best_ids,
        objective_f=best_value,
        lqg_cost_g=best_value + cache.offset,
        cost=set_cost(scenario.suite, best_ids),
        budget=budget,
    )


def oracle_mincost(scenario: Scenario, sol: RiccatiSolution,
                   cache: ObjectiveCache | None = None, max_sensors: int = 20) -> SelectionReport:
    """Exhaustive cheapest set meeting the LQG cost cap.

    Ties resolve first to the smaller sensing objective, then to the
    lexicographically smallest id tuple.
    """
    count = _require_enumerable(scenario, max_sensors)
    cache = cache or ObjectiveCache(scenario, sol)
    cap = cache.kappa_bar()
    costs = [s.cost for s in scenario.suite]
    best = None
    for mask, value in enumerate(cache.f_many(map(_mask_ids, range(1 << count)))):
        if value > cap:
            continue
        ids = _mask_ids(mask)
        cost = sum(costs[i] for i in ids)
        key = (cost, value, ids)
        if best is None or key < best:
            best = key
    if best is None:
        raise InfeasibleError(f_all=cache.f(frozenset(range(count))), kappa_bar=cap)
    cost, value, ids = best
    return SelectionReport(
        method="oracle",
        chosen=ids,
        objective_f=value,
        lqg_cost_g=value + cache.offset,
        cost=cost,
        kappa=scenario.kappa,
        kappa_bar=cap,
    )


def baseline_logdet(scenario: Scenario, sol: RiccatiSolution,
                    cache: ObjectiveCache | None = None) -> SelectionReport:
    """Budget sweep driven by the average log-volume of the filtering error.

    Identical mechanics to ``greedy_budget`` (singleton guard, rollback of a
    budget-crossing step), but gains, candidate values, and iteration
    records are in the log-volume surrogate.  The report's objective fields
    are the LQG quantities of the chosen set.
    """
    cache = cache or ObjectiveCache(scenario, sol)
    final, _, candidates, iterations, removed, budget = _greedy_budget_core(
        scenario, cache.logdet_many
    )
    value = cache.f(final)
    return SelectionReport(
        method="logdet",
        chosen=tuple(sorted(final)),
        objective_f=value,
        lqg_cost_g=value + cache.offset,
        cost=set_cost(scenario.suite, final),
        budget=budget,
        candidates=candidates,
        iterations=iterations,
        removed=removed,
    )


def baseline_random(scenario: Scenario, sol: RiccatiSolution, mandatory, seed: int,
                    cache: ObjectiveCache | None = None) -> SelectionReport:
    """Mandatory sensors plus a seeded random draw of the others.

    A permutation and a uniform count are drawn from a Philox counter-based
    generator; that many permuted sensors are admitted, skipping any that
    would cross the budget.  Identical seeds give identical sets, and for a
    loose budget every superset of the mandatory ids has positive
    probability.
    """
    budget = _require_budget(scenario)
    cache = cache or ObjectiveCache(scenario, sol)
    chosen = set(int(i) for i in mandatory)
    for i in chosen:
        scenario.suite.sensor(i)
    cost_acc = set_cost(scenario.suite, chosen)
    if cost_acc > budget:
        raise ValueError(
            f"mandatory set costs {cost_acc}, above the budget {budget}"
        )
    pool = sorted(set(scenario.suite.ids) - chosen)
    rng = np.random.Generator(np.random.Philox(seed))
    if pool:
        order = [pool[j] for j in rng.permutation(len(pool))]
        count = int(rng.integers(0, len(pool) + 1))
        for i in order[:count]:
            price = scenario.suite.sensor(i).cost
            if cost_acc + price <= budget:
                chosen.add(i)
                cost_acc += price
    value = cache.f(frozenset(chosen))
    return SelectionReport(
        method="random",
        chosen=tuple(sorted(chosen)),
        objective_f=value,
        lqg_cost_g=value + cache.offset,
        cost=set_cost(scenario.suite, chosen),
        budget=budget,
        seed=seed,
    )


def evaluate_set(scenario: Scenario, sol: RiccatiSolution, ids,
                 cache: ObjectiveCache | None = None, method: str = "set") -> SelectionReport:
    """Report the objectives of an explicitly given sensor set."""
    cache = cache or ObjectiveCache(scenario, sol)
    chosen = frozenset(int(i) for i in ids)
    for i in chosen:
        scenario.suite.sensor(i)
    value = cache.f(chosen)
    return SelectionReport(
        method=method,
        chosen=tuple(sorted(chosen)),
        objective_f=value,
        lqg_cost_g=value + cache.offset,
        cost=set_cost(scenario.suite, chosen),
        budget=scenario.budget,
        kappa=scenario.kappa,
    )
