"""Sensor-set selection: greedy sweeps, brute-force oracles, and baselines.

Two problems are solved over the ground set of sensor ids:

* budget-capped:   minimize the sensing objective subject to a total
  selection cost no greater than the budget;
* cost-capped:     minimize the selection cost subject to the full LQG
  cost staying at or below the cap ``kappa``.

Both greedy routines run one sweep, ``_sweep``: starting empty, it adds the
sensor with the best objective drop per unit cost, with every candidate of
a step evaluated in one batched call.  Only the stopping rule differs.  The
budget sweep runs while the set's cost is within the budget, then rolls
back a step that crossed it and keeps the better of that set and the best
affordable singleton; the log-volume baseline is the same sweep on another
objective.  The cost-capped sweep runs while the sensing objective is above
the effective cap.  Every report's objective and cost fields come from
``_report``.  Sets travel as bit masks (bit i selects sensor i) from the
sweeps and the oracles to the objective cache, and become id tuples only in
reports.

Every routine takes an ``ObjectiveCache``, the one source of the plant,
sensors, weights and Riccati solution, and the scalar that bounds its
problem, the budget or ``kappa``; ``model.constraint`` checks it.

All argmax/argmin ties resolve to the smallest sensor id, so every routine
is a pure function of its inputs.  A free sensor (cost 0) with positive
gain rates as infinitely efficient and is admitted before anything else, in
id order; free sensors can never violate a budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kalman import TABLE_BITS, ObjectiveCache, _mask_ids
from .model import chosen_ids, constraint, set_cost

# Largest ground set the oracles enumerate unless told otherwise (2^20 sets).
ORACLE_CAP = 20


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


def _sweep(suite, objective_many, value: float, proceed):
    """The greedy rule: add the best gain-per-cost sensor while ``proceed`` holds.

    Starts from the empty set, whose objective is ``value``.  Each step
    evaluates every remaining candidate in one ``objective_many`` call;
    only a strictly higher rate displaces the best so far, so ties go to
    the smallest id.  ``proceed(cost, value)`` sees the set's cost (summed
    in id order) and objective before each step.  Returns the final set's
    bit mask, its objective and the iteration records.
    """
    costs = [s.cost for s in suite]
    remaining = list(suite.ids)
    chosen = 0
    cost = 0.0
    iterations = []
    while remaining and proceed(cost, value):
        values = objective_many([chosen | 1 << a for a in remaining])
        rates = [_rate(value - after, costs[a]) for a, after in zip(remaining, values)]
        best = rates.index(max(rates))      # max keeps the first of equal rates
        added, rate, after = remaining.pop(best), rates[best], values[best]
        chosen |= 1 << added
        # recompute in id order so the stopping rule cannot drift with the
        # order sensors happened to be added in
        cost = set_cost(suite, _mask_ids(chosen))
        iterations.append(IterationRecord(
            added=added, gain=value - after, gain_per_cost=rate,
            cumulative_cost=cost, objective_after=after,
        ))
        value = after
    return chosen, value, iterations


def _report(cache: ObjectiveCache, method: str, ids, **fields) -> SelectionReport:
    """A report on the set ``ids`` with its LQG objective, full cost and selection cost."""
    suite = cache.scenario.suite
    chosen = chosen_ids(suite, ids)
    value = cache.f(chosen)
    return SelectionReport(
        method=method, chosen=chosen, objective_f=value, lqg_cost_g=value + cache.offset,
        cost=set_cost(suite, chosen), **fields,
    )


def _budget_sweep(cache: ObjectiveCache, budget, objective_many, method: str) -> SelectionReport:
    """Budget sweep on ``objective_many``: best singleton versus efficiency-greedy set."""
    budget = constraint(budget, "budget")
    suite = cache.scenario.suite
    affordable = [s.id for s in suite if s.cost <= budget]
    base_value, *single_values = objective_many([0, *(1 << i for i in affordable)])
    # a tie in value goes to the smaller id
    single_value, single_id = min(zip(single_values, affordable), default=(base_value, None))
    singleton = () if single_id is None else (single_id,)

    chosen, value, iterations = _sweep(suite, objective_many, base_value,
                                       lambda cost, _: cost <= budget)
    removed = None
    if iterations and iterations[-1].cumulative_cost > budget:
        removed = iterations[-1].added
        chosen &= ~(1 << removed)
        value = objective_many([chosen])[0]
    greedy = _mask_ids(chosen)
    candidates = (
        CandidateRecord("singleton", singleton, single_value),
        CandidateRecord("greedy", greedy, value),
    )
    return _report(cache, method, greedy if value <= single_value else singleton,
                   budget=budget, candidates=candidates, iterations=tuple(iterations),
                   removed=removed)


def greedy_budget(cache: ObjectiveCache, budget: float) -> SelectionReport:
    """Efficiency-greedy sweep under the budget, guarded by the best singleton.

    Returns whichever of the greedy set and the best affordable singleton
    has the smaller sensing objective.  The sweep adds sensors by gain per
    unit cost until the ground set is exhausted or the budget is crossed;
    a crossing step is rolled back (a set costing exactly the budget is
    kept).
    """
    return _budget_sweep(cache, budget, cache.f_many, "greedy")


def greedy_mincost(cache: ObjectiveCache, kappa: float) -> SelectionReport:
    """Efficiency-greedy sweep that stops once the LQG cost cap is met.

    Starts empty and keeps adding the best gain-per-cost sensor while the
    sensing objective still exceeds the effective cap.  Raises
    ``InfeasibleError`` when the full ground set cannot meet the cap.
    """
    kappa = constraint(kappa, "kappa")
    cap = kappa - cache.offset
    empty_value = cache.f(())
    chosen, value, iterations = _sweep(cache.scenario.suite, cache.f_many, empty_value,
                                       lambda _, value: value > cap)
    if value > cap:
        raise InfeasibleError(f_all=value, kappa_bar=cap)
    last_added = prefix_f = None
    if iterations:
        last_added = iterations[-1].added
        prefix_f = iterations[-2].objective_after if len(iterations) > 1 else empty_value
    return _report(cache, "greedy", _mask_ids(chosen), kappa=kappa,
                   kappa_bar=cap, iterations=tuple(iterations), last_added=last_added,
                   prefix_f=prefix_f)


def _require_enumerable(cache: ObjectiveCache, max_sensors: int,
                        task: str = "brute force") -> int:
    """Ground-set size, or ``ValueError`` when ``task`` would enumerate over the cap."""
    count = len(cache.scenario.suite)
    if count > max_sensors:
        raise ValueError(
            f"{task} over {count} sensors exceeds the enumeration cap "
            f"{max_sensors}; raise max_sensors explicitly to override"
        )
    if count > TABLE_BITS:
        raise ValueError(f"{task} over {count} sensors exceeds the {TABLE_BITS} sensors "
                         "a value table can index: its masks are int64")
    return count


def _cost_table(suite) -> np.ndarray:
    """Cost of every sensor set by mask, summed in id order, bit for bit as ``set_cost``."""
    table = np.zeros(1 << len(suite))
    for i, sensor in enumerate(suite):
        table[1 << i:2 << i] = table[:1 << i] + sensor.cost
    return table


def _least(masks: np.ndarray, *keys: np.ndarray) -> tuple[int, ...]:
    """Ids of the set minimizing ``keys`` in turn; exact ties go to the smallest id tuple."""
    keep = np.ones(len(masks), dtype=bool)
    for key in keys:
        keep &= key == key[keep].min()
    return min(_mask_ids(mask) for mask in masks[keep].tolist())


def oracle_budget(cache: ObjectiveCache, budget: float,
                  max_sensors: int = ORACLE_CAP) -> SelectionReport:
    """Exhaustive minimum of the sensing objective over affordable sets.

    Ties resolve to the lexicographically smallest id tuple.  Guarded by an
    enumeration cap since the search visits every subset.
    """
    budget = constraint(budget, "budget")
    _require_enumerable(cache, max_sensors)
    affordable = np.flatnonzero(_cost_table(cache.scenario.suite) <= budget)
    values = cache.f_table(affordable)
    return _report(cache, "oracle", _least(affordable, values), budget=budget)


def oracle_mincost(cache: ObjectiveCache, kappa: float,
                   max_sensors: int = ORACLE_CAP) -> SelectionReport:
    """Exhaustive cheapest set meeting the LQG cost cap.

    Ties resolve first to the smaller sensing objective, then to the
    lexicographically smallest id tuple.
    """
    kappa = constraint(kappa, "kappa")
    count = _require_enumerable(cache, max_sensors)
    cap = kappa - cache.offset
    table = cache.f_table(np.arange(1 << count))
    feasible = np.flatnonzero(table <= cap)
    if not feasible.size:
        raise InfeasibleError(f_all=float(table[-1]), kappa_bar=cap)
    best = _least(feasible, _cost_table(cache.scenario.suite)[feasible], table[feasible])
    return _report(cache, "oracle", best, kappa=kappa, kappa_bar=cap)


def baseline_logdet(cache: ObjectiveCache, budget: float) -> SelectionReport:
    """Budget sweep driven by the average log-volume of the filtering error.

    Identical mechanics to ``greedy_budget`` (singleton guard, rollback of a
    budget-crossing step), but gains, candidate values, and iteration
    records are in the log-volume surrogate.  The report's objective fields
    are the LQG quantities of the chosen set.
    """
    return _budget_sweep(cache, budget, cache.logdet_many, "logdet")


def baseline_random(cache: ObjectiveCache, budget: float, mandatory,
                    seed: int) -> SelectionReport:
    """Mandatory sensors plus a seeded random draw of the others.

    A permutation and a uniform count are drawn from a Philox counter-based
    generator; that many permuted sensors are admitted, skipping any whose
    admission would make the set, its costs summed in id order, cost more
    than the budget.  Identical seeds give identical sets, and for a loose
    budget every superset of the mandatory ids has positive probability.
    """
    budget = constraint(budget, "budget")
    suite = cache.scenario.suite
    chosen = set(chosen_ids(suite, mandatory))
    cost = set_cost(suite, chosen)
    if cost > budget:
        raise ValueError(f"mandatory set costs {cost}, above the budget {budget}")
    pool = sorted(set(suite.ids) - chosen)
    rng = np.random.Generator(np.random.Philox(seed))
    if pool:
        order = [pool[j] for j in rng.permutation(len(pool))]
        count = int(rng.integers(0, len(pool) + 1))
        for i in order[:count]:
            if set_cost(suite, chosen | {i}) <= budget:
                chosen.add(i)
    return _report(cache, "random", chosen, budget=budget, seed=seed)


def evaluate_set(cache: ObjectiveCache, ids, method: str = "set", *,
                 budget: float | None = None, kappa: float | None = None) -> SelectionReport:
    """Report the objectives of an explicitly given sensor set, with any constraint given."""
    if budget is not None:
        budget = constraint(budget, "budget")
    if kappa is not None:
        kappa = constraint(kappa, "kappa")
    return _report(cache, method, ids, budget=budget, kappa=kappa)
