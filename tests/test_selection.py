"""Greedy sweeps, brute-force oracles, and the baselines."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqgcodesign as lq
from lqgcodesign import selection
from lqgcodesign.kalman import _mask_ids

import support


def test_greedy_budget_scalar_walkthrough():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    report = lq.greedy_budget(cache, scenario.budget)
    # sweep grabs the efficient cheap sensor, overflows on the second,
    # and loses to the best affordable singleton
    assert report.chosen == (1,)
    assert report.objective_f == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert report.lqg_cost_g == pytest.approx(1.0 / 6.0 + 0.5, abs=1e-12)
    assert report.cost == 2.0
    assert report.method == "greedy"
    assert report.removed == 1
    assert [it.added for it in report.iterations] == [0, 1]
    labels = {c.label: c for c in report.candidates}
    assert labels["singleton"].ids == (1,)
    assert labels["singleton"].objective == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert labels["greedy"].ids == (0,)
    assert labels["greedy"].objective == pytest.approx(0.25, abs=1e-12)


def test_greedy_budget_iteration_records():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    report = lq.greedy_budget(cache, scenario.budget)
    first = report.iterations[0]
    assert first.gain == pytest.approx(0.25, abs=1e-12)
    assert first.gain_per_cost == pytest.approx(0.25, abs=1e-12)
    assert first.cumulative_cost == 1.0
    assert first.objective_after == pytest.approx(0.25, abs=1e-12)
    second = report.iterations[1]
    assert second.cumulative_cost == 3.0


def test_greedy_budget_zero_budget():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(budget=0.0))
    report = lq.greedy_budget(cache, scenario.budget)
    assert report.chosen == ()
    assert report.objective_f == pytest.approx(0.5, abs=1e-12)


def test_greedy_budget_requires_budget():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(budget=None))
    with pytest.raises(ValueError, match="budget"):
        lq.greedy_budget(cache, scenario.budget)


@pytest.mark.parametrize("value", [None, math.nan, -1.0, math.inf])
def test_every_routine_refuses_an_invalid_constraint(value):
    cache = support.solved(support.scalar_two_sensor_scenario())[2]
    routines = {"budget": [lq.greedy_budget, lq.baseline_logdet, lq.oracle_budget,
                           lambda c, b: lq.baseline_random(c, b, (), 0)],
                "kappa": [lq.greedy_mincost, lq.oracle_mincost]}
    if value is not None:  # evaluate_set records no constraint when given none
        routines["budget"].append(lambda c, b: lq.evaluate_set(c, (0,), budget=b))
        routines["kappa"].append(lambda c, k: lq.evaluate_set(c, (0,), kappa=k))
    for name, calls in routines.items():
        for call in calls:
            with pytest.raises(lq.ValidationError, match=name):
                call(cache, value)


def test_greedy_budget_whole_suite_when_affordable():
    for seed in range(10):
        scenario, sol, cache = support.solved(
            support.random_scenario(seed + 1300, with_budget=False))
        scenario = lq.Scenario(system=scenario.system, suite=scenario.suite,
                               weights=scenario.weights,
                               budget=lq.set_cost(scenario.suite, scenario.suite.ids))
        cache = lq.ObjectiveCache(scenario, sol)
        report = lq.greedy_budget(cache, scenario.budget)
        assert report.chosen == scenario.suite.ids
        assert report.cost == pytest.approx(scenario.budget, abs=0.0)
        assert report.objective_f == pytest.approx(
            cache.f(scenario.suite.ids), abs=1e-10)


def test_greedy_budget_exact_budget_kept():
    # both sensors cost exactly the budget together: no rollback
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(budget=3.0))
    report = lq.greedy_budget(cache, scenario.budget)
    assert report.chosen == (0, 1)
    assert report.removed is None
    assert report.cost == 3.0


def test_zero_cost_sensor_taken_at_zero_budget():
    free = lq.Sensor.time_invariant(0, [[1.0]], [[1.0]], 0.0, 1)
    paid = lq.Sensor.time_invariant(1, [[1.0]], [[0.5]], 1.0, 1)
    suite = lq.SensorSuite(sensors=(free, paid), state_dim=1)
    scenario = lq.Scenario(system=support.scalar_system(), suite=suite,
                           weights=support.scalar_weights(), budget=0.0)
    scenario, sol, cache = support.solved(scenario)
    report = lq.greedy_budget(cache, scenario.budget)
    assert report.chosen == (0,)
    assert report.cost == 0.0


def test_greedy_budget_feasible_and_dominates_singletons():
    for seed in range(20):
        scenario, sol, cache = support.solved(
            support.random_scenario(seed + 1400, with_budget=True))
        report = lq.greedy_budget(cache, scenario.budget)
        assert report.cost <= scenario.budget + 1e-12
        affordable = [cache.f((i,)) for i in scenario.suite.ids
                      if scenario.suite.sensor(i).cost <= scenario.budget]
        if affordable:
            assert report.objective_f <= min(affordable) + 1e-10


def test_greedy_mincost_scalar_walkthrough():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(kappa=0.7))
    report = lq.greedy_mincost(cache, scenario.kappa)
    assert report.chosen == (0, 1)
    assert report.cost == 3.0
    assert report.kappa == pytest.approx(0.7)
    assert report.kappa_bar == pytest.approx(0.2, abs=1e-12)
    assert report.last_added == 1
    assert report.prefix_f == pytest.approx(0.25, abs=1e-12)
    assert report.lqg_cost_g <= 0.7 + 1e-12


def test_greedy_mincost_trivial_cap():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(kappa=10.0))
    report = lq.greedy_mincost(cache, scenario.kappa)
    assert report.chosen == ()
    assert report.cost == 0.0
    assert report.last_added is None


def test_greedy_mincost_infeasible():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(kappa=0.6))
    with pytest.raises(lq.InfeasibleError, match="cost cap infeasible") as info:
        lq.greedy_mincost(cache, scenario.kappa)
    assert info.value.f_all == pytest.approx(0.125, abs=1e-12)
    assert info.value.kappa_bar == pytest.approx(0.1, abs=1e-12)


def test_greedy_mincost_requires_kappa():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(kappa=None))
    with pytest.raises(ValueError, match="kappa"):
        lq.greedy_mincost(cache, scenario.kappa)


@pytest.mark.parametrize("select", [lq.greedy_mincost, lq.oracle_mincost])
def test_mincost_cap_comes_from_the_kappa_argument(select):
    # a cache built for one kappa, asked about another: the cap is the argument's
    base, sol, probe = support.solved(lq.build_formation_scenario(2, 6, "homogeneous", 0))
    f_all, f_empty = probe.f(base.suite.ids), probe.f(())
    cache = lq.ObjectiveCache(replace(base, kappa=probe.offset + f_all + 0.9 * (f_empty - f_all)),
                              sol)
    kappa = probe.offset + f_all + 0.1 * (f_empty - f_all)
    report = select(cache, kappa)
    assert report == select(lq.ObjectiveCache(replace(base, kappa=kappa), sol), kappa)
    assert report.chosen == (1, 2)
    assert report.lqg_cost_g <= kappa


def test_oracle_budget_scalar():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    report = lq.oracle_budget(cache, scenario.budget)
    assert report.chosen == (1,)
    assert report.method == "oracle"
    scenario3, sol3, cache3 = support.solved(
        support.scalar_two_sensor_scenario(budget=3.0))
    assert lq.oracle_budget(cache3, scenario3.budget).chosen == (0, 1)


def test_oracle_budget_lexicographic_ties():
    twin_a = lq.Sensor.time_invariant(0, [[1.0]], [[1.0]], 1.0, 1)
    twin_b = lq.Sensor.time_invariant(1, [[1.0]], [[1.0]], 1.0, 1)
    suite = lq.SensorSuite(sensors=(twin_a, twin_b), state_dim=1)
    scenario = lq.Scenario(system=support.scalar_system(), suite=suite,
                           weights=support.scalar_weights(), budget=1.0)
    scenario, sol, cache = support.solved(scenario)
    assert lq.oracle_budget(cache, scenario.budget).chosen == (0,)


def test_oracle_mincost_scalar():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(kappa=0.7))
    report = lq.oracle_mincost(cache, scenario.kappa)
    assert report.chosen == (1,)
    assert report.cost == 2.0


def test_oracle_mincost_infeasible():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(kappa=0.6))
    with pytest.raises(lq.InfeasibleError) as err:
        lq.oracle_mincost(cache, scenario.kappa)
    assert err.value.f_all == cache.f(scenario.suite.ids)


@pytest.mark.parametrize("seed", range(12))
def test_oracles_break_exact_ties_as_the_plain_loops(seed):
    scenario = support.tied_sensor_scenario(seed)
    scenario, sol, cache = support.solved(
        support.with_feasible_kappa(*support.solved(scenario), seed=seed))
    budget = lq.oracle_budget(cache, scenario.budget)
    assert (budget.chosen, budget.objective_f) == support.reference_oracle_budget(scenario, cache)
    mincost = lq.oracle_mincost(cache, scenario.kappa)
    assert ((mincost.chosen, mincost.objective_f)
            == support.reference_oracle_mincost(scenario, cache, cache.kappa_bar()))
    # the free blind sensor 0 ties every set with its union with 0, a larger
    # mask whose id tuple sorts first
    assert budget.chosen[:1] == (0,)


@pytest.mark.parametrize("seed", range(10))
def test_cost_table_is_set_cost_bit_for_bit(seed):
    suite = support.random_cost_suite(seed)
    table = selection._cost_table(suite)
    costs = [lq.set_cost(suite, _mask_ids(mask)) for mask in range(1 << len(suite))]
    assert table.tobytes() == np.array(costs).tobytes()


def test_oracle_enumeration_cap():
    scenario, sol, cache = support.solved(support.big_random_scenario(5, sensors=10,
                                                                      state_dim=4,
                                                                      horizon=2,
                                                                      budget=3.0))
    with pytest.raises(ValueError, match="enumeration cap"):
        lq.oracle_budget(cache, scenario.budget, max_sensors=6)
    report = lq.oracle_budget(cache, scenario.budget, max_sensors=10)
    assert report.cost <= 3.0 + 1e-12


def test_oracle_never_worse_than_greedy():
    for seed in range(15):
        scenario, sol, cache = support.solved(
            support.random_scenario(seed + 1500, max_sensors=6, with_budget=True))
        greedy = lq.greedy_budget(cache, scenario.budget)
        oracle = lq.oracle_budget(cache, scenario.budget)
        assert oracle.objective_f <= greedy.objective_f + 1e-10
        assert oracle.cost <= scenario.budget + 1e-12


def test_oracle_mincost_never_dearer_than_greedy():
    hits = 0
    for seed in range(15):
        base = support.random_scenario(seed + 1600, max_sensors=6)
        scenario = support.with_feasible_kappa(*support.solved(base), seed=seed)
        scenario, sol, cache = support.solved(scenario)
        try:
            greedy = lq.greedy_mincost(cache, scenario.kappa)
        except lq.InfeasibleError:
            continue
        oracle = lq.oracle_mincost(cache, scenario.kappa)
        assert oracle.cost <= greedy.cost + 1e-12
        assert cache.g(oracle.chosen) <= scenario.kappa + 1e-9
        hits += 1
    assert hits >= 10


def test_logdet_baseline_reports_lqg_objectives():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    report = lq.baseline_logdet(cache, scenario.budget)
    assert report.method == "logdet"
    assert report.cost <= scenario.budget + 1e-12
    assert report.objective_f == pytest.approx(cache.f(report.chosen), abs=1e-12)
    assert report.lqg_cost_g == pytest.approx(cache.g(report.chosen), abs=1e-12)


def test_logdet_matches_greedy_when_objectives_align():
    # isotropic regulator weight makes both sweeps rank sensors identically
    eye = np.eye(2)
    system = lq.LtvSystem(horizon=2, state_dim=2, A=[eye] * 2, B=[eye] * 2,
                          W=[0.1 * eye] * 2, sigma_init=eye)
    weights = lq.LqgWeights(horizon=2, Q=[eye] * 2, R=[eye] * 2)
    sharp = lq.Sensor.time_invariant(0, [[1.0, 0.0]], [[0.2]], 1.0, 2)
    blunt = lq.Sensor.time_invariant(1, [[0.0, 1.0]], [[1.0]], 1.0, 2)
    dull = lq.Sensor.time_invariant(2, [[0.0, 1.0]], [[5.0]], 1.0, 2)
    suite = lq.SensorSuite(sensors=(sharp, blunt, dull), state_dim=2)
    scenario, sol, cache = support.solved(
        lq.Scenario(system=system, suite=suite, weights=weights, budget=2.0))
    assert (lq.baseline_logdet(cache, scenario.budget).chosen
            == lq.greedy_budget(cache, scenario.budget).chosen)


def test_random_baseline_deterministic():
    scenario, sol, cache = support.solved(
        support.random_scenario(42, max_sensors=6, with_budget=True))
    one = lq.baseline_random(cache, scenario.budget, mandatory=(), seed=7)
    two = lq.baseline_random(cache, scenario.budget, mandatory=(), seed=7)
    assert one.chosen == two.chosen
    assert one.method == "random"
    assert one.seed == 7
    assert one.cost <= scenario.budget + 1e-12


def test_random_baseline_keeps_mandatory():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario(budget=3.0))
    report = lq.baseline_random(cache, scenario.budget, mandatory=(0, 1), seed=3)
    assert report.chosen == (0, 1)


def test_random_baseline_rejects_unaffordable_mandatory():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario(budget=1.0))
    with pytest.raises(ValueError):
        lq.baseline_random(cache, scenario.budget, mandatory=(0, 1), seed=3)


def test_random_baseline_covers_subsets():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario(budget=3.0))
    seen = {lq.baseline_random(cache, scenario.budget, mandatory=(), seed=s).chosen
            for s in range(200)}
    assert seen == {(), (0,), (1,), (0, 1)}


def test_random_baseline_never_exceeds_budget():
    # summed in draw order, 0.1 + 0.2 + 0.3 fits 0.6; summed in id order as
    # the report does, the same set costs 0.6000000000000001
    sensors = tuple(lq.Sensor.time_invariant(i, [[1.0]], [[1.0]], cost, 1)
                    for i, cost in enumerate((0.1, 0.2, 0.3)))
    scenario, sol, cache = support.solved(lq.Scenario(
        system=support.scalar_system(), weights=support.scalar_weights(),
        suite=lq.SensorSuite(sensors=sensors, state_dim=1), budget=0.6))
    for seed in range(200):
        report = lq.baseline_random(cache, scenario.budget, mandatory=(), seed=seed)
        assert report.cost <= report.budget, seed

def test_evaluate_set():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    report = lq.evaluate_set(cache, (1,))
    assert report.method == "set"
    assert report.chosen == (1,)
    assert report.objective_f == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert report.cost == 2.0
    with pytest.raises(lq.ValidationError):
        lq.evaluate_set(cache, (9,))


def test_iteration_chain_consistent():
    for seed in range(10):
        scenario, sol, cache = support.solved(
            support.random_scenario(seed + 1700, with_budget=True))
        report = lq.greedy_budget(cache, scenario.budget)
        running: set[int] = set()
        for record in report.iterations:
            running.add(record.added)
            assert record.cumulative_cost == pytest.approx(
                lq.set_cost(scenario.suite, running), abs=1e-12)
            assert record.objective_after == pytest.approx(
                cache.f(frozenset(running)), abs=1e-10)
            assert record.gain >= -1e-10


def test_a_cache_built_for_another_problem_is_refused():
    # the routines take the plant from the cache alone, so a cache cannot be
    # paired with another problem's plant; what is left to check is that one
    # cache serves every budget
    own = support.solved(lq.build_formation_scenario(2, 10, seed=0))[2]
    report = lq.greedy_budget(own, 2.0)
    assert report.chosen == (0, 2)
    assert report.lqg_cost_g == pytest.approx(88.6, abs=0.05)
    assert lq.greedy_budget(own, 1.0).cost <= 1.0


def _replayed_sweep(suite, objective_many, report):
    """Check each step adds the smallest id of maximal rate, rates recomputed from the cache."""
    chosen, value = 0, objective_many([0])[0]
    for record in report.iterations:
        remaining = [i for i in suite.ids if not chosen >> i & 1]
        values = objective_many([chosen | 1 << i for i in remaining])
        costs = [suite.sensor(i).cost for i in remaining]
        rates = [(value - after) / cost if cost > 0.0 else math.inf if value > after else 0.0
                 for after, cost in zip(values, costs)]
        best = max(rates)
        assert record.added == min(i for i, rate in zip(remaining, rates) if rate == best)
        assert record.gain_per_cost == best
        assert record.objective_after == values[remaining.index(record.added)]
        chosen, value = chosen | 1 << record.added, record.objective_after


@settings(max_examples=40)
@given(seed=st.integers(0, 10 ** 6), copies=st.integers(2, 4), data=st.data())
def test_greedy_steps_break_exact_ties_by_the_smallest_id(seed, copies, data):
    # bit-identical copies of one sensor at one price tie exactly; free sensors rate inf or 0
    base, twins = support.duplicated_sensor_scenario(seed, copies)
    prices = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])
    twin_price = data.draw(prices)
    sensors = tuple(replace(s, cost=twin_price if s.id in twins else data.draw(prices))
                    for s in base.suite)
    scenario = replace(base, suite=lq.SensorSuite(sensors=sensors, state_dim=base.state_dim),
                       budget=data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5])))
    scenario, sol, cache = support.solved(scenario)
    for routine, objective_many in ((lq.greedy_budget, cache.f_many),
                                    (lq.baseline_logdet, cache.logdet_many)):
        report = routine(cache, scenario.budget)
        _replayed_sweep(scenario.suite, objective_many, report)
        assert report.cost <= scenario.budget
    capped = support.with_feasible_kappa(scenario, sol, cache, seed=seed)
    _replayed_sweep(scenario.suite, cache.f_many, lq.greedy_mincost(cache, capped.kappa))
