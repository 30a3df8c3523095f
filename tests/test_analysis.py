"""Supermodularity ratio, its spectral bound, and the two certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqgcodesign as lq
from lqgcodesign.analysis import _ratio_from_table

import support


def test_exact_ratio_scalar_pair():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    gamma, witness = lq.exact_supermodularity_ratio(cache)
    assert gamma == pytest.approx(1.0, abs=1e-9)
    assert witness is not None
    # the witness must reproduce its own ratio from the objective
    inner, outer = set(witness.subset), set(witness.superset)
    num = cache.f(inner) - cache.f(inner | {witness.sensor})
    den = cache.f(outer) - cache.f(outer | {witness.sensor})
    assert witness.subset_gain == pytest.approx(num, abs=1e-12)
    assert witness.superset_gain == pytest.approx(den, abs=1e-12)
    assert witness.ratio == pytest.approx(num / den, abs=1e-9)
    assert inner <= outer
    assert witness.sensor not in outer


def test_exact_ratio_single_sensor():
    scenario, sol, cache = support.solved(support.scalar_one_sensor_scenario())
    gamma, witness = lq.exact_supermodularity_ratio(cache)
    assert gamma == 1.0


def test_exact_ratio_ignores_informationless_sensor():
    # one useful sensor, one zero-wiring sensor: every pair degenerates
    useful = lq.Sensor.time_invariant(0, [[1.0]], [[1.0]], 1.0, 1)
    dead = lq.Sensor.time_invariant(1, [[0.0]], [[1.0]], 1.0, 1)
    suite = lq.SensorSuite(sensors=(useful, dead), state_dim=1)
    scenario = lq.Scenario(system=support.scalar_system(), suite=suite,
                           weights=support.scalar_weights())
    scenario, sol, cache = support.solved(scenario)
    gamma, witness = lq.exact_supermodularity_ratio(cache)
    assert gamma == pytest.approx(1.0, abs=1e-9)


def test_exact_ratio_zero_on_complementary_pair():
    scenario, sol, cache = support.solved(support.complementary_pair_scenario())
    gamma, witness = lq.exact_supermodularity_ratio(cache)
    assert gamma == 0.0
    assert witness is not None
    assert witness.sensor == 1
    assert witness.subset_gain == pytest.approx(0.0, abs=1e-12)
    assert witness.superset_gain > 1e-9


def test_exact_ratio_in_unit_interval():
    for seed in range(15):
        scenario, sol, cache = support.solved(
            support.random_scenario(seed + 1800, max_sensors=5))
        gamma, _ = lq.exact_supermodularity_ratio(cache)
        assert 0.0 <= gamma <= 1.0


def test_exact_ratio_respects_cap():
    scenario, sol, cache = support.solved(
        support.big_random_scenario(9, sensors=10, state_dim=3, horizon=2))
    with pytest.raises(ValueError, match="enumeration cap"):
        lq.exact_supermodularity_ratio(cache)
    gamma, _ = lq.exact_supermodularity_ratio(cache, max_sensors=10)
    assert 0.0 <= gamma <= 1.0


def _value_table(scenario, sol, cache):
    return cache.f_many(range(1 << len(scenario.suite)))


def _assert_matches_enumeration(values, count):
    got = _ratio_from_table(values, count)
    assert got == support.reference_ratio_from_table(values, count)
    return got


@pytest.mark.parametrize("scenario", [
    *(support.random_scenario(seed) for seed in range(40)),
    lq.build_formation_scenario(3, 6, "heterogeneous", 1),
    lq.build_uav_scenario(4, 6, "heterogeneous", 1),
    lq.build_uav_scenario(9, 20, "heterogeneous", 7),
], ids=[*(f"random{seed}" for seed in range(40)), "formation-a3", "uav-a4", "uav-a9"])
def test_ratio_reduction_matches_the_enumeration(scenario):
    scenario, sol, cache = support.solved(scenario)
    count = len(scenario.suite)
    gamma, witness = lq.exact_supermodularity_ratio(cache, max_sensors=count)
    assert (gamma, witness) == _assert_matches_enumeration(
        _value_table(scenario, sol, cache), count)


def _symmetric_table(drops, count):
    """f(S) = -(drops[0] + ... + drops[|S| - 1]): every gain depends on the set size only."""
    levels = np.concatenate([[0.0], -np.cumsum(drops, dtype=float)])
    return [float(levels[bin(mask).count("1")]) for mask in range(1 << count)]


def test_ratio_reduction_ties_across_supersets_and_sensors():
    # drop(0) / drop(3) = drop(0) / drop(4) = 1/4 is attained at every B of size
    # 3 or 4 and every x outside it
    values = _symmetric_table([1.0, 2.0, 3.0, 4.0, 4.0], 5)
    gamma, witness = _assert_matches_enumeration(values, 5)
    assert gamma == 0.25
    assert (witness.subset, witness.superset, witness.sensor) == ((), (0, 1, 2), 3)


def test_ratio_reduction_ties_across_subsets_of_one_superset():
    # the smallest drop, 1, is attained at every subset of size 1 and of size 3;
    # walking down from B = 0b11111, the first of them is 0b11100
    values = _symmetric_table([4.0, 1.0, 2.0, 1.0, 4.0, 8.0], 6)
    gamma, witness = _assert_matches_enumeration(values, 6)
    assert gamma == 0.125
    assert witness.superset == (0, 1, 2, 3, 4) and witness.sensor == 5
    assert witness.subset == (2, 3, 4)


def test_ratio_reduction_on_an_empty_suite():
    assert _assert_matches_enumeration([3.0], 0) == (1.0, None)


def test_ratio_reduction_on_a_single_sensor():
    gamma, witness = _assert_matches_enumeration([2.0, 0.5], 1)
    assert gamma == 1.0
    assert witness == lq.RatioWitness(subset=(), superset=(), sensor=0,
                                      subset_gain=1.5, superset_gain=1.5, ratio=1.0)


def test_ratio_reduction_without_an_informative_triple():
    # sensing never lowers f by 1e-12 or more: vacuously supermodular
    values = [0.0, -5e-13, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0]
    result = _assert_matches_enumeration(values, 3)
    assert result == (1.0, None)
    assert result[1] is None


def test_ratio_reduction_gain_below_the_threshold_counts_as_zero():
    # sensor 0 gains 5e-13 alone but 1 next to sensor 1: ratio 0
    values = [3.0, 3.0 - 5e-13, 2.0, 1.0]
    gamma, witness = _assert_matches_enumeration(values, 2)
    assert gamma == 0.0
    assert (witness.subset, witness.superset, witness.sensor) == ((), (1,), 0)
    assert 0.0 < witness.subset_gain < 1e-12
    assert witness.ratio == 0.0


def test_ratio_reduction_negative_roundoff_gains():
    # adding sensor 0 to the empty set raises f by roundoff; as a superset gain
    # it is skipped, as a subset gain it pins the ratio at 0
    values = [3.0, 3.0 + 4e-16, 2.0, 1.0]
    gamma, witness = _assert_matches_enumeration(values, 2)
    assert gamma == 0.0
    assert witness.subset_gain < 0.0 and witness.ratio == 0.0
    assert witness.superset == (1,) and witness.sensor == 0


_TABLE_ENTRIES = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, 5e-13, -5e-13, 1e-12, 1.0 + 1e-12, 2.0 - 3e-13]),
    st.floats(-10.0, 10.0, allow_nan=False),
)


@st.composite
def _value_tables(draw):
    count = draw(st.integers(1, 7))
    values = draw(st.lists(_TABLE_ENTRIES, min_size=1 << count, max_size=1 << count))
    return values, count


@settings(max_examples=60)
@given(table=_value_tables())
def test_ratio_reduction_matches_the_enumeration_on_random_tables(table):
    values, count = table
    gamma, witness = _assert_matches_enumeration(values, count)
    assert 0.0 <= gamma <= 1.0


def test_spectral_bound_one_sensor_fixture():
    scenario, sol, cache = support.solved(support.scalar_one_sensor_scenario())
    bound, hypotheses = lq.ratio_lower_bound(cache)
    assert hypotheses.theta_sum_pd
    assert hypotheses.normalized_sensors
    assert hypotheses.trace_dominated
    assert hypotheses.applicable
    assert bound == pytest.approx(0.125, abs=1e-9)


def test_spectral_bound_flags_unnormalized():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    bound, hypotheses = lq.ratio_lower_bound(cache)
    # the strong sensor's whitened norm is sqrt(2), not 1
    assert not hypotheses.normalized_sensors
    assert not hypotheses.applicable


def test_spectral_bound_flags_zero_weight():
    system = support.scalar_system()
    weights = lq.LqgWeights(horizon=1, Q=[[0.0]], R=[[1.0]])
    sensor = lq.Sensor.time_invariant(0, [[1.0]], [[1.0]], 1.0, 1)
    scenario = lq.Scenario(system=system,
                           suite=lq.SensorSuite(sensors=(sensor,), state_dim=1),
                           weights=weights)
    sol = lq.solve_riccati(system, weights)
    bound, hypotheses = lq.ratio_lower_bound(lq.ObjectiveCache(scenario, sol))
    assert not hypotheses.theta_sum_pd
    assert bound is None


def test_spectral_bound_below_exact_ratio():
    for seed in range(12):
        scenario = support.normalized_bound_scenario(seed)
        scenario, sol, cache = support.solved(scenario)
        bound, hypotheses = lq.ratio_lower_bound(cache)
        assert hypotheses.applicable
        gamma, _ = lq.exact_supermodularity_ratio(cache)
        assert bound <= gamma + 1e-9
        assert 0.0 < bound <= 1.0


def test_spectral_bound_matches_the_per_step_reference():
    scenarios = [support.random_scenario(seed) for seed in range(40)]
    scenarios += [support.normalized_bound_scenario(seed) for seed in range(4)]
    scenarios += [lq.build_formation_scenario(2, 6, "heterogeneous", 1),
                  lq.build_uav_scenario(2, 6, "heterogeneous", 1)]
    for scenario in scenarios:
        scenario, sol, cache = support.solved(scenario)
        bound, hypotheses = lq.ratio_lower_bound(cache)
        flags = [hypotheses.theta_sum_pd, hypotheses.normalized_sensors,
                 hypotheses.trace_dominated]
        assert (bound, flags) == support.reference_ratio_lower_bound(scenario, sol, cache)


def test_ratio_report_bundles_both():
    scenario, sol, cache = support.solved(support.scalar_one_sensor_scenario())
    report = lq.ratio_report(cache)
    assert report.exact == pytest.approx(1.0, abs=1e-9)
    assert report.lower_bound == pytest.approx(0.125, abs=1e-9)
    assert report.hypotheses.applicable


def test_budget_certificate_scalar():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    report = lq.greedy_budget(cache, scenario.budget)
    gamma, _ = lq.exact_supermodularity_ratio(cache)
    oracle = lq.oracle_budget(cache, scenario.budget)
    cert = lq.budget_certificate(report, gamma, cache.f(()), oracle.objective_f)
    assert cert.kind == "budget"
    # greedy == oracle here, so the full reduction is achieved
    assert cert.lhs == pytest.approx(1.0, abs=1e-9)
    assert cert.rhs == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)
    assert cert.passed


def test_budget_certificate_zero_gamma_trivial():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    report = lq.greedy_budget(cache, scenario.budget)
    cert = lq.budget_certificate(report, 0.0, cache.f(()), cache.f((0, 1)))
    assert cert.rhs == 0.0
    assert cert.passed


def test_budget_certificate_without_reference():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    report = lq.greedy_budget(cache, scenario.budget)
    cert = lq.budget_certificate(report, 1.0, cache.f(()))
    assert cert.lhs is None
    assert cert.passed is None
    assert cert.rhs > 0.0


def test_budget_certificate_degenerate_denominator():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    report = lq.greedy_budget(cache, scenario.budget)
    cert = lq.budget_certificate(report, 1.0, cache.f(()), cache.f(()))
    assert cert.lhs == 1.0
    assert cert.passed


def test_budget_certificate_requires_budget_report():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario(kappa=0.7))
    report = lq.greedy_mincost(cache, scenario.kappa)
    with pytest.raises(ValueError, match="budget"):
        lq.budget_certificate(report, 1.0, cache.f(()))


def test_budget_certificate_holds_on_random_instances():
    for seed in range(15):
        scenario, sol, cache = support.solved(
            support.random_scenario(seed + 1900, max_sensors=6, with_budget=True))
        report = lq.greedy_budget(cache, scenario.budget)
        gamma, _ = lq.exact_supermodularity_ratio(cache)
        oracle = lq.oracle_budget(cache, scenario.budget)
        cert = lq.budget_certificate(report, gamma, cache.f(()), oracle.objective_f)
        assert cert.passed, (seed, cert)


def test_mincost_certificate_scalar():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(kappa=0.7))
    report = lq.greedy_mincost(cache, scenario.kappa)
    gamma, _ = lq.exact_supermodularity_ratio(cache)
    oracle = lq.oracle_mincost(cache, scenario.kappa)
    cert = lq.mincost_certificate(report, gamma, cache.g(()), oracle.cost)
    assert cert.kind == "mincost"
    assert cert.cap_satisfied
    assert cert.lhs == pytest.approx(3.0)
    # last sensor costs 2; log((1 - 0.7) / (0.75 - 0.7)) = log 6 scaled by b* = 2
    assert cert.rhs == pytest.approx(2.0 + 2.0 * math.log(6.0), abs=1e-9)
    assert cert.passed


def test_mincost_certificate_empty_selection():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(kappa=10.0))
    report = lq.greedy_mincost(cache, scenario.kappa)
    cert = lq.mincost_certificate(report, 1.0, cache.g(()), 0.0)
    assert cert.passed is True
    assert cert.note == "empty selection meets the cap outright"


def test_mincost_certificate_zero_gamma_undefined():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(kappa=0.7))
    report = lq.greedy_mincost(cache, scenario.kappa)
    cert = lq.mincost_certificate(report, 0.0, cache.g(()), 2.0)
    assert cert.passed is None
    assert cert.cap_satisfied
    assert "undefined" in cert.note


def test_mincost_certificate_without_reference():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(kappa=0.7))
    report = lq.greedy_mincost(cache, scenario.kappa)
    cert = lq.mincost_certificate(report, 1.0, cache.g(()))
    assert cert.passed is None
    assert cert.note == "no reference optimum supplied"


def test_mincost_certificate_holds_on_random_instances():
    checked = 0
    for seed in range(15):
        base = support.random_scenario(seed + 2000, max_sensors=6)
        scenario = support.with_feasible_kappa(*support.solved(base), seed=seed)
        scenario, sol, cache = support.solved(scenario)
        try:
            report = lq.greedy_mincost(cache, scenario.kappa)
        except lq.InfeasibleError:
            continue
        gamma, _ = lq.exact_supermodularity_ratio(cache)
        oracle = lq.oracle_mincost(cache, scenario.kappa)
        cert = lq.mincost_certificate(report, gamma, cache.g(()), oracle.cost)
        assert cert.cap_satisfied
        if cert.passed is not None:
            assert cert.passed, (seed, cert)
            checked += 1
    assert checked >= 8
