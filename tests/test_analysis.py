"""Supermodularity ratio, its spectral bound, and the two certificates."""

import math

import numpy as np
import pytest

import lqgcodesign as lq

import support


def test_exact_ratio_scalar_pair():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    gamma, witness = lq.exact_supermodularity_ratio(scenario, sol, cache)
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
    gamma, witness = lq.exact_supermodularity_ratio(scenario, sol, cache)
    assert gamma == 1.0


def test_exact_ratio_ignores_informationless_sensor():
    # one useful sensor, one zero-wiring sensor: every pair degenerates
    useful = lq.Sensor.time_invariant(0, [[1.0]], [[1.0]], 1.0, 1)
    dead = lq.Sensor.time_invariant(1, [[0.0]], [[1.0]], 1.0, 1)
    suite = lq.SensorSuite(sensors=(useful, dead), state_dim=1)
    scenario = lq.Scenario(system=support.scalar_system(), suite=suite,
                           weights=support.scalar_weights())
    scenario, sol, cache = support.solved(scenario)
    gamma, witness = lq.exact_supermodularity_ratio(scenario, sol, cache)
    assert gamma == pytest.approx(1.0, abs=1e-9)


def test_exact_ratio_zero_on_complementary_pair():
    scenario, sol, cache = support.solved(support.complementary_pair_scenario())
    gamma, witness = lq.exact_supermodularity_ratio(scenario, sol, cache)
    assert gamma == 0.0
    assert witness is not None
    assert witness.sensor == 1
    assert witness.subset_gain == pytest.approx(0.0, abs=1e-12)
    assert witness.superset_gain > 1e-9


def test_exact_ratio_in_unit_interval():
    for seed in range(15):
        scenario, sol, cache = support.solved(
            support.random_scenario(seed + 1800, max_sensors=5))
        gamma, _ = lq.exact_supermodularity_ratio(scenario, sol, cache)
        assert 0.0 <= gamma <= 1.0


def test_exact_ratio_respects_cap():
    scenario, sol, cache = support.solved(
        support.big_random_scenario(9, sensors=10, state_dim=3, horizon=2))
    with pytest.raises(ValueError, match="enumeration cap"):
        lq.exact_supermodularity_ratio(scenario, sol, cache)
    gamma, _ = lq.exact_supermodularity_ratio(scenario, sol, cache, max_sensors=10)
    assert 0.0 <= gamma <= 1.0


def test_spectral_bound_one_sensor_fixture():
    scenario, sol, cache = support.solved(support.scalar_one_sensor_scenario())
    bound, hypotheses = lq.ratio_lower_bound(scenario, sol, cache)
    assert hypotheses.theta_sum_pd
    assert hypotheses.normalized_sensors
    assert hypotheses.trace_dominated
    assert hypotheses.applicable
    assert bound == pytest.approx(0.125, abs=1e-9)


def test_spectral_bound_flags_unnormalized():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    bound, hypotheses = lq.ratio_lower_bound(scenario, sol, cache)
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
    bound, hypotheses = lq.ratio_lower_bound(scenario, sol)
    assert not hypotheses.theta_sum_pd
    assert bound is None


def test_spectral_bound_below_exact_ratio():
    for seed in range(12):
        scenario = support.normalized_bound_scenario(seed)
        scenario, sol, cache = support.solved(scenario)
        bound, hypotheses = lq.ratio_lower_bound(scenario, sol, cache)
        assert hypotheses.applicable
        gamma, _ = lq.exact_supermodularity_ratio(scenario, sol, cache)
        assert bound <= gamma + 1e-9
        assert 0.0 < bound <= 1.0


def test_spectral_bound_matches_the_per_step_reference():
    scenarios = [support.random_scenario(seed) for seed in range(40)]
    scenarios += [support.normalized_bound_scenario(seed) for seed in range(4)]
    scenarios += [lq.build_formation_scenario(2, 6, "heterogeneous", 1),
                  lq.build_uav_scenario(2, 6, "heterogeneous", 1)]
    for scenario in scenarios:
        scenario, sol, cache = support.solved(scenario)
        bound, hypotheses = lq.ratio_lower_bound(scenario, sol, cache)
        flags = [hypotheses.theta_sum_pd, hypotheses.normalized_sensors,
                 hypotheses.trace_dominated]
        assert (bound, flags) == support.reference_ratio_lower_bound(scenario, sol, cache)


def test_ratio_report_bundles_both():
    scenario, sol, cache = support.solved(support.scalar_one_sensor_scenario())
    report = lq.ratio_report(scenario, sol, cache)
    assert report.exact == pytest.approx(1.0, abs=1e-9)
    assert report.lower_bound == pytest.approx(0.125, abs=1e-9)
    assert report.hypotheses.applicable


def test_budget_certificate_scalar():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    report = lq.greedy_budget(scenario, sol, cache)
    gamma, _ = lq.exact_supermodularity_ratio(scenario, sol, cache)
    oracle = lq.oracle_budget(scenario, sol, cache)
    cert = lq.budget_certificate(report, gamma, cache.g(()), oracle.lqg_cost_g)
    assert cert.kind == "budget"
    # greedy == oracle here, so the full reduction is achieved
    assert cert.lhs == pytest.approx(1.0, abs=1e-9)
    assert cert.rhs == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)
    assert cert.passed


def test_budget_certificate_zero_gamma_trivial():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    report = lq.greedy_budget(scenario, sol, cache)
    cert = lq.budget_certificate(report, 0.0, cache.g(()), cache.g((0, 1)))
    assert cert.rhs == 0.0
    assert cert.passed


def test_budget_certificate_without_reference():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    report = lq.greedy_budget(scenario, sol, cache)
    cert = lq.budget_certificate(report, 1.0, cache.g(()))
    assert cert.lhs is None
    assert cert.passed is None
    assert cert.rhs > 0.0


def test_budget_certificate_degenerate_denominator():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    report = lq.greedy_budget(scenario, sol, cache)
    cert = lq.budget_certificate(report, 1.0, cache.g(()), cache.g(()))
    assert cert.lhs == 1.0
    assert cert.passed


def test_budget_certificate_requires_budget_report():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario(kappa=0.7))
    report = lq.greedy_mincost(scenario, sol, cache)
    with pytest.raises(ValueError, match="budget"):
        lq.budget_certificate(report, 1.0, cache.g(()))


def test_budget_certificate_holds_on_random_instances():
    for seed in range(15):
        scenario, sol, cache = support.solved(
            support.random_scenario(seed + 1900, max_sensors=6, with_budget=True))
        report = lq.greedy_budget(scenario, sol, cache)
        gamma, _ = lq.exact_supermodularity_ratio(scenario, sol, cache)
        oracle = lq.oracle_budget(scenario, sol, cache)
        cert = lq.budget_certificate(report, gamma, cache.g(()), oracle.lqg_cost_g)
        assert cert.passed, (seed, cert)


def test_mincost_certificate_scalar():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(kappa=0.7))
    report = lq.greedy_mincost(scenario, sol, cache)
    gamma, _ = lq.exact_supermodularity_ratio(scenario, sol, cache)
    oracle = lq.oracle_mincost(scenario, sol, cache)
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
    report = lq.greedy_mincost(scenario, sol, cache)
    cert = lq.mincost_certificate(report, 1.0, cache.g(()), 0.0)
    assert cert.passed is True
    assert cert.note == "empty selection meets the cap outright"


def test_mincost_certificate_zero_gamma_undefined():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(kappa=0.7))
    report = lq.greedy_mincost(scenario, sol, cache)
    cert = lq.mincost_certificate(report, 0.0, cache.g(()), 2.0)
    assert cert.passed is None
    assert cert.cap_satisfied
    assert "undefined" in cert.note


def test_mincost_certificate_without_reference():
    scenario, sol, cache = support.solved(
        support.scalar_two_sensor_scenario(kappa=0.7))
    report = lq.greedy_mincost(scenario, sol, cache)
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
            report = lq.greedy_mincost(scenario, sol, cache)
        except lq.InfeasibleError:
            continue
        gamma, _ = lq.exact_supermodularity_ratio(scenario, sol, cache)
        oracle = lq.oracle_mincost(scenario, sol, cache)
        cert = lq.mincost_certificate(report, gamma, cache.g(()), oracle.cost)
        assert cert.cap_satisfied
        if cert.passed is not None:
            assert cert.passed, (seed, cert)
            checked += 1
    assert checked >= 8
