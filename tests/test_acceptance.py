"""Acceptance gate: ten end-to-end checks, one printed pass/fail line each.

Each test computes its verdict first, prints exactly one line of the form
``criterion NN <name>: PASS|FAIL`` (visible with ``pytest -s``, or in the
captured output of a failing run), then asserts.  Tolerances are pinned in
the assertions themselves.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import lqgcodesign as lq

import support


def _report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


def _rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_01_scalar_fixture_suite():
    started = time.perf_counter()
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    checks = {
        "S": abs(sol.S[0][0, 0] - 1.0) <= 1e-9,
        "N": abs(sol.N[0][0, 0] - 0.5) <= 1e-9,
        "M": abs(sol.M[0][0, 0] - 2.0) <= 1e-9,
        "K": abs(sol.K[0][0, 0] + 0.5) <= 1e-9,
        "theta": abs(sol.theta[0][0, 0] - 0.5) <= 1e-9,
    }
    post = lq.propagate_covariance(scenario, (0,)).posteriors[0][0, 0]
    checks["posterior"] = abs(post - 0.5) <= 1e-9
    checks["f_empty"] = abs(cache.f(()) - 0.5) <= 1e-9
    checks["f_a"] = abs(cache.f((0,)) - 0.25) <= 1e-9
    checks["f_b"] = abs(cache.f((1,)) - 1.0 / 6.0) <= 1e-9
    checks["f_ab"] = abs(cache.f((0, 1)) - 0.125) <= 1e-9
    checks["g_empty"] = abs(cache.g(()) - 1.0) <= 1e-9
    checks["kappa_bar"] = abs(cache.kappa_bar() - 1.5) <= 1e-9

    checks["greedy_budget"] = lq.greedy_budget(cache, scenario.budget).chosen == (1,)
    # kappa = 0.7 leaves kappa_bar = 0.2
    checks["greedy_mincost"] = lq.greedy_mincost(cache, 0.7).chosen == (0, 1)
    checks["oracle_mincost"] = lq.oracle_mincost(cache, 0.7).chosen == (1,)

    gamma, _ = lq.exact_supermodularity_ratio(cache)
    checks["gamma_exact"] = abs(gamma - 1.0) <= 1e-9
    one = support.scalar_one_sensor_scenario()
    one_sol = lq.solve_riccati(one.system, one.weights)
    bound, hypotheses = lq.ratio_lower_bound(lq.ObjectiveCache(one, one_sol))
    checks["spectral_bound"] = (hypotheses.applicable
                                and abs(bound - 0.125) <= 1e-9)
    elapsed = time.perf_counter() - started
    checks["runtime"] = elapsed < 1.0
    ok = all(checks.values())
    _report(1, "scalar fixture suite", ok)
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_02_oracle_equivalence_and_budget_certificates():
    started = time.perf_counter()
    matches = 0
    certified = 0
    total = 100
    for seed in range(2000, 2000 + total):
        scenario, sol, cache = support.solved(
            support.random_scenario(seed, with_budget=True, unit_costs=True))
        greedy = lq.greedy_budget(cache, scenario.budget)
        oracle = lq.oracle_budget(cache, scenario.budget)
        if _rel_close(greedy.objective_f, oracle.objective_f):
            matches += 1
        gamma, _ = lq.exact_supermodularity_ratio(cache)
        cert = lq.budget_certificate(greedy, gamma, cache.f(()),
                                     f_star=oracle.objective_f)
        if cert.passed:
            certified += 1
    elapsed = time.perf_counter() - started
    ok = matches >= 90 and certified == total and elapsed < 120.0
    _report(2, "greedy matches oracle, budget certificates hold", ok)
    assert matches >= 90, f"greedy matched oracle on {matches}/{total}"
    assert certified == total, f"certificate passed on {certified}/{total}"
    assert elapsed < 120.0


def test_criterion_03_mincost_cap_and_cost_bound():
    started = time.perf_counter()
    total = 50
    cap_ok = 0
    bound_ok = 0
    for seed in range(3000, 3000 + total):
        base = support.random_scenario(seed)
        scenario = support.with_feasible_kappa(*support.solved(base), seed=seed)
        scenario, sol, cache = support.solved(scenario)
        greedy = lq.greedy_mincost(cache, scenario.kappa)
        if greedy.lqg_cost_g <= scenario.kappa + 1e-9:
            cap_ok += 1
        gamma, _ = lq.exact_supermodularity_ratio(cache)
        oracle = lq.oracle_mincost(cache, scenario.kappa)
        cert = lq.mincost_certificate(greedy, gamma, cache.g(()),
                                      b_star=oracle.cost)
        if cert.passed is True:
            bound_ok += 1
    elapsed = time.perf_counter() - started
    ok = cap_ok == total and bound_ok == total and elapsed < 120.0
    _report(3, "cost-capped greedy meets cap and cost bound", ok)
    assert cap_ok == total, f"cap satisfied on {cap_ok}/{total}"
    assert bound_ok == total, f"cost bound passed on {bound_ok}/{total}"
    assert elapsed < 120.0


def test_criterion_04_spectral_bound_soundness():
    total = 50
    sound = 0
    for seed in range(total):
        scenario, sol, cache = support.solved(
            support.normalized_bound_scenario(seed))
        bound, hypotheses = lq.ratio_lower_bound(cache)
        assert hypotheses.applicable
        gamma, _ = lq.exact_supermodularity_ratio(cache)
        if bound <= gamma + 1e-9:
            sound += 1
    ok = sound == total
    _report(4, "spectral bound never exceeds exact ratio", ok)
    assert sound == total, f"bound sound on {sound}/{total}"


def test_criterion_05_cascade_identity_and_flag_agreement():
    total = 50
    tight = 0
    agree = 0
    for index in range(total):
        zero_q = index % 5 == 4
        scenario = support.random_scenario(5000 + index, max_state=6,
                                           max_horizon=8, invertible=True,
                                           pd_q=not zero_q, zero_q=zero_q,
                                           min_theta_rank=True)
        sol = lq.solve_riccati(scenario.system, scenario.weights)
        if lq.cascade_identity_residual(scenario.system, scenario.weights,
                                        sol) < 1e-8:
            tight += 1
        positive, _ = lq.theta_sum_positive_definite(sol)
        if positive == lq.zero_control_suboptimal(scenario.system,
                                                  scenario.weights, sol):
            agree += 1
    ok = tight == total and agree == total
    _report(5, "telescoped regulator identity and flag agreement", ok)
    assert tight == total, f"residual below 1e-8 on {tight}/{total}"
    assert agree == total, f"flags agreed on {agree}/{total}"


def test_criterion_06_monotone_objective():
    pairs = 0
    good = 0
    seed = 6000
    while pairs < 200:
        scenario, sol, cache = support.solved(support.random_scenario(seed))
        rng = np.random.default_rng(seed)
        seed += 1
        for _ in range(8):
            if pairs == 200:
                break
            ids = scenario.suite.ids
            small = frozenset(i for i in ids if rng.random() < 0.4)
            big = small | frozenset(i for i in ids if rng.random() < 0.5)
            if cache.f(small) >= cache.f(big) - 1e-10:
                good += 1
            pairs += 1
    ok = good == 200
    _report(6, "more sensing never raises the objective", ok)
    assert good == 200, f"monotone on {good}/200 nested pairs"


def test_criterion_07_separation_consistency():
    started = time.perf_counter()
    failures = []

    def check(scenario, sol, cache, ids, tag):
        summary = lq.monte_carlo(cache, ids, runs=2000, base_seed=7000)
        spread = max(summary.std_error, 1e-12)
        if abs(summary.mean_cost - summary.analytical_g) > 3.0 * spread:
            failures.append((tag, summary.mean_cost, summary.analytical_g,
                             summary.std_error))

    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    greedy = lq.greedy_budget(cache, scenario.budget)
    for ids, tag in ((tuple(), "scalar empty"),
                     (greedy.chosen, "scalar greedy"),
                     (scenario.suite.ids, "scalar all")):
        check(scenario, sol, cache, ids, tag)

    formation = replace(lq.build_formation_scenario(agents=2, horizon=10, seed=0),
                        budget=3.0)
    formation, form_sol, form_cache = support.solved(formation)
    form_greedy = lq.greedy_budget(form_cache, formation.budget)
    for ids, tag in ((tuple(), "formation empty"),
                     (form_greedy.chosen, "formation greedy"),
                     (formation.suite.ids, "formation all")):
        check(formation, form_sol, form_cache, ids, tag)

    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    _report(7, "Monte Carlo means sit on the analytic cost", ok)
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_08_control_mismatch_identity():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    ids = (0,)
    runs = 10_000
    acc = 0.0
    for record in lq.run_closed_loop(cache, ids, range(8000, 8000 + runs)):
        for t in range(scenario.horizon):
            mismatch = sol.K[t] @ (record.states[t] - record.estimates[t])
            acc += float(mismatch @ sol.M[t] @ mismatch)
    estimate = acc / runs
    target = cache.f(ids)
    ok = abs(estimate - target) <= 0.05 * target
    _report(8, "realized control mismatch matches the sensing objective", ok)
    assert ok, (estimate, target)


def test_criterion_09_formation_method_ordering():
    started = time.perf_counter()
    scenario = replace(
        lq.build_formation_scenario(agents=4, horizon=20,
                                    mode="heterogeneous", seed=0),
        budget=6.0)
    scenario, sol, cache = support.solved(scenario)
    chosen = {
        "greedy": lq.greedy_budget(cache, scenario.budget).chosen,
        "logdet": lq.baseline_logdet(cache, scenario.budget).chosen,
        "random": lq.baseline_random(cache, scenario.budget, mandatory=(0, 1, 2, 3), seed=1).chosen,
        "all": scenario.suite.ids,
    }
    means = {
        name: lq.monte_carlo(cache, ids, runs=100, base_seed=900).mean_cost
        for name, ids in chosen.items()
    }
    elapsed = time.perf_counter() - started
    ordering = (means["greedy"] <= means["logdet"]
                and means["greedy"] <= means["random"]
                and means["all"] <= means["greedy"])
    ok = ordering and elapsed < 300.0
    _report(9, "formation benchmark method ordering", ok)
    assert ordering, means
    assert elapsed < 300.0


def test_criterion_10_scale_sanity():
    def timed(sensors: int) -> float:
        scenario = support.big_random_scenario(10, sensors=sensors,
                                               state_dim=16, horizon=20,
                                               budget=8.0)
        sol = lq.solve_riccati(scenario.system, scenario.weights)
        cache = lq.ObjectiveCache(scenario, sol)
        started = time.perf_counter()
        report = lq.greedy_budget(cache, scenario.budget)
        elapsed = time.perf_counter() - started
        assert report.cost <= 8.0 + 1e-12
        return elapsed

    time_small = timed(30)
    time_large = timed(60)
    ratio = time_large / max(time_small, 1e-9)
    ok = time_large < 60.0 and ratio < 6.0
    _report(10, "greedy scales to sixty sensors", ok)
    assert time_large < 60.0, time_large
    assert ratio < 6.0, (time_small, time_large)
