"""Information-form filtering and the sensing/LQG objectives."""

import numpy as np
import pytest

import lqgcodesign as lq

import support


def _reference_trajectory(scenario, ids):
    """Independent plain-form recursion: stacked C, V and explicit inverses."""
    system = scenario.system
    priors, posts = [], []
    prior = system.sigma_init
    for t in range(system.horizon):
        priors.append(prior)
        C, V = lq.stack_sensors(scenario.suite, ids, t)
        if C.shape[0] == 0:
            post = prior
        else:
            info = np.linalg.inv(prior) + C.T @ np.linalg.inv(V) @ C
            post = np.linalg.inv(info)
        posts.append(post)
        prior = system.A[t] @ post @ system.A[t].T + system.W[t]
    return priors, posts


def test_scalar_posteriors():
    scenario = support.scalar_two_sensor_scenario()
    traj = lq.propagate_covariance(scenario, (0,))
    assert traj.posteriors[0][0, 0] == pytest.approx(0.5)
    traj = lq.propagate_covariance(scenario, (1,))
    assert traj.posteriors[0][0, 0] == pytest.approx(1.0 / 3.0)
    traj = lq.propagate_covariance(scenario, (0, 1))
    assert traj.posteriors[0][0, 0] == pytest.approx(0.25)


def test_empty_set_identity_update():
    eye = np.eye(2)
    system = lq.LtvSystem(horizon=3, state_dim=2, A=[eye] * 3,
                          W=[np.zeros((2, 2))] * 3, B=[eye] * 3, sigma_init=eye)
    weights = lq.LqgWeights(horizon=3, Q=[eye] * 3, R=[eye] * 3)
    scenario = lq.Scenario(system=system,
                           suite=lq.SensorSuite(sensors=(), state_dim=2),
                           weights=weights)
    traj = lq.propagate_covariance(scenario, ())
    for post, prior in zip(traj.posteriors, traj.priors):
        np.testing.assert_array_equal(post, prior)
        np.testing.assert_allclose(post, eye, atol=1e-14)


def test_matches_plain_form_recursion():
    for seed in range(15):
        scenario = support.random_scenario(seed + 900)
        rng = np.random.default_rng(seed)
        ids = tuple(i for i in scenario.suite.ids if rng.random() < 0.5)
        traj = lq.propagate_covariance(scenario, ids)
        ref_priors, ref_posts = _reference_trajectory(scenario, ids)
        for got, want in zip(traj.posteriors, ref_posts):
            np.testing.assert_allclose(got, want, atol=1e-9)
        for got, want in zip(traj.priors, ref_priors):
            np.testing.assert_allclose(got, want, atol=1e-9)


def test_whitening_preserves_information():
    for seed in range(10):
        rng = np.random.default_rng(seed + 40)
        p, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        C = rng.normal(size=(p, n))
        V = support.random_psd(rng, p, ridge=0.3)
        sensor = lq.Sensor.time_invariant(0, C, V, 1.0, 2)
        white = lq.whiten_sensor(sensor)
        assert white.shape == (2, p, n)
        for t in range(2):
            np.testing.assert_allclose(white[t].T @ white[t],
                                       C.T @ np.linalg.inv(V) @ C, atol=1e-9)


def test_posterior_never_exceeds_prior():
    for seed in range(10):
        scenario = support.random_scenario(seed + 950)
        traj = lq.propagate_covariance(scenario, scenario.suite.ids)
        for prior, post in zip(traj.priors, traj.posteriors):
            assert np.linalg.eigvalsh(prior - post).min() > -1e-9


def test_more_sensors_never_hurt():
    for seed in range(10):
        scenario = support.random_scenario(seed + 1000)
        rng = np.random.default_rng(seed)
        ids = list(scenario.suite.ids)
        small = frozenset(i for i in ids if rng.random() < 0.4)
        big = small | frozenset(i for i in ids if rng.random() < 0.5)
        small_traj = lq.propagate_covariance(scenario, small)
        big_traj = lq.propagate_covariance(scenario, big)
        for s_post, b_post in zip(small_traj.posteriors, big_traj.posteriors):
            assert np.linalg.eigvalsh(s_post - b_post).min() > -1e-9


def test_scalar_objectives():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    assert cache.f(()) == pytest.approx(0.5, abs=1e-12)
    assert cache.f((0,)) == pytest.approx(0.25, abs=1e-12)
    assert cache.f((1,)) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert cache.f((0, 1)) == pytest.approx(0.125, abs=1e-12)
    assert cache.g(()) == pytest.approx(1.0, abs=1e-12)
    assert cache.g((0,)) == pytest.approx(0.75, abs=1e-12)
    assert lq.optimal_lqg_cost(scenario, sol, (0,)) == pytest.approx(0.75, abs=1e-12)


def test_offset_affine_in_process_noise():
    # the residual-cost offset must accumulate sum_t tr(W[t] S[t]) exactly
    base = support.random_scenario(1234, zero_mean=True)
    sol = lq.solve_riccati(base.system, base.weights)
    offsets = []
    for alpha in (0.0, 1.0, 2.0):
        system = lq.LtvSystem(horizon=base.horizon, state_dim=base.state_dim,
                              A=list(base.system.A), B=list(base.system.B),
                              W=[alpha * w for w in base.system.W],
                              sigma_init=base.system.sigma_init)
        scenario = lq.Scenario(system=system, suite=base.suite, weights=base.weights)
        offsets.append(lq.cost_offset(scenario, sol))
    slope = sum(float(np.trace(w @ s)) for w, s in zip(base.system.W, sol.S))
    assert offsets[1] - offsets[0] == pytest.approx(slope, abs=1e-10)
    assert offsets[2] - offsets[1] == pytest.approx(slope, abs=1e-10)


def test_offset_includes_mean_term():
    scenario = support.scalar_two_sensor_scenario()
    shifted = lq.Scenario(
        system=lq.LtvSystem(horizon=1, state_dim=1, A=[[1.0]], B=[[1.0]],
                            W=[[0.0]], sigma_init=[[1.0]], x1_mean=[2.0]),
        suite=scenario.suite, weights=scenario.weights, kappa=2.0)
    sol = lq.solve_riccati(shifted.system, shifted.weights)
    # x'Nx = 4 * 0.5 on top of tr(sigma N) = 0.5
    assert lq.cost_offset(shifted, sol) == pytest.approx(2.5, abs=1e-12)
    assert lq.kappa_bar(shifted, sol) == pytest.approx(-0.5, abs=1e-12)


def test_kappa_bar_scalar():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    assert lq.kappa_bar(scenario, sol) == pytest.approx(1.5, abs=1e-12)
    assert cache.kappa_bar() == pytest.approx(1.5, abs=1e-12)


def test_kappa_bar_requires_kappa():
    scenario = support.scalar_two_sensor_scenario(kappa=None)
    sol = lq.solve_riccati(scenario.system, scenario.weights)
    with pytest.raises(ValueError, match="kappa"):
        lq.kappa_bar(scenario, sol)


def test_cap_translation_identity():
    # g(S) <= kappa exactly when f(S) <= kappa_bar, for any S and kappa
    for seed in range(8):
        base = support.random_scenario(seed + 1100)
        scenario = support.with_feasible_kappa(
            *support.solved(base), seed=seed)
        scenario, sol, cache = support.solved(scenario)
        rng = np.random.default_rng(seed)
        ids = frozenset(i for i in scenario.suite.ids if rng.random() < 0.5)
        lhs = cache.g(ids) - scenario.kappa
        rhs = cache.f(ids) - cache.kappa_bar()
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_logdet_objective_values():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    assert cache.logdet(()) == pytest.approx(0.0, abs=1e-12)
    assert cache.logdet((0,)) == pytest.approx(np.log(0.5), abs=1e-12)
    assert cache.logdet((0, 1)) == pytest.approx(np.log(0.25), abs=1e-12)


def test_logdet_monotone():
    for seed in range(8):
        scenario, sol, cache = support.solved(support.random_scenario(seed + 1200))
        rng = np.random.default_rng(seed)
        ids = list(scenario.suite.ids)
        small = frozenset(i for i in ids if rng.random() < 0.4)
        big = small | frozenset(ids)
        assert cache.logdet(small) >= cache.logdet(big) - 1e-10


def test_singular_prediction_raises():
    # zero process noise and a nilpotent map flatten the covariance
    scenario = support.singular_prediction_scenario()
    with pytest.raises(lq.NumericalError, match="time index 1"):
        lq.propagate_covariance(scenario, (0,))


def test_unknown_ids_rejected():
    scenario = support.scalar_two_sensor_scenario()
    with pytest.raises(lq.ValidationError):
        lq.propagate_covariance(scenario, (0, 7))


def test_cache_and_direct_trajectories_identical():
    # both entry points run the one recursion on the same summed information
    for seed in range(10):
        scenario, sol, cache = support.solved(support.random_scenario(seed + 1300))
        rng = np.random.default_rng(seed)
        ids = tuple(i for i in scenario.suite.ids if rng.random() < 0.6)
        cached = cache.trajectory(ids)
        direct = lq.propagate_covariance(scenario, ids)
        n = scenario.state_dim
        assert cached.priors.shape == (scenario.horizon, n, n)
        np.testing.assert_array_equal(cached.priors, direct.priors)
        np.testing.assert_array_equal(cached.posteriors, direct.posteriors)


def test_zero_sensor_suite():
    base = support.random_scenario(77)
    scenario = lq.Scenario(system=base.system,
                           suite=lq.SensorSuite(sensors=(), state_dim=base.state_dim),
                           weights=base.weights, budget=1.0)
    scenario, sol, cache = support.solved(scenario)
    identity = lq.propagate_covariance(scenario, ())
    assert cache.f(()) == lq.sensing_objective(sol, identity)
    np.testing.assert_array_equal(cache.trajectory(()).posteriors, identity.priors)
    assert lq.greedy_budget(scenario, sol, cache).chosen == ()


def test_overflowing_objective_raises():
    scenario, sol, cache = support.solved(support.overflowing_scenario())
    with pytest.raises(lq.NumericalError, match="not finite"):
        cache.f(())


def test_cache_consistent_with_direct_evaluation():
    scenario, sol, cache = support.solved(support.random_scenario(321))
    ids = scenario.suite.ids[: max(1, len(scenario.suite) // 2)]
    direct = lq.sensing_objective(sol, lq.propagate_covariance(scenario, ids))
    assert cache.f(ids) == pytest.approx(direct, abs=1e-12)
    assert cache.f(ids) == pytest.approx(cache.f(frozenset(ids)), abs=0.0)
    assert cache.g(ids) == pytest.approx(direct + cache.offset, abs=1e-12)
