"""Information-form filtering and the sensing/LQG objectives."""

import re
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqgcodesign as lq
from lqgcodesign import kalman
from lqgcodesign._linalg import constant_over_time, symmetrize

import support


def _reference_trajectory(scenario, ids):
    """Independent plain-form recursion: stacked C, V and explicit inverses."""
    system = scenario.system
    priors, posts = [], []
    prior = system.sigma_init
    wiring, noise = lq.stack_sensors(scenario, ids)
    for t in range(system.horizon):
        priors.append(prior)
        C, V = wiring[t], noise[t]
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


def test_stacked_whitening_matches_per_step_reference():
    for scenario in support.differential_scenarios():
        for sensor in scenario.suite:
            assert np.array_equal(lq.whiten_sensor(sensor), support.whiten_sensor(sensor))


@pytest.mark.parametrize("build, invariant", [
    (lambda: lq.build_formation_scenario(3, 20, "heterogeneous", 7), True),
    (lambda: lq.build_uav_scenario(5, 20, "heterogeneous", 7), True),
    (lambda: support.per_step_sensor_scenario(5), False),
], ids=["formation-a3", "uav-a5", "per-step-sensors"])
def test_whitening_once_matches_per_step_computation(build, invariant):
    """A time-invariant sensor is whitened once, to the bits of whitening each step.

    A time-invariant suite's class bank and rows hold one step, a per-step
    suite's every step; either way a stored step is every step it stands for.
    """
    scenario, _, cache = support.solved(build())
    for s in scenario.suite:
        assert (constant_over_time(s.C) and constant_over_time(s.V)) == invariant
        white = support.whiten_sensor(s)
        assert white.tobytes() == lq.whiten_sensor(s).tobytes() == cache.whitened(s.id).tobytes()
    steps = 1 if invariant else scenario.horizon
    assert cache._bank.shape[1] == len(cache._rows) == steps
    for c in range(len(cache._bank) - 1):
        white = support.whiten_sensor(scenario.suite.sensor(cache._class.index(c)))
        info = np.stack([symmetrize(w.T @ w) for w in white])
        assert info.tobytes() == np.broadcast_to(cache._bank[c], info.shape).tobytes()
        rows = cache._rows[:, cache._row_ids[c]]
        assert white.tobytes() == np.broadcast_to(rows, white.shape).tobytes()


def _mixed_step_scenario(seed):
    """A ``random_scenario`` whose odd-numbered sensors draw wiring and noise afresh per step."""
    scenario = support.random_scenario(seed)
    stepped = support.per_step_sensor_scenario(seed).suite
    sensors = tuple(stepped.sensor(s.id) if s.id % 2 else s for s in scenario.suite)
    assert not constant_over_time(sensors[1].V)
    return replace(scenario, suite=lq.SensorSuite(sensors=sensors, state_dim=scenario.state_dim))


@pytest.mark.parametrize("build", [
    lambda: lq.build_formation_scenario(8, 20, "heterogeneous", 7),
    lambda: lq.build_uav_scenario(9, 20, "heterogeneous", 7),
    lambda: support.per_step_sensor_scenario(5),
    lambda: _mixed_step_scenario(5),
], ids=["formation-a8", "uav-a9", "per-step-sensors", "mixed"])
def test_suite_whitening_matches_per_sensor_whitening(build):
    """One whitening of the suite, time-invariant sensors stacked by output
    dimension, gives each sensor the bits of whitening it alone."""
    scenario, _, cache = support.solved(build())
    suite, once = kalman._whiten(scenario.suite.sensors)
    for sensor, white, was in zip(scenario.suite, suite, once):
        assert was == (constant_over_time(sensor.C) and constant_over_time(sensor.V))
        alone = lq.whiten_sensor(sensor)
        assert white.shape == alone.shape and white.flags.c_contiguous
        assert white.tobytes() == alone.tobytes() == cache.whitened(sensor.id).tobytes()
        assert alone.tobytes() == support.whiten_sensor(sensor).tobytes()


@pytest.mark.parametrize("build", [
    lambda: lq.build_formation_scenario(3, 20, "heterogeneous", 7),
    lambda: support.per_step_sensor_scenario(5),
    lambda: _mixed_step_scenario(5),
], ids=["formation-a3", "per-step-sensors", "mixed"])
def test_stacks_whitened_once_are_not_tested_again(build, monkeypatch):
    """The one-step test after whitening looks only at the per-step stacks,
    and the class bank, rows and trajectories keep their layout and bits."""
    scenario = build()
    _, _, want = support.solved(scenario)
    ids = tuple(scenario.suite.ids)[:3]
    want_trajectory = lq.propagate_covariance(scenario, ids)
    once = set()
    for sensor in scenario.suite:
        if constant_over_time(sensor.C) and constant_over_time(sensor.V):
            once.add(lq.whiten_sensor(sensor).tobytes())
    tested = []  # the stacks tested since the last whitening
    whiten = kalman._whiten

    def whitened(sensors):
        got = whiten(sensors)
        tested.clear()
        return got

    monkeypatch.setattr(kalman, "_whiten", whitened)
    monkeypatch.setattr(kalman, "constant_over_time",
                        lambda steps: tested.append(steps.tobytes()) or constant_over_time(steps))
    _, _, cache = support.solved(scenario)
    assert once.isdisjoint(tested)
    got_trajectory = lq.propagate_covariance(scenario, ids)
    assert once.isdisjoint(tested)
    assert cache._bank.shape == want._bank.shape and cache._rows.shape == want._rows.shape
    assert cache._bank.tobytes() == want._bank.tobytes()
    assert cache._rows.tobytes() == want._rows.tobytes()
    for got, expected in ((got_trajectory, want_trajectory),
                          (cache.trajectory(ids), want.trajectory(ids))):
        assert got.priors.tobytes() == expected.priors.tobytes()
        assert got.posteriors.tobytes() == expected.posteriors.tobytes()


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
    # the full cost is the trajectory's sensing objective plus the offset
    traj = lq.propagate_covariance(scenario, (0,))
    assert (lq.sensing_objective(sol, traj) + lq.cost_offset(scenario, sol)
            == pytest.approx(cache.g((0,)), abs=1e-12))


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


def test_offset_matches_per_step_sum():
    for seed in range(40):
        scenario = support.random_scenario(seed + 950, max_state=6, max_horizon=24)
        sol = lq.solve_riccati(scenario.system, scenario.weights)
        mean = scenario.system.x1_mean
        want = float(mean @ sol.N[0] @ mean)
        want += float(np.sum(sol.N[0] * scenario.system.sigma_init))
        for t in range(scenario.horizon):
            want += float(np.sum(scenario.system.W[t] * sol.S[t]))
        assert lq.cost_offset(scenario, sol) == want


def test_offset_includes_mean_term():
    scenario = support.scalar_two_sensor_scenario()
    shifted = lq.Scenario(
        system=lq.LtvSystem(horizon=1, state_dim=1, A=[[1.0]], B=[[1.0]],
                            W=[[0.0]], sigma_init=[[1.0]], x1_mean=[2.0]),
        suite=scenario.suite, weights=scenario.weights, kappa=2.0)
    sol = lq.solve_riccati(shifted.system, shifted.weights)
    # x'Nx = 4 * 0.5 on top of tr(sigma N) = 0.5
    assert lq.cost_offset(shifted, sol) == pytest.approx(2.5, abs=1e-12)
    assert lq.ObjectiveCache(shifted, sol).kappa_bar() == pytest.approx(-0.5, abs=1e-12)


def test_kappa_bar_scalar():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    assert cache.kappa_bar() == pytest.approx(1.5, abs=1e-12)


def test_kappa_bar_requires_kappa():
    scenario = support.scalar_two_sensor_scenario(kappa=None)
    cache = support.solved(scenario)[2]
    with pytest.raises(ValueError, match="kappa"):
        cache.kappa_bar()


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


def test_singular_prediction_matches_joseph():
    # zero process noise and a nilpotent map flatten the prior at time index 1;
    # the update never inverts it, so it needs no regularizing
    scenario, sol, cache = support.solved(support.singular_prediction_scenario())
    for ids in ((), (0,)):
        posts = lq.propagate_covariance(scenario, ids).posteriors
        np.testing.assert_allclose(posts, support.joseph_posteriors(scenario, ids),
                                   rtol=1e-12, atol=0.0)
        assert cache.f(ids) == pytest.approx(support.joseph_objective(scenario, sol, ids),
                                             rel=1e-12, abs=0.0)


def test_unknown_ids_rejected():
    scenario = support.scalar_two_sensor_scenario()
    with pytest.raises(lq.ValidationError):
        lq.propagate_covariance(scenario, (0, 7))


def test_fractional_ids_rejected():
    # an id is an integer as the loader reads one; it is never truncated
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    calls = (cache.f, lambda ids: lq.set_cost(scenario.suite, ids),
             lambda ids: lq.propagate_covariance(scenario, ids).posteriors)
    for call, bad in zip(calls, (0.9, 1.7, 0.5)):
        with pytest.raises(lq.ValidationError, match=f"sensor id: expected an integer, got {bad}"):
            call([bad])
        with pytest.raises(lq.ValidationError, match="expected an integer"):
            call([True])
        np.testing.assert_array_equal(call([np.int64(1)]), call([1]))
    # only the valid calls were memoized, under sensor 1's class multiset key
    assert cache._f == {kalman._class_key(0b10, cache._weight): cache.f([1])}


def test_batch_calls_reject_masks_outside_the_suite():
    # a bit at or past m names no sensor's class; the first id past the suite is named
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    for many in (cache.f_many, cache.logdet_many):
        with pytest.raises(lq.ValidationError, match="sensor id 2 not in suite"):
            many([1, 0b100])
        with pytest.raises(lq.ValidationError, match="sensor id 5 not in suite"):
            many([0b100011])
        with pytest.raises(lq.ValidationError, match="sensor id 70 not in suite"):
            many([1 << 70 | 1 << 71])
        with pytest.raises(lq.ValidationError, match="mask -1 is negative"):
            many([-1])
        with pytest.raises(lq.ValidationError, match="sensor id 2 not in suite"):
            many([np.int64(0b100)])
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            many([1.0])
    assert cache._f == {} and cache._logdet == {}


def test_batch_calls_take_numpy_integer_masks_as_ints():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    # numpy integers have no bit_length: the masks are walked as Python ints
    for masks in (np.flatnonzero(np.ones(4, dtype=bool)), np.arange(4, dtype=np.uint64)):
        assert cache.f_many(masks) == cache.f_many(range(4))
        assert cache.logdet_many(masks) == cache.logdet_many(range(4))
    # two one-sensor classes: each multiset's key is its mask
    assert sorted(cache._f) == sorted(cache._logdet) == [0, 1, 2, 3]
    assert all(type(key) is int for key in [*cache._f, *cache._logdet])


def test_masks_past_bit_63_are_python_ints():
    scenario, sol, cache = support.solved(
        support.big_random_scenario(3, sensors=70, state_dim=2, horizon=2))
    masks = [1 << 69, 1 << 69 | 1 << 63 | 1]
    assert cache.f_many(masks) == [cache.f((69,)), cache.f((0, 63, 69))]
    assert cache.logdet_many(masks) == [cache.logdet((69,)), cache.logdet((69, 63, 0))]


def test_cache_and_direct_trajectories_identical():
    # both entry points run the one recursion on the same summed information,
    # from one step of it for time-invariant sensors and from T for per-step ones
    for seed, build in product(range(10), (support.random_scenario,
                                           support.per_step_sensor_scenario)):
        scenario, sol, cache = support.solved(build(seed + 1300))
        rng = np.random.default_rng(seed)
        ids = tuple(i for i in scenario.suite.ids if rng.random() < 0.6)
        cached = cache.trajectory(ids)
        direct = lq.propagate_covariance(scenario, ids)
        n = scenario.state_dim
        assert cached.priors.shape == (scenario.horizon, n, n)
        np.testing.assert_array_equal(cached.priors, direct.priors)
        np.testing.assert_array_equal(cached.posteriors, direct.posteriors)


def test_cache_and_direct_trajectories_agree_with_duplicate_classes():
    # formation sensors (i, j) and (j, i) are one class: the cache sums a set's
    # information in class order and propagate_covariance in id order, so the
    # last bits may differ (up to about 1e-14 of a step's largest entry here)
    scenario, sol, cache = support.solved(lq.build_formation_scenario(4, 20, "heterogeneous", 7))
    rng = np.random.default_rng(7)
    for _ in range(100):
        ids = tuple(i for i in scenario.suite.ids if rng.random() < 0.5)
        cached, direct = cache.trajectory(ids), lq.propagate_covariance(scenario, ids)
        for c, d in ((cached.priors, direct.priors), (cached.posteriors, direct.posteriors)):
            scale = np.abs(c).max(axis=(1, 2))
            assert (np.abs(c - d).max(axis=(1, 2)) <= 1e-13 * scale).all(), ids


@pytest.mark.parametrize("build", [
    lambda: lq.build_formation_scenario(3, 20, "heterogeneous", 7),
    lambda: lq.build_uav_scenario(5, 20, "heterogeneous", 7),
], ids=["formation-a3", "uav-a5"])
def test_one_per_step_sensor_leaves_the_other_sets_bit_equal(build):
    """A suite with one per-step sensor evaluates the sets without it as the time-invariant suite.

    The last sensor's noise grows by 1e-3 per step, so the suite holds T steps
    of class information where the time-invariant suite holds one; every set
    that leaves that sensor out must get the same bits either way.
    """
    scenario = build()
    *rest, last = scenario.suite.sensors
    T = scenario.horizon
    varied = replace(last, V=last.V * (1.0 + 1e-3 * np.arange(T))[:, None, None])
    mixed = replace(scenario, suite=lq.SensorSuite(sensors=(*rest, varied),
                                                   state_dim=scenario.state_dim))
    assert not constant_over_time(varied.V)
    _, _, steady = support.solved(scenario)
    _, _, stepped = support.solved(mixed)
    masks = [int(mask) for mask in np.random.default_rng(3).integers(0, 1 << len(rest), 200)]
    assert stepped.f_many(masks) == steady.f_many(masks)
    assert stepped.logdet_many(masks) == steady.logdet_many(masks)
    for ids in ((), (0,), (0, 2), tuple(range(len(rest)))):
        got, want = stepped.trajectory(ids), steady.trajectory(ids)
        assert got.priors.tobytes() == want.priors.tobytes(), ids
        assert got.posteriors.tobytes() == want.posteriors.tobytes(), ids


def test_zero_sensor_suite():
    base = support.random_scenario(77)
    scenario = lq.Scenario(system=base.system,
                           suite=lq.SensorSuite(sensors=(), state_dim=base.state_dim),
                           weights=base.weights, budget=1.0)
    scenario, sol, cache = support.solved(scenario)
    identity = lq.propagate_covariance(scenario, ())
    assert cache.f(()) == lq.sensing_objective(sol, identity)
    np.testing.assert_array_equal(cache.trajectory(()).posteriors, identity.priors)
    assert lq.greedy_budget(cache, scenario.budget).chosen == ()


def test_overflowing_objective_raises():
    scenario, sol, cache = support.solved(support.overflowing_scenario())
    with pytest.raises(lq.NumericalError, match="not finite"):
        cache.f(())


def test_overflow_names_the_set_asked_for():
    # three bit-identical sensors are class 0; each multiset is propagated once,
    # named by the first mask that asked for it, and no value is memoized
    data = support.overflowing_scenario_dict()
    data.update(horizon=16, sensors=[{"id": i, "C": [[1e-160]], "V": [[1.0]], "cost": 1.0}
                                     for i in range(3)])
    scenario, sol, cache = support.solved(lq.scenario_from_dict(data))
    for masks, named in (([0b010], "[1]"), ([0b100, 0b010], "[2]"), ([0b110, 0b011], "[1, 2]")):
        with pytest.raises(lq.NumericalError, match=re.escape(f"set {named} is not finite (inf)")):
            cache.f_many(masks)
    assert cache._f == {}


def test_sensors_equal_only_at_step_0_are_two_classes():
    scenario = support.per_step_sensor_scenario(5)
    first = scenario.suite.sensors[0]
    late = lq.Sensor(id=1, C=np.concatenate([first.C[:1], 2.0 * first.C[1:]]), V=first.V,
                     cost=1.0)
    scenario = replace(scenario, suite=lq.SensorSuite(sensors=(first, late),
                                                      state_dim=scenario.state_dim))
    scenario, sol, cache = support.solved(scenario)
    assert scenario.horizon > 1
    ref = support.PerMaskCache(scenario, sol)
    assert cache.f_many(range(4)) == ref.f_many(range(4))
    assert cache.f((0,)) != cache.f((1,))


@pytest.mark.parametrize("build, classes, per_step", [
    (lambda: lq.build_formation_scenario(4, 20, "heterogeneous", 7), 10, False),
    (lambda: lq.build_formation_scenario(8, 20, "heterogeneous", 7), 36, False),
    (lambda: lq.build_uav_scenario(9, 20, "heterogeneous", 7), 11, False),
    (lambda: support.per_step_sensor_scenario(5), 7, True),
], ids=["formation-a4", "formation-a8", "uav-a9", "per-step"])
def test_class_bank_and_rows(build, classes, per_step):
    scenario, sol, cache = support.solved(build())
    number = cache._class
    n = scenario.state_dim
    # a time-invariant suite holds one step of class information, any other T
    steps = scenario.horizon if per_step else 1
    # classes are numbered in the order of their smallest ids
    first = [number.index(c) for c in range(classes)]
    assert sorted(set(number)) == list(range(classes)) and first == sorted(first)
    assert cache._bank.shape == (classes + 1, steps, n, n)
    assert not cache._bank[-1].any()
    for i, c in enumerate(number):
        white = cache.whitened(i)
        info = symmetrize(np.swapaxes(white, -1, -2) @ white)
        assert info.tobytes() == np.broadcast_to(cache._bank[c], info.shape).tobytes(), i
    assert cache._rows.shape == (steps, sum(cache.whitened(i).shape[1] for i in first), n)
    for c, i in enumerate(first):
        white = cache.whitened(i)
        np.testing.assert_array_equal(
            np.broadcast_to(cache._rows[:, cache._row_ids[c]], white.shape), white)


def _assert_key_encodes_the_multiset(mask, number):
    """The bit walks agree with the binary string: ids, and the class multiset in mixed radix."""
    assert kalman._mask_ids(mask) == support.mask_ids(mask)
    radix, bases = kalman._mixed_radix(number)
    key = kalman._class_key(mask, [radix[c] for c in number])
    multiset = support.class_key(mask, number)
    assert [key // r % b for r, b in zip(radix, bases)] == [multiset.count(c)
                                                            for c in range(len(bases))]
    return key, multiset


def test_bit_walks_match_the_binary_string_walks_on_every_11_bit_mask():
    number = (0, 1, 1, 2, 0, 3, 4, 4, 4, 5, 6)
    pairs = {_assert_key_encodes_the_multiset(mask, number) for mask in range(1 << 11)}
    # one key per multiset: 3 * 3 * 2 * 2 * 4 * 2 * 2
    assert len(pairs) == len(dict(pairs)) == len({m for _, m in pairs}) == 576
    masks = np.arange(1 << 11)
    weight = [kalman._mixed_radix(number)[0][c] for c in number]
    assert kalman._class_keys(masks, weight).tolist() == [kalman._class_key(int(mask), weight)
                                                          for mask in masks]


@settings(max_examples=200)
@given(mask=st.integers(0, (1 << 81) - 1),
       number=st.lists(st.integers(0, 40), min_size=81, max_size=81))
def test_bit_walks_match_the_binary_string_walks_on_81_bits(mask, number):
    # 81 sensors as in formation a9, at most 41 classes, so classes repeat;
    # an unused class number is a digit of base 1
    _assert_key_encodes_the_multiset(mask, number)


def test_cache_consistent_with_direct_evaluation():
    scenario, sol, cache = support.solved(support.random_scenario(321))
    ids = scenario.suite.ids[: max(1, len(scenario.suite) // 2)]
    direct = lq.sensing_objective(sol, lq.propagate_covariance(scenario, ids))
    assert cache.f(ids) == pytest.approx(direct, abs=1e-12)
    assert cache.f(ids) == pytest.approx(cache.f(frozenset(ids)), abs=0.0)
    assert cache.g(ids) == pytest.approx(direct + cache.offset, abs=1e-12)


@st.composite
def _small_plants(draw):
    """Plants with n <= 3, T <= 3 and at most 3 sensors, some of them free.

    Entries are halves in [-1, 1].  ``sigma_init`` and ``W`` are Gram
    matrices of any rank, 0 included, so priors may be singular.
    """
    n = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 3))

    def matrix(rows, cols):
        halves = draw(st.lists(st.integers(-2, 2), min_size=rows * cols, max_size=rows * cols))
        return 0.5 * np.array(halves, dtype=float).reshape(rows, cols)

    def gram(size):
        factor = matrix(draw(st.integers(0, size)), size)
        return factor.T @ factor

    sensors = []
    for i in range(draw(st.integers(0, 3))):
        p = draw(st.integers(1, 2))
        sensors.append(lq.Sensor.time_invariant(i, matrix(p, n), gram(p) + 0.5 * np.eye(p),
                                                draw(st.sampled_from([0.0, 0.5, 1.0])),
                                                horizon))
    system = lq.LtvSystem(horizon=horizon, state_dim=n, A=matrix(n, n), B=matrix(n, 1),
                          W=gram(n), sigma_init=gram(n))
    return lq.Scenario(system=system, suite=lq.SensorSuite(sensors=tuple(sensors), state_dim=n),
                       weights=lq.LqgWeights(horizon=horizon, Q=gram(n), R=[[1.0]]))


@settings(max_examples=100)
@given(scenario=_small_plants())
def test_objective_matches_the_joseph_filter(scenario):
    scenario, sol, cache = support.solved(scenario)
    ids = scenario.suite.ids
    sets = [s for size in range(len(ids) + 1) for s in combinations(ids, size)]
    for chosen, value in zip(sets, cache.f_many(map(support.mask_of, sets))):
        assert value == pytest.approx(support.joseph_objective(scenario, sol, chosen),
                                      rel=1e-10, abs=1e-12)


def _formation(agents):
    return support.solved(lq.build_formation_scenario(agents, 20, "heterogeneous", 7))


def _sets_below_the_state_dimension(scenario, count, seed):
    """Seeded random sets whose stacked rows number fewer than the states."""
    rng = np.random.default_rng(seed)
    n, m = scenario.state_dim, len(scenario.suite)
    widest = max(s.output_dim for s in scenario.suite)
    sets = []
    while len(sets) < count:
        size = int(rng.integers(1, (n - 1) // widest + 1))
        sets.append(tuple(sorted(rng.choice(m, size=size, replace=False).tolist())))
    return sets


@pytest.mark.parametrize("agents", [4, 8])
def test_measurement_form_matches_the_joseph_filter(agents):
    # the information form solve(I + P J, P) is about 1.5e-11 off here
    scenario, sol, cache = _formation(agents)
    for ids in _sets_below_the_state_dimension(scenario, 12, agents):
        want = support.joseph_objective(scenario, sol, ids)
        assert cache.f(ids) == pytest.approx(want, rel=1e-13, abs=0.0), ids
        posts = cache.trajectory(ids).posteriors
        joseph = np.array(support.joseph_posteriors(scenario, ids))
        scale = np.abs(joseph).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(posts - joseph) <= 1e-13 * scale), ids


def test_measurement_form_value_does_not_depend_on_its_batch(monkeypatch):
    scenario, sol, batched = _formation(4)
    m = len(scenario.suite)
    small = [support.mask_of(ids) for ids in _sets_below_the_state_dimension(scenario, 40, 1)]
    rng = np.random.default_rng(2)
    large = [int(mask) for mask in rng.integers(0, 1 << m, size=20)]
    masks = [int(mask) for mask in rng.permutation(small + large + [0, (1 << m) - 1])]
    assert {support.row_count(scenario, kalman._mask_ids(mask)) for mask in masks} >= {
        None, 2, 6, 14}
    monkeypatch.setattr(kalman, "_BATCH_FLOATS", 5 * scenario.state_dim ** 2)
    values = batched.f_many(masks), batched.logdet_many(masks)
    monkeypatch.undo()
    for mask, f, logdet in zip(masks, *values):
        single = lq.ObjectiveCache(scenario, sol)
        ids = kalman._mask_ids(mask)
        assert (single.f(ids), single.logdet(ids)) == (f, logdet), ids
        assert lq.sensing_objective(sol, single.trajectory(ids)) == f


def _information_form_trajectory(cache, key):
    """post = solve(I + prior J, prior), J summed in class order, one set and step at a time."""
    system = cache.scenario.system
    T, n = system.horizon, system.state_dim
    bank = np.broadcast_to(cache._bank, (len(cache._bank), T, n, n))  # one step or T
    prior = system.sigma_init
    priors, posts = [], []
    for t in range(T):
        info = np.zeros((n, n))
        for j, c in enumerate(key):
            info = bank[c, t] if j == 0 else info + bank[c, t]
        priors.append(prior)
        posts.append(symmetrize(np.linalg.solve(prior @ info + np.eye(n), prior)))
        prior = symmetrize(system.A[t] @ posts[-1] @ system.A[t].T + system.W[t])
    return lq.CovarianceTrajectory(priors=np.array(priors), posteriors=np.array(posts))


@pytest.mark.parametrize("build", [lambda: lq.build_formation_scenario(4, 20, "heterogeneous", 7),
                                   lambda: lq.build_formation_scenario(8, 20, "heterogeneous", 7),
                                   lambda: lq.build_uav_scenario(9, 20, "heterogeneous", 7)],
                         ids=["formation-a4", "formation-a8", "uav-a9"])
def test_empty_and_full_sets_keep_the_information_form(build):
    scenario, sol, cache = support.solved(build())
    for ids in ((), scenario.suite.ids):
        key = support.class_key(support.mask_of(ids), cache._class)
        assert support.row_count(scenario, ids) is None
        want = _information_form_trajectory(cache, key)
        got = cache.trajectory(ids)
        np.testing.assert_array_equal(got.priors, want.priors)
        np.testing.assert_array_equal(got.posteriors, want.posteriors)
        assert cache.f(ids) == lq.sensing_objective(sol, want)
