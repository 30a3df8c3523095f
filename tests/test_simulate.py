"""Closed-loop rollouts, Monte Carlo summaries, and the two scenario builders."""

import numpy as np
import pytest

import lqgcodesign as lq
from lqgcodesign import kalman, simulate
from lqgcodesign._linalg import psd_sqrt, symmetrize

import support


def test_rollout_deterministic():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    one, = lq.run_closed_loop(cache, (0,), [5])
    two, = lq.run_closed_loop(cache, (0,), [5])
    assert one.realized_cost == two.realized_cost
    for a, b in zip(one.states, two.states):
        assert np.array_equal(a, b)
    for a, b in zip(one.controls, two.controls):
        assert np.array_equal(a, b)
    assert one.seed == 5


def test_rollout_seeds_differ():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    one, other = lq.run_closed_loop(cache, (0,), (5, 6))
    assert (one.seed, other.seed) == (5, 6)
    assert one.realized_cost != other.realized_cost


def test_rollout_shapes():
    scenario, sol, cache = support.solved(support.random_scenario(31, zero_mean=True))
    record, = lq.run_closed_loop(cache, scenario.suite.ids, [0])
    horizon = scenario.horizon
    assert len(record.states) == horizon + 1
    assert len(record.estimates) == horizon
    assert len(record.controls) == horizon
    assert record.states[0].shape == (scenario.state_dim,)


def test_controls_follow_gain():
    scenario, sol, cache = support.solved(support.random_scenario(32))
    record, = lq.run_closed_loop(cache, scenario.suite.ids, [1])
    for t in range(scenario.horizon):
        np.testing.assert_allclose(record.controls[t],
                                   sol.K[t] @ record.estimates[t], atol=1e-12)


def test_near_perfect_sensing_attains_mean_cost():
    # no process noise and an almost exact sensor: realized cost must land
    # on x1' N[0] x1 for the realized draw
    system = lq.LtvSystem(horizon=1, state_dim=1, A=[[1.0]], B=[[1.0]],
                          W=[[0.0]], sigma_init=[[1.0]])
    sensor = lq.Sensor.time_invariant(0, [[1.0]], [[1e-10]], 1.0, 1)
    scenario = lq.Scenario(system=system,
                           suite=lq.SensorSuite(sensors=(sensor,), state_dim=1),
                           weights=support.scalar_weights())
    scenario, sol, cache = support.solved(scenario)
    record, = lq.run_closed_loop(cache, (0,), [11])
    x1 = float(record.states[0][0])
    assert record.realized_cost == pytest.approx(0.5 * x1 * x1, abs=1e-4)


def test_monte_carlo_matches_analytic_scalar():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    summary = lq.monte_carlo(cache, (0,), runs=800, base_seed=100)
    assert summary.analytical_g == pytest.approx(0.75, abs=1e-12)
    assert summary.run_count == 800
    assert abs(summary.mean_cost - 0.75) <= 3.0 * summary.std_error
    assert summary.std_error > 0.0


def test_monte_carlo_single_run_has_zero_stderr():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    summary = lq.monte_carlo(cache, (0,), runs=1, base_seed=9)
    assert summary.std_error == 0.0
    assert summary.run_count == 1


def test_monte_carlo_mean_is_plain_average_of_rollouts():
    scenario, sol, cache = support.solved(support.random_scenario(33))
    ids = scenario.suite.ids[:1]
    summary = lq.monte_carlo(cache, ids, runs=5, base_seed=40)
    costs = [record.realized_cost for record in lq.run_closed_loop(cache, ids, range(40, 45))]
    assert summary.mean_cost == pytest.approx(np.mean(costs), abs=1e-12)
    assert summary.std_error == pytest.approx(
        np.std(costs, ddof=1) / np.sqrt(5), abs=1e-12)


def test_monte_carlo_extends_previous_runs():
    # doubling the run count with the same base seed reuses the first half:
    # the draws bit for bit, the costs to roundoff (the batch shape differs)
    scenario, sol, cache = support.solved(support.random_scenario(33))
    ids = scenario.suite.ids
    draws = simulate.ClosedLoopSimulator(cache, ids)._draws
    assert np.array_equal(simulate._normals(range(60, 66), draws)[:3],
                          simulate._normals(range(60, 63), draws))
    short = [record.realized_cost for record in lq.run_closed_loop(cache, ids, range(60, 63))]
    extended = lq.run_closed_loop(cache, ids, range(60, 66))
    assert [record.seed for record in extended] == list(range(60, 66))
    np.testing.assert_allclose([record.realized_cost for record in extended[:3]], short,
                               rtol=1e-12, atol=0.0)


def test_monte_carlo_rejects_bad_runs():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    with pytest.raises(ValueError):
        lq.monte_carlo(cache, (0,), runs=0, base_seed=1)


def test_rollout_rejects_a_solution_of_another_horizon():
    scenario = support.scalar_two_sensor_scenario()
    other = lq.build_uav_scenario(1, 3, "uniform", 0)
    sol = lq.solve_riccati(other.system, other.weights)
    with pytest.raises(ValueError, match="horizon"):
        lq.ObjectiveCache(scenario, sol)


def test_empty_set_rollout():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    record, = lq.run_closed_loop(cache, (), [2])
    # no measurements: the estimate is the prior mean, zero here
    assert record.estimates[0] == pytest.approx(np.zeros(1))
    summary = lq.monte_carlo(cache, (), runs=400, base_seed=7)
    assert abs(summary.mean_cost - 1.0) <= 3.5 * summary.std_error


def _rel(actual, expected) -> float:
    """Largest deviation relative to the norm of the expected trajectory."""
    scale = max(np.linalg.norm(expected), 1e-300)
    return float(np.linalg.norm(np.asarray(actual) - expected)) / scale


def _rollout_cases():
    for seed in range(12):
        scenario = support.random_scenario(seed)
        ids = scenario.suite.ids
        yield f"random-{seed}", scenario, (ids, (), ids[:1], ids[1::2])
    formation = lq.build_formation_scenario(agents=2, horizon=6, seed=2)
    yield "formation-a2", formation, (formation.suite.ids, (), (0, 2, 3))
    uav = lq.build_uav_scenario(landmarks=3, horizon=6, cost_mode="heterogeneous", seed=4)
    yield "uav-a3", uav, (uav.suite.ids, (), (0, 1), (1, 4))


def test_rollout_matches_the_information_form_reference():
    # the gain-form batched rollout against the per-run information-form loop
    mixed = 0
    for name, scenario, id_sets in _rollout_cases():
        scenario, sol, cache = support.solved(scenario)
        for ids in id_sets:
            dims = {scenario.suite.sensor(i).output_dim for i in ids}
            mixed += len(dims) > 1
            records = lq.run_closed_loop(cache, ids, (0, 17))
            for seed, record in zip((0, 17), records):
                states, estimates, controls, cost = support.reference_rollout(
                    scenario, sol, ids, seed)
                case = (name, ids, seed)
                assert _rel(record.states, states) <= 1e-12, case
                assert _rel(record.estimates, estimates) <= 1e-12, case
                assert _rel(record.controls, controls) <= 1e-12, case
                assert record.realized_cost == pytest.approx(cost, rel=1e-12), case
    assert mixed >= 3


def test_run_closed_loop_takes_any_iterable_of_seeds_once():
    scenario, sol, cache = support.solved(support.scalar_two_sensor_scenario())
    assert lq.run_closed_loop(cache, (0,), []) == ()
    assert lq.run_closed_loop(cache, (0,), iter(())) == ()
    from_generator = lq.run_closed_loop(cache, (0,), (seed for seed in (3, 4, 5)))
    from_range = lq.run_closed_loop(cache, (0,), range(3, 6))
    assert [record.seed for record in from_generator] == [3, 4, 5]
    assert [record.realized_cost for record in from_generator] == \
        [record.realized_cost for record in from_range]
    with pytest.raises(lq.ValidationError):
        lq.run_closed_loop(cache, (7,), [])


def test_a_batch_of_one_agrees_with_the_whole_batch():
    # the draws are the same; the BLAS products may see the batch shape, so
    # the runs agree to roundoff, not bit for bit
    scenario, sol, cache = support.solved(lq.build_formation_scenario(3, 6, seed=2))
    ids = scenario.suite.ids
    whole = lq.run_closed_loop(cache, ids, range(7, 47))
    for record in whole:
        alone, = lq.run_closed_loop(cache, ids, [record.seed])
        for field in ("states", "estimates", "controls"):
            assert _rel(getattr(alone, field), getattr(record, field)) <= 1e-12, record.seed
        assert alone.realized_cost == pytest.approx(record.realized_cost, rel=1e-12, abs=0.0)


def test_rollouts_agree_with_the_propagate_covariance_gains():
    # the gains now come from cache.trajectory, which sums class rows in class
    # order; on sets whose class order differs from id order only roundoff moves
    formation = lq.build_formation_scenario(3, 6, seed=2)
    uav = lq.build_uav_scenario(landmarks=3, horizon=6, cost_mode="heterogeneous", seed=4)
    cases = ((formation, [(4, 5), (4, 5, 6), (0, 4, 5), (1, 4, 5, 6, 8)]),
             (uav, [(0, 2, 4), uav.suite.ids]))
    for scenario, id_sets in cases:
        scenario, sol, cache = support.solved(scenario)
        for ids in id_sets:
            sim = simulate.ClosedLoopSimulator(cache, ids)
            reference = support.reference_simulator(cache, ids)
            draws = simulate._normals(range(3, 9), sim._draws)
            *paths, costs = sim._rollouts(draws)
            *want_paths, want_costs = reference._rollouts(draws)
            for path, want in zip(paths, want_paths):
                assert _rel(path, want) <= 1e-12, ids
            np.testing.assert_allclose(costs, want_costs, rtol=1e-12, atol=0.0)


def test_monte_carlo_many_whitens_nothing_on_a_built_cache(monkeypatch):
    scenario, sol, cache = support.solved(lq.build_formation_scenario(3, 6, seed=2))
    whiten = kalman.whiten_sensor
    calls = []

    def counted(sensor):
        calls.append(sensor.id)
        return whiten(sensor)

    monkeypatch.setattr(kalman, "whiten_sensor", counted)
    lq.monte_carlo_many(cache, [(4, 5, 6), (), scenario.suite.ids], runs=3, base_seed=1)
    assert calls == []


def test_one_draw_equals_the_per_sensor_draws():
    # a run's single standard_normal call yields the documented per-call sequence
    dims, n, horizon = (2, 1, 3), 4, 5
    total = n + horizon * (sum(dims) + n)
    for seed in (0, 1, 123456789):
        rng = np.random.Generator(np.random.Philox(seed))
        calls = [rng.standard_normal(n)]
        for _ in range(horizon):
            calls.extend(rng.standard_normal(p) for p in dims)
            calls.append(rng.standard_normal(n))
        one = np.random.Generator(np.random.Philox(seed)).standard_normal(total)
        assert np.array_equal(np.concatenate(calls), one)


def test_a_shorter_draw_is_a_prefix_of_a_longer_one():
    # monte_carlo_many draws each seed once, at the longest set's length, and each
    # set reads a prefix; here every length a formation a4 sweep can use
    scenario = lq.build_formation_scenario(agents=4, horizon=20, seed=7)
    n, horizon = scenario.state_dim, scenario.horizon
    widths = [scenario.suite.sensor(i).output_dim for i in scenario.suite.ids]
    lengths = [n + horizon * (sum(widths[:size]) + n) for size in range(len(widths) + 1)]
    longest = max(lengths)
    for seed in (0, 1, 7, 11, 123456789):
        draw = np.random.Generator(np.random.Philox(seed)).standard_normal(longest)
        for k in lengths:
            alone = np.random.Generator(np.random.Philox(seed)).standard_normal(k)
            assert np.array_equal(draw[:k], alone), (seed, k)


@pytest.mark.parametrize("per_batch, sizes", [(3, [2, 3, 2, 3]), (9, [5, 5])])
def test_monte_carlo_batches_agree_with_one_batch(monkeypatch, per_batch, sizes):
    rollouts = simulate.ClosedLoopSimulator._rollouts
    seen = []

    def recorded(self, seeds):
        seen.append(len(seeds))
        return rollouts(self, seeds)

    for scenario in (support.random_scenario(5),
                     lq.build_uav_scenario(landmarks=2, horizon=4, seed=1)):
        sol, ids = lq.solve_riccati(scenario.system, scenario.weights), scenario.suite.ids
        monkeypatch.setattr(simulate.ClosedLoopSimulator, "_rollouts", recorded)
        seen.clear()
        whole = lq.monte_carlo(lq.ObjectiveCache(scenario, sol), ids, runs=10, base_seed=3)
        assert seen == [10]
        # a cap of per_batch runs' draws splits the ten runs into near-equal batches
        draws = simulate.ClosedLoopSimulator(lq.ObjectiveCache(scenario, sol), ids)._draws
        monkeypatch.setattr(simulate, "_DRAW_FLOATS", per_batch * draws)
        seen.clear()
        split = lq.monte_carlo(lq.ObjectiveCache(scenario, sol), ids, runs=10, base_seed=3)
        monkeypatch.undo()
        assert seen == sizes
        assert split.run_count == whole.run_count == 10
        assert split.mean_cost == pytest.approx(whole.mean_cost, rel=1e-12)
        assert split.std_error == pytest.approx(whole.std_error, rel=1e-12)
        assert split.analytical_g == whole.analytical_g


def _many_cases():
    formation = lq.build_formation_scenario(agents=2, horizon=6, seed=2)
    yield formation, [formation.suite.ids, (), (0, 2, 3), (3, 2, 0), (1,), formation.suite.ids]
    uav = lq.build_uav_scenario(landmarks=3, horizon=6, cost_mode="heterogeneous", seed=4)
    yield uav, [(0, 1), uav.suite.ids, (), (1, 4), (1, 0)]


def test_monte_carlo_many_equals_per_set_monte_carlo():
    for scenario, id_sets in _many_cases():
        scenario, sol, cache = support.solved(scenario)
        for runs, base_seed in ((1, 5), (40, 3)):
            many = lq.monte_carlo_many(cache, id_sets, runs=runs, base_seed=base_seed)
            assert len(many) == len(id_sets)
            for ids, summary in zip(id_sets, many):
                assert summary == support.reference_monte_carlo(cache, ids, runs, base_seed)
                assert summary == lq.monte_carlo(cache, ids, runs=runs, base_seed=base_seed)


def test_monte_carlo_many_batches_agree_with_per_set_batches(monkeypatch):
    # batches are sized by the longest set, so a shorter set splits its runs
    # otherwise than it does alone; the summaries agree to roundoff
    rollouts = simulate.ClosedLoopSimulator._rollouts
    seen = {}

    def recorded(self, draws):
        seen.setdefault(self.chosen, []).append(len(draws))
        return rollouts(self, draws)

    monkeypatch.setattr(simulate.ClosedLoopSimulator, "_rollouts", recorded)
    for scenario, id_sets in _many_cases():
        scenario, sol, cache = support.solved(scenario)
        longest = simulate.ClosedLoopSimulator(cache, scenario.suite.ids)._draws
        monkeypatch.setattr(simulate, "_DRAW_FLOATS", 3 * longest)
        seen.clear()
        many = lq.monte_carlo_many(cache, id_sets, runs=10, base_seed=3)
        assert all(sizes == [2, 3, 2, 3] for sizes in seen.values())
        seen.clear()
        alone = [support.reference_monte_carlo(cache, ids, 10, 3) for ids in id_sets]
        assert seen[()] != [2, 3, 2, 3]
        for summary, reference in zip(many, alone):
            assert summary.run_count == reference.run_count == 10
            assert summary.mean_cost == pytest.approx(reference.mean_cost, rel=1e-12)
            assert summary.std_error == pytest.approx(reference.std_error, rel=1e-12)
            assert summary.analytical_g == reference.analytical_g


def test_a_repeated_set_builds_one_simulator(monkeypatch):
    built = []

    class Counted(simulate.ClosedLoopSimulator):
        def __init__(self, cache, ids):
            super().__init__(cache, ids)
            built.append(self.chosen)

    monkeypatch.setattr(simulate, "ClosedLoopSimulator", Counted)
    scenario, sol, cache = support.solved(lq.build_formation_scenario(agents=2, horizon=4, seed=1))
    many = lq.monte_carlo_many(cache, [(0, 1), (1, 0), [1, 1, 0], (), (0, 1, 2)], runs=6,
                               base_seed=2)
    assert built == [(0, 1), (), (0, 1, 2)]
    assert many[0] == many[1] == many[2] != many[3]
    assert lq.monte_carlo_many(cache, [], runs=6, base_seed=2) == []


def test_each_seed_makes_one_generator_per_batch(monkeypatch):
    philox = np.random.Philox
    seeds = []

    def counted(seed):
        seeds.append(seed)
        return philox(seed)

    scenario, sol, cache = support.solved(lq.build_uav_scenario(landmarks=2, horizon=4, seed=1))
    id_sets = [scenario.suite.ids, (), (0, 2), (1,)]
    longest = simulate.ClosedLoopSimulator(cache, scenario.suite.ids)._draws
    monkeypatch.setattr(simulate, "_DRAW_FLOATS", 4 * longest)
    monkeypatch.setattr(np.random, "Philox", counted)
    lq.monte_carlo_many(cache, id_sets, runs=11, base_seed=20)
    assert seeds == list(range(20, 31))


def test_formation_builder_shapes():
    scenario = lq.build_formation_scenario(agents=4, horizon=10, seed=0)
    assert scenario.state_dim == 16
    assert scenario.horizon == 10
    assert len(scenario.suite) == 16  # 4 receivers + 12 ordered pairs
    gps = scenario.suite.sensor(0)
    assert gps.C[0].shape == (2, 16)
    np.testing.assert_array_equal(gps.V[0], 2.0 * np.eye(2))
    relative = scenario.suite.sensor(4)
    np.testing.assert_array_equal(relative.V[0], 0.1 * np.eye(2))
    assert all(s.cost == 1.0 for s in scenario.suite)


def test_formation_builder_dynamics_block():
    scenario = lq.build_formation_scenario(agents=2, horizon=3, seed=1)
    A = scenario.system.A[0]
    # per-agent double integrator: position row picks up velocity
    assert A[0, 2] == pytest.approx(1.0)
    assert A[2, 2] == pytest.approx(1.0)
    assert A[0, 4] == 0.0  # no cross-agent coupling
    W = scenario.system.W[0]
    np.testing.assert_allclose(np.diag(W)[:4], [1e-2, 1e-2, 1e-4, 1e-4])


def test_formation_relative_rows_difference():
    scenario = lq.build_formation_scenario(agents=2, horizon=2, seed=3)
    pair = scenario.suite.sensor(2)  # first ordered pair (0, 1)
    C = pair.C[0]
    state = np.arange(8.0)
    measured = C @ state
    # position of the observed agent relative to the observing one
    np.testing.assert_allclose(measured, state[4:6] - state[0:2])


def test_formation_heterogeneous_weights():
    scenario = lq.build_formation_scenario(agents=3, horizon=2,
                                           mode="heterogeneous", seed=0)
    Q = scenario.weights.Q[0]
    np.testing.assert_array_equal(Q[:4, :4], 10.0 * np.eye(4))
    np.testing.assert_array_equal(Q[4:8, 4:8], 0.1 * np.eye(4))


def test_formation_builder_seed_determinism():
    one = lq.build_formation_scenario(agents=3, horizon=4, seed=9)
    two = lq.build_formation_scenario(agents=3, horizon=4, seed=9)
    assert np.array_equal(one.system.x1_mean, two.system.x1_mean)
    other = lq.build_formation_scenario(agents=3, horizon=4, seed=10)
    assert not np.array_equal(one.system.x1_mean, other.system.x1_mean)


def test_formation_mean_deviations_bounded():
    scenario = lq.build_formation_scenario(agents=5, horizon=2, seed=4)
    mean = scenario.system.x1_mean.reshape(5, 4)
    # positions land in [0,10]^2 and targets on a radius-2 ring around (5,5)
    assert np.all(np.abs(mean[:, :2]) <= 7.0 + 1e-12)
    np.testing.assert_array_equal(mean[:, 2:], 0.0)


def test_formation_rejects_unknown_mode():
    with pytest.raises(ValueError):
        lq.build_formation_scenario(agents=2, horizon=2, mode="mixed", seed=0)


@pytest.mark.parametrize("horizon", [0, -1])
def test_builders_reject_a_horizon_below_one(horizon):
    with pytest.raises(ValueError, match="^horizon must be at least 1$"):
        lq.build_formation_scenario(agents=2, horizon=horizon, seed=0)
    with pytest.raises(ValueError, match="^horizon must be at least 1$"):
        lq.build_uav_scenario(landmarks=1, horizon=horizon, seed=0)


def test_uav_builder_shapes():
    scenario = lq.build_uav_scenario(landmarks=5, horizon=8,
                                     cost_mode="heterogeneous", seed=0)
    assert scenario.state_dim == 6
    assert len(scenario.suite) == 7
    assert lq.set_cost(scenario.suite, (0, 1)) == 5.0  # GPS 3 + altimeter 2
    assert lq.set_cost(scenario.suite, range(7)) == 10.0
    gps = scenario.suite.sensor(0)
    np.testing.assert_array_equal(gps.V[0], 2.0 * np.eye(3))
    altimeter = scenario.suite.sensor(1)
    np.testing.assert_array_equal(altimeter.C[0], [[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(altimeter.V[0], [[0.25]])


def test_uav_uniform_costs():
    scenario = lq.build_uav_scenario(landmarks=3, horizon=4, seed=2)
    assert all(s.cost == 1.0 for s in scenario.suite)


def test_uav_landmark_noise_positive_definite():
    scenario = lq.build_uav_scenario(landmarks=6, horizon=3, seed=5)
    for i in range(2, 8):
        V = scenario.suite.sensor(i).V[0]
        assert np.linalg.eigvalsh(V).min() >= 0.1 - 1e-12


def test_uav_rejects_unknown_cost_mode():
    with pytest.raises(ValueError):
        lq.build_uav_scenario(landmarks=2, horizon=2, cost_mode="fancy", seed=0)


def test_builders_round_trip_and_run():
    for scenario in (lq.build_formation_scenario(agents=2, horizon=5, seed=6),
                     lq.build_uav_scenario(landmarks=3, horizon=5, seed=6)):
        data = lq.scenario_to_dict(scenario)
        again = lq.scenario_from_dict(data)
        sol = lq.solve_riccati(again.system, again.weights)
        cache = lq.ObjectiveCache(again, sol)
        assert np.isfinite(cache.f(again.suite.ids))


def test_stacked_psd_sqrt_matches_per_matrix_formula():
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 8):
        # full-rank, rank-deficient and zero steps, so the clip at 0 is exercised
        stack = np.stack([support.random_psd(rng, n), support.random_psd(rng, n, ridge=1.0),
                          np.zeros((n, n))] + [g.T @ g for g in rng.normal(size=(3, 1, n))])
        for w, root in zip(stack, psd_sqrt(stack)):
            vals, vecs = np.linalg.eigh(symmetrize(w))
            want = symmetrize((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T)
            assert np.array_equal(root, want)
