"""Backward regulator recursion: frozen values, identities, diagnostics."""

import numpy as np
import pytest

import lqgcodesign as lq
from lqgcodesign._linalg import symmetrize

import support


def test_scalar_recursion_values():
    system = support.scalar_system()
    sol = lq.solve_riccati(system, support.scalar_weights())
    assert sol.S[0] == pytest.approx(np.array([[1.0]]))
    assert sol.M[0] == pytest.approx(np.array([[2.0]]))
    assert sol.K[0] == pytest.approx(np.array([[-0.5]]))
    assert sol.theta[0] == pytest.approx(np.array([[0.5]]))
    assert sol.N[0] == pytest.approx(np.array([[0.5]]))


def test_two_step_identity_plant_values():
    n = 2
    eye = np.eye(n)
    system = lq.LtvSystem(horizon=2, state_dim=n, A=[eye, eye], B=[eye, eye],
                          W=[eye, eye], sigma_init=eye)
    weights = lq.LqgWeights(horizon=2, Q=[eye, eye], R=[eye, eye])
    sol = lq.solve_riccati(system, weights)
    # final step matches the one-step solution, first step absorbs N of it
    np.testing.assert_allclose(sol.S[1], eye, atol=1e-12)
    np.testing.assert_allclose(sol.N[1], 0.5 * eye, atol=1e-12)
    np.testing.assert_allclose(sol.M[1], 2.0 * eye, atol=1e-12)
    np.testing.assert_allclose(sol.K[1], -0.5 * eye, atol=1e-12)
    np.testing.assert_allclose(sol.theta[1], 0.5 * eye, atol=1e-12)
    np.testing.assert_allclose(sol.S[0], 1.5 * eye, atol=1e-12)
    np.testing.assert_allclose(sol.M[0], 2.5 * eye, atol=1e-12)
    np.testing.assert_allclose(sol.K[0], -0.6 * eye, atol=1e-12)
    np.testing.assert_allclose(sol.theta[0], 0.9 * eye, atol=1e-12)
    np.testing.assert_allclose(sol.N[0], 0.6 * eye, atol=1e-12)


def test_zero_state_weight_gives_zero_gain():
    system = support.scalar_system()
    weights = lq.LqgWeights(horizon=1, Q=[[0.0]], R=[[1.0]])
    sol = lq.solve_riccati(system, weights)
    assert sol.K[0] == pytest.approx(np.zeros((1, 1)))
    assert sol.theta[0] == pytest.approx(np.zeros((1, 1)))
    assert sol.N[0] == pytest.approx(np.zeros((1, 1)))


def test_woodbury_closed_form_agreement():
    # with S[t] invertible, N[t-1] equals A' (S^-1 + B R^-1 B')^-1 A
    for seed in range(12):
        scenario = support.random_scenario(seed + 400, pd_q=True, invertible=True)
        system, weights = scenario.system, scenario.weights
        sol = lq.solve_riccati(system, weights)
        for t in range(system.horizon):
            inner = np.linalg.inv(np.linalg.inv(sol.S[t])
                                  + system.B[t] @ np.linalg.inv(weights.R[t]) @ system.B[t].T)
            expected = system.A[t].T @ inner @ system.A[t]
            np.testing.assert_allclose(sol.N[t], expected, atol=1e-8, rtol=1e-8)


def test_step_coupling_identity():
    # theta[t] = A[t]' S[t] A[t] + Q[t-1] - S[t-1] for every interior step
    for seed in range(12):
        scenario = support.random_scenario(seed + 500)
        system, weights = scenario.system, scenario.weights
        sol = lq.solve_riccati(system, weights)
        for t in range(1, system.horizon):
            lhs = sol.theta[t]
            rhs = system.A[t].T @ sol.S[t] @ system.A[t] + weights.Q[t - 1] - sol.S[t - 1]
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_solution_exactly_symmetric():
    scenario = support.random_scenario(77)
    sol = lq.solve_riccati(scenario.system, scenario.weights)
    for seq in (sol.S, sol.N, sol.theta):
        for mat in seq:
            assert np.array_equal(mat, mat.T)


def test_solver_deterministic():
    scenario = support.random_scenario(78)
    one = lq.solve_riccati(scenario.system, scenario.weights)
    two = lq.solve_riccati(scenario.system, scenario.weights)
    for name in ("S", "N", "M", "K", "theta"):
        first, second = getattr(one, name), getattr(two, name)
        assert len(first) == len(second) == scenario.horizon
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


def test_singular_input_cost_raises():
    system = lq.LtvSystem(horizon=1, state_dim=1, A=[[1.0]],
                          B=[[0.0, 0.0]], W=[[0.0]], sigma_init=[[1.0]])
    weights = lq.LqgWeights(horizon=1, Q=[[1.0]],
                            R=[[1e6, 0.0], [0.0, 1e-7]])
    with pytest.raises(lq.NumericalError, match="time index 0"):
        lq.solve_riccati(system, weights)


def test_overflowing_recursion_raises_at_the_first_non_finite_step():
    # N grows a hundredfold per step back from the horizon: N[400 - k] is about
    # 100^k, past the float maximum at k = 155
    scenario = lq.scenario_from_dict(support.overflowing_riccati_scenario_dict())
    with pytest.raises(lq.NumericalError, match="not finite at time index 245;"):
        lq.solve_riccati(scenario.system, scenario.weights)


@pytest.mark.parametrize("horizon", [400, 160])
def test_overflowing_open_loop_maps_raise(horizon):
    # actuated, so the Riccati recursion stays finite; the open-loop cost term
    # U[t+1]' Q U[t+1] = 10^(2t + 2) overflows at t = 154, whether the map 10^t
    # itself overflows later in the horizon (400) or never does (160)
    data = support.scalar_scenario_dict()
    data.update(horizon=horizon, A=[[10.0]], B=[[1.0]])
    scenario = lq.scenario_from_dict(data)
    sol = lq.solve_riccati(scenario.system, scenario.weights)
    for diagnostic in (lq.zero_control_suboptimal, lq.cascade_identity_residual):
        with pytest.raises(lq.NumericalError, match="open-loop cost not finite at time index "
                           "154; the pulled-back weights overflowed"):
            diagnostic(scenario.system, scenario.weights, sol)


def test_theta_sum_flag_scalar():
    sol = lq.solve_riccati(support.scalar_system(), support.scalar_weights())
    positive, smallest = lq.theta_sum_positive_definite(sol)
    assert positive
    assert smallest == pytest.approx(0.5)


def test_theta_sum_flag_zero_weight():
    system = support.scalar_system()
    weights = lq.LqgWeights(horizon=1, Q=[[0.0]], R=[[1.0]])
    positive, smallest = lq.theta_sum_positive_definite(lq.solve_riccati(system, weights))
    assert not positive
    assert smallest == pytest.approx(0.0, abs=1e-15)


def test_zero_control_flag_scalar():
    system = support.scalar_system()
    weights = support.scalar_weights()
    sol = lq.solve_riccati(system, weights)
    assert lq.zero_control_suboptimal(system, weights, sol)


def test_zero_control_flag_zero_weight():
    system = support.scalar_system()
    weights = lq.LqgWeights(horizon=1, Q=[[0.0]], R=[[1.0]])
    sol = lq.solve_riccati(system, weights)
    assert not lq.zero_control_suboptimal(system, weights, sol)


def test_zero_control_needs_invertible_state_maps():
    system = lq.LtvSystem(horizon=1, state_dim=1, A=[[0.0]], B=[[1.0]],
                          W=[[0.0]], sigma_init=[[1.0]])
    weights = support.scalar_weights()
    sol = lq.solve_riccati(system, weights)
    with pytest.raises(lq.NumericalError, match="state matrix A"):
        lq.zero_control_suboptimal(system, weights, sol)


def test_cascade_identity_residual_small():
    for seed in range(20):
        scenario = support.random_scenario(seed + 600, max_state=6, max_horizon=8,
                                           invertible=True)
        residual = lq.cascade_identity_residual(
            scenario.system, scenario.weights,
            lq.solve_riccati(scenario.system, scenario.weights))
        assert residual < 1e-8


def test_flags_agree_on_generic_instances():
    for seed in range(20):
        zero_q = seed % 5 == 4
        scenario = support.random_scenario(seed + 700, max_state=6, max_horizon=8,
                                           invertible=True, pd_q=not zero_q,
                                           zero_q=zero_q, min_theta_rank=True)
        sol = lq.solve_riccati(scenario.system, scenario.weights)
        positive, _ = lq.theta_sum_positive_definite(sol)
        assert positive == lq.zero_control_suboptimal(scenario.system, scenario.weights, sol)


def test_plant_weight_and_regulator_fields_are_read_only_stacks():
    scenario = support.random_scenario(79)
    T, n = scenario.horizon, scenario.state_dim
    sol = lq.solve_riccati(scenario.system, scenario.weights)
    for stack in (scenario.system.A, scenario.system.W, scenario.weights.Q,
                  sol.S, sol.N, sol.theta):
        assert stack.shape == (T, n, n)
        assert not stack.flags.writeable
    for seq in (scenario.system.B, scenario.weights.R, sol.M, sol.K):
        assert isinstance(seq, tuple) and len(seq) == T


def _per_step_diagnostics(system, weights, sol):
    """Smallest eigenvalue of the theta sum, zero-control flag and cascade residual,
    by the per-step loops the stacked forms replace."""
    n = system.state_dim
    lam_min = float(np.linalg.eigvalsh(symmetrize(sum(sol.theta[t] for t in range(sol.horizon))))[0])
    open_loop, pulled = np.zeros((n, n)), np.zeros((n, n))
    u_t = np.eye(n)
    for t in range(system.horizon):
        pulled += u_t.T @ sol.theta[t] @ u_t
        u_t = system.A[t] @ u_t
        open_loop += u_t.T @ weights.Q[t] @ u_t
    gap = symmetrize(open_loop) - sol.N[0]
    zero_control = float(np.linalg.eigvalsh(symmetrize(gap))[0]) > 1e-9
    return lam_min, zero_control, float(np.linalg.norm(symmetrize(pulled) - gap, ord="fro"))


def test_stacked_diagnostics_match_per_step_loops():
    for seed in range(60):
        zero_q = seed % 5 == 4
        scenario = support.random_scenario(seed + 800, max_state=6, max_horizon=24,
                                           invertible=True, zero_q=zero_q,
                                           min_theta_rank=True)
        system, weights = scenario.system, scenario.weights
        sol = lq.solve_riccati(system, weights)
        lam_min, zero_control, residual = _per_step_diagnostics(system, weights, sol)
        assert lq.theta_sum_positive_definite(sol) == (lam_min > 1e-9, lam_min)
        assert lq.zero_control_suboptimal(system, weights, sol) == zero_control
        assert lq.cascade_identity_residual(system, weights, sol) == residual
