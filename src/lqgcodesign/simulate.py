"""Closed-loop rollouts, Monte Carlo estimation, and benchmark scenarios.

The rollout applies the separation structure directly: the Kalman filter
(information form, matched to ``propagate_covariance``) produces the state
estimate, and the precomputed regulator gain acts on that estimate.  All
randomness comes from numpy's Philox counter-based generator, so a run is
a pure function of (scenario, sensor set, seed) and Monte Carlo batches
are reproducible run-by-run: run r of a batch uses seed ``base_seed + r``.

Per run the draw order is fixed: the initial state first, then per step
the measurement noise of each selected sensor in ascending id order,
then the process noise.

Two scenario families mirror common co-design benchmarks: a planar
formation with GPS and pairwise relative-position sensing, and a UAV
landing task with GPS, an altimeter, and noisy landmark fixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import block_diag, frozen, psd_sqrt, sym_inverse
from .kalman import ObjectiveCache, optimal_lqg_cost, propagate_covariance
from .model import LqgWeights, LtvSystem, Scenario, Sensor, SensorSuite, chosen_ids
from .riccati import RiccatiSolution


@dataclass(frozen=True)
class SimulationRecord:
    """One closed-loop trajectory and its realized quadratic cost."""

    run_id: int
    seed: int
    states: tuple[np.ndarray, ...] = field(repr=False)
    estimates: tuple[np.ndarray, ...] = field(repr=False)
    controls: tuple[np.ndarray, ...] = field(repr=False)
    realized_cost: float


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregate of a batch of rollouts for one sensor set."""

    method: str
    mean_cost: float
    std_error: float
    run_count: int
    analytical_g: float


class ClosedLoopSimulator:
    """Reusable rollout engine for one (scenario, sensor set) pair.

    Factors, inverses, and filter covariances are prepared once; ``run``
    then only draws noise and iterates the loop.
    """

    def __init__(self, scenario: Scenario, sol: RiccatiSolution, ids):
        if sol.horizon != scenario.horizon:
            raise ValueError("solution horizon does not match scenario horizon")
        self.scenario = scenario
        self.sol = sol
        self.chosen = chosen_ids(scenario.suite, ids)
        self.traj = propagate_covariance(scenario, self.chosen)
        sys_ = scenario.system
        T = sys_.horizon
        self._x1_sqrt = psd_sqrt(sys_.sigma_init)
        self._w_sqrt = [psd_sqrt(sys_.W[t]) for t in range(T)]
        if self.chosen:
            self._prior_inv = [sym_inverse(p) for p in self.traj.priors]
        else:
            self._prior_inv = None
        self._noise_factor = {}
        self._info_gain = {}
        for i in self.chosen:
            s = scenario.suite.sensor(i)
            self._noise_factor[i] = [np.linalg.cholesky(s.V[t]) for t in range(T)]
            self._info_gain[i] = [s.C[t].T @ np.linalg.inv(s.V[t]) for t in range(T)]

    def run(self, seed: int, run_id: int = 0) -> SimulationRecord:
        """Roll out one trajectory; identical seeds give identical records."""
        scenario, sol = self.scenario, self.sol
        sys_ = scenario.system
        T, n = sys_.horizon, sys_.state_dim
        rng = np.random.Generator(np.random.Philox(seed))
        x = sys_.x1_mean + self._x1_sqrt @ rng.standard_normal(n)
        xhat_prior = np.array(sys_.x1_mean)
        states = [frozen(x)]
        estimates = []
        controls = []
        cost = 0.0
        for t in range(T):
            if self.chosen:
                info_vec = self._prior_inv[t] @ xhat_prior
                for i in self.chosen:
                    s = scenario.suite.sensor(i)
                    noise = self._noise_factor[i][t] @ rng.standard_normal(s.output_dim)
                    y = s.C[t] @ x + noise
                    info_vec = info_vec + self._info_gain[i][t] @ y
                xhat = self.traj.posteriors[t] @ info_vec
            else:
                xhat = xhat_prior
            u = sol.K[t] @ xhat
            w = self._w_sqrt[t] @ rng.standard_normal(n)
            x_next = sys_.A[t] @ x + sys_.B[t] @ u + w
            cost += float(x_next @ scenario.weights.Q[t] @ x_next)
            cost += float(u @ scenario.weights.R[t] @ u)
            xhat_prior = sys_.A[t] @ xhat + sys_.B[t] @ u
            x = x_next
            states.append(frozen(x))
            estimates.append(frozen(xhat))
            controls.append(frozen(u))
        return SimulationRecord(
            run_id=run_id,
            seed=seed,
            states=tuple(states),
            estimates=tuple(estimates),
            controls=tuple(controls),
            realized_cost=cost,
        )


def run_closed_loop(scenario: Scenario, sol: RiccatiSolution, ids, seed: int,
                    run_id: int = 0) -> SimulationRecord:
    """Single closed-loop rollout under the given sensor set and seed."""
    return ClosedLoopSimulator(scenario, sol, ids).run(seed, run_id)


def monte_carlo(scenario: Scenario, sol: RiccatiSolution, ids, runs: int,
                base_seed: int, method: str = "set",
                cache: ObjectiveCache | None = None) -> MonteCarloSummary:
    """Mean realized cost over ``runs`` rollouts seeded ``base_seed + r``.

    Doubling ``runs`` with the same base seed reuses the first half of the
    draws exactly.  The standard error is the sample standard deviation
    over the square root of the run count (0 for a single run).
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    sim = ClosedLoopSimulator(scenario, sol, ids)
    costs = np.array([sim.run(base_seed + r, run_id=r).realized_cost for r in range(runs)])
    mean = float(np.mean(costs))
    stderr = float(np.std(costs, ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
    if cache is not None:
        analytical = cache.g(ids)
    else:
        analytical = optimal_lqg_cost(scenario, sol, ids)
    return MonteCarloSummary(
        method=method,
        mean_cost=mean,
        std_error=stderr,
        run_count=runs,
        analytical_g=analytical,
    )


def build_formation_scenario(agents: int, horizon: int, mode: str = "homogeneous",
                             seed: int = 0) -> Scenario:
    """Planar formation-keeping benchmark.

    Each agent is a 2-D double integrator with state [px, py, vx, vy] and
    unit time step.  Agents start at rest, uniformly placed in a 10 x 10
    area; the regulated state is the deviation from a regular polygon of
    circumradius 2 around the area's center.  One GPS sensor per agent
    (ids 0..agents-1) measures its position; one relative sensor per
    ordered agent pair, ids in (i, j) lexicographic order, measures the
    position of j relative to i.  All sensors cost 1.  ``heterogeneous``
    mode makes agent 0's state weight 100x the others.
    """
    if agents < 1:
        raise ValueError("agents must be at least 1")
    if mode not in ("homogeneous", "heterogeneous"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    n = 4 * agents
    a_block = np.array([
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    b_block = np.array([
        [0.0, 0.0],
        [0.0, 0.0],
        [1.0, 0.0],
        [0.0, 1.0],
    ])
    A = block_diag([a_block] * agents)
    B = np.zeros((n, 2 * agents))
    for k in range(agents):
        B[4 * k:4 * k + 4, 2 * k:2 * k + 2] = b_block
    W = block_diag([np.diag([1e-2, 1e-2, 1e-4, 1e-4])] * agents)

    positions = rng.uniform(0.0, 10.0, size=(agents, 2))
    center = np.array([5.0, 5.0])
    mean = np.zeros(n)
    for k in range(agents):
        angle = 2.0 * math.pi * k / agents
        target = center + 2.0 * np.array([math.cos(angle), math.sin(angle)])
        mean[4 * k:4 * k + 2] = positions[k] - target

    d = rng.standard_normal((n, n))
    sigma_init = d.T @ d + 0.1 * np.eye(n)

    q_blocks = []
    for k in range(agents):
        scale = 10.0 if (mode == "heterogeneous" and k == 0) else 0.1
        q_blocks.append(scale * np.eye(4))
    Q = block_diag(q_blocks)
    R = np.eye(2 * agents)

    def position_rows(agent: int) -> np.ndarray:
        rows = np.zeros((2, n))
        rows[0, 4 * agent] = 1.0
        rows[1, 4 * agent + 1] = 1.0
        return rows

    sensors = []
    for k in range(agents):
        sensors.append(Sensor.time_invariant(
            sensor_id=k, C=position_rows(k), V=2.0 * np.eye(2), cost=1.0, horizon=horizon,
        ))
    next_id = agents
    for i in range(agents):
        for j in range(agents):
            if i == j:
                continue
            sensors.append(Sensor.time_invariant(
                sensor_id=next_id, C=position_rows(j) - position_rows(i),
                V=0.1 * np.eye(2), cost=1.0, horizon=horizon,
            ))
            next_id += 1

    system = LtvSystem(horizon=horizon, state_dim=n, A=A, B=B, W=W,
                       sigma_init=sigma_init, x1_mean=mean)
    weights = LqgWeights(horizon=horizon, Q=Q, R=R)
    suite = SensorSuite(sensors=tuple(sensors), state_dim=n)
    return Scenario(system=system, suite=suite, weights=weights)


def build_uav_scenario(landmarks: int, horizon: int, cost_mode: str = "uniform",
                       seed: int = 0) -> Scenario:
    """UAV landing benchmark: a 3-D double integrator that must reach rest.

    State [px, py, pz, vx, vy, vz] with unit time step, heavy weight on
    altitude.  The start position is drawn uniformly over a 10 x 10 area at
    5..15 altitude, at rest.  Sensors: GPS (id 0) measures position;
    altimeter (id 1) measures altitude; each landmark fix (ids 2 onward)
    measures position with its own randomized extra covariance.  Uniform
    cost mode prices everything at 1; heterogeneous mode prices GPS at 3
    and the altimeter at 2.
    """
    if landmarks < 0:
        raise ValueError("landmarks must be nonnegative")
    if cost_mode not in ("uniform", "heterogeneous"):
        raise ValueError(f"unknown cost_mode {cost_mode!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    eye3 = np.eye(3)
    A = np.block([[eye3, eye3], [np.zeros((3, 3)), eye3]])
    B = np.vstack([np.zeros((3, 3)), eye3])
    W = np.eye(6)
    Q = np.diag([1e-3, 1e-3, 10.0, 1e-3, 1e-3, 10.0])
    R = np.eye(3)
    sigma_init = np.eye(6)
    mean = np.zeros(6)
    mean[0:2] = rng.uniform(-5.0, 5.0, size=2)
    mean[2] = rng.uniform(5.0, 15.0)

    heterogeneous = cost_mode == "heterogeneous"
    position = np.hstack([eye3, np.zeros((3, 3))])
    sensors = [
        Sensor.time_invariant(
            sensor_id=0, C=position, V=2.0 * eye3,
            cost=3.0 if heterogeneous else 1.0, horizon=horizon,
        ),
        Sensor.time_invariant(
            sensor_id=1, C=np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]]), V=np.array([[0.25]]),
            cost=2.0 if heterogeneous else 1.0, horizon=horizon,
        ),
    ]
    for k in range(landmarks):
        g = 0.5 * rng.standard_normal((3, 3))
        sensors.append(Sensor.time_invariant(
            sensor_id=2 + k, C=position, V=0.1 * eye3 + g.T @ g, cost=1.0, horizon=horizon,
        ))
    system = LtvSystem(horizon=horizon, state_dim=6, A=A, B=B, W=W,
                       sigma_init=sigma_init, x1_mean=mean)
    weights = LqgWeights(horizon=horizon, Q=Q, R=R)
    suite = SensorSuite(sensors=tuple(sensors), state_dim=6)
    return Scenario(system=system, suite=suite, weights=weights)
