"""Closed-loop rollouts, Monte Carlo estimation, and benchmark scenarios.

The rollout applies the separation structure directly: the Kalman filter, in
gain form xhat = xp + G (y - C xp) with G = post C' inv(V) on the set's
covariance trajectory, produces the state estimate, and the precomputed
regulator gain acts on that estimate.  The trajectory is the objective
cache's, ``cache.trajectory``, the one ``f`` scores, so a Monte Carlo mean
estimates the ``g`` printed beside it.  C and V stack the chosen sensors in
ascending id order; no prior is inverted, and the empty set has zero rows.
Runs advance together in batches, on (k, n) arrays.  All randomness comes
from numpy's Philox generator: run r of a Monte Carlo batch uses seed
``base_seed + r`` and draws, in one call and in this order, the initial
state, then per step the noise of each selected sensor in ascending id
order, then the process noise.  A run is a pure function of (scenario,
sensor set, seed), whatever batch it runs in.

Several sets estimated with the same seeds, as the rows of one sweep grid
point are, roll out together: each distinct set once, in batches sized by
the longest set's draws.  Each seed's normals are drawn once per batch, and
every set reads its own prefix of them; Philox is counter-based, so that
prefix is bit for bit the draw the set would make alone.

Two scenario families mirror common co-design benchmarks: a planar
formation with GPS and pairwise relative-position sensing, and a UAV
landing task with GPS, an altimeter, and noisy landmark fixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import block_diag, frozen, psd_sqrt
from .kalman import ObjectiveCache
from .model import LqgWeights, LtvSystem, Scenario, Sensor, SensorSuite, chosen_ids, stack_sensors
from .riccati import RiccatiSolution

# Normals one batch of runs draws at most (512 KB), so memory stays flat in the run count.
_DRAW_FLOATS = 1 << 16


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

    mean_cost: float
    std_error: float
    run_count: int
    analytical_g: float


class ClosedLoopSimulator:
    """Reusable rollout engine for one sensor set, on the cache's scenario and solution.

    The filter runs on ``cache.trajectory(ids)``, the covariances ``cache.f``
    scores.  Stacked once: the set's wiring (T, P, n), noise Cholesky factors
    (T, P, P), transposed filter gains G' (T, P, n) and process-noise roots
    (T, n, n).
    """

    def __init__(self, cache: ObjectiveCache, ids):
        self.scenario = scenario = cache.scenario
        self.sol = cache.sol
        self.chosen = chosen_ids(scenario.suite, ids)
        sys_ = scenario.system
        T, n = sys_.horizon, sys_.state_dim
        self._C, noise = stack_sensors(scenario, self.chosen)
        self._noise_factor = np.linalg.cholesky(noise)
        posteriors = cache.trajectory(self.chosen).posteriors
        self._gain_t = np.linalg.solve(noise, self._C @ posteriors)
        self._x1_sqrt = psd_sqrt(sys_.sigma_init)
        self._w_sqrt = psd_sqrt(sys_.W)
        self._draws = n + T * (self._C.shape[1] + n)

    def _rollouts(self, draws):
        """Per-step (k, n) states, estimates and controls, and the costs, of k runs.

        ``draws`` is (k, ``_draws``): row r holds run r's normals in the order
        the module docstring gives.
        """
        sys_, weights = self.scenario.system, self.scenario.weights
        T, P, n = self._C.shape
        noise = draws[:, n:].reshape(len(draws), T, P + n)
        x = sys_.x1_mean + draws[:, :n] @ self._x1_sqrt.T
        xhat_prior = np.broadcast_to(sys_.x1_mean, x.shape)
        states, estimates, controls = [x], [], []
        costs = np.zeros(len(draws))
        for t in range(T):
            C = self._C[t]
            y = x @ C.T + noise[:, t, :P] @ self._noise_factor[t].T
            xhat = xhat_prior + (y - xhat_prior @ C.T) @ self._gain_t[t]
            u = xhat @ self.sol.K[t].T
            x = x @ sys_.A[t].T + u @ sys_.B[t].T + noise[:, t, P:] @ self._w_sqrt[t].T
            costs += np.sum(x @ weights.Q[t] * x, axis=1)
            costs += np.sum(u @ weights.R[t] * u, axis=1)
            xhat_prior = xhat @ sys_.A[t].T + u @ sys_.B[t].T
            states.append(x)
            estimates.append(xhat)
            controls.append(u)
        return states, estimates, controls, costs


def run_closed_loop(scenario: Scenario, sol: RiccatiSolution, ids, seed: int,
                    run_id: int = 0) -> SimulationRecord:
    """Single closed-loop rollout under the given sensor set and seed."""
    sim = ClosedLoopSimulator(ObjectiveCache(scenario, sol), ids)
    states, estimates, controls, costs = sim._rollouts(_normals([seed], sim._draws))
    return SimulationRecord(
        run_id=run_id,
        seed=seed,
        states=tuple(frozen(x[0]) for x in states),
        estimates=tuple(frozen(x[0]) for x in estimates),
        controls=tuple(frozen(u[0]) for u in controls),
        realized_cost=float(costs[0]),
    )


def _normals(seeds, count: int) -> np.ndarray:
    """(len(seeds), count) standard normals, row r from one Philox generator seeded ``seeds[r]``."""
    return np.stack([np.random.Generator(np.random.Philox(seed)).standard_normal(count)
                     for seed in seeds])


def monte_carlo(cache: ObjectiveCache, ids, runs: int, base_seed: int) -> MonteCarloSummary:
    """``monte_carlo_many`` of the one set ``ids``."""
    return monte_carlo_many(cache, [ids], runs, base_seed)[0]


def monte_carlo_many(cache: ObjectiveCache, id_sets, runs: int,
                     base_seed: int) -> list[MonteCarloSummary]:
    """Per set: mean realized cost over ``runs`` rollouts seeded ``base_seed + r``, and ``cache.g``.

    The rollouts run on the cache's scenario and Riccati solution.  Each
    distinct set gets one simulator and rolls out once; repeated sets share
    its summary.  Runs go in batches of at most ``_DRAW_FLOATS`` drawn
    floats of the longest set, sizes differing by at most one, and each
    seed's normals are drawn once per batch for every set.  Doubling
    ``runs`` with the same base seed reuses the first half of the draws
    exactly.  The standard error is the sample standard deviation over
    sqrt(runs), 0 for a single run.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    keys = [chosen_ids(cache.scenario.suite, ids) for ids in id_sets]
    sims = {key: ClosedLoopSimulator(cache, key) for key in dict.fromkeys(keys)}
    if not sims:
        return []
    longest = max(sim._draws for sim in sims.values())
    batches = math.ceil(runs / max(1, _DRAW_FLOATS // longest))
    ends = [base_seed + runs * b // batches for b in range(batches + 1)]
    costs = {key: [] for key in sims}
    for start, stop in zip(ends, ends[1:]):
        draws = _normals(range(start, stop), longest)
        for key, sim in sims.items():
            costs[key].append(sim._rollouts(draws[:, :sim._draws])[3])
    summaries = {}
    for key, parts in costs.items():
        values = np.concatenate(parts)
        summaries[key] = MonteCarloSummary(
            mean_cost=float(np.mean(values)),
            std_error=float(np.std(values, ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0,
            run_count=runs,
            analytical_g=cache.g(key),
        )
    return [summaries[key] for key in keys]


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
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
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
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
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
