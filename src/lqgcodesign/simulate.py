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
order, then the process noise.  So a run's draws do not depend on its batch,
though its BLAS products may, in the last bits; one call gives the same bits.

Several sets estimated with the same seeds, as the rows of one sweep grid
point are, roll out together: each distinct set once, in batches sized by
the longest set's draws.  Each seed's normals are drawn once per batch, and
every set reads its own prefix of them; Philox is counter-based, so that
prefix is bit for bit the draw the set would make alone.  The sets' filter
trajectories are propagated together too, in the cache's batches by update
form and row count (``ObjectiveCache.trajectories``), each bit for bit the
set's own.

Two scenario families mirror common co-design benchmarks: a planar
formation with GPS and pairwise relative-position sensing, and a UAV
landing task with GPS, an altimeter, and noisy landmark fixes.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from ._linalg import block_diag, frozen, psd_sqrt
from .kalman import ObjectiveCache
from .model import LqgWeights, LtvSystem, Scenario, Sensor, SensorSuite, chosen_ids, stack_sensors

# Normals one batch of runs draws at most (512 KB), so memory stays flat in the run count.
_DRAW_FLOATS = 1 << 16

# Each cache's ``_noise_roots``
_ROOTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# A run's rollout step costs about a quarter of a set's propagation step at the
# same n (formation a4: about 6 against 24 ns per n**2), so dealt Monte Carlo
# work counts a run as a quarter of a set.
_RUN_SHARE = 4


@dataclass(frozen=True)
class SimulationRecord:
    """One closed-loop trajectory and its realized quadratic cost."""

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

    The filter runs on the set's (T, n, n) ``posteriors`` from
    ``cache.trajectories``, by default ``cache.trajectory(ids)``'s, the
    covariances ``cache.f`` scores.  Stacked once: the set's wiring (T, P,
    n), noise Cholesky factors (T, P, P) and transposed filter gains G' (T,
    P, n), beside the cache's noise roots (``_noise_roots``).
    """

    def __init__(self, cache: ObjectiveCache, ids, posteriors=None):
        self.scenario = scenario = cache.scenario
        self.sol = cache.sol
        self.chosen = chosen_ids(scenario.suite, ids)
        sys_ = scenario.system
        self._C, noise = stack_sensors(scenario, self.chosen)
        self._noise_factor = np.linalg.cholesky(noise)
        if posteriors is None:
            posteriors = cache.trajectory(self.chosen).posteriors
        self._gain_t = np.linalg.solve(noise, self._C @ posteriors)
        self._x1_sqrt, self._w_sqrt = _noise_roots(cache)
        self._draws = _draw_count(sys_, self._C.shape[1])

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


def _noise_roots(cache: ObjectiveCache) -> tuple[np.ndarray, np.ndarray]:
    """The PSD square roots of the initial covariance (n, n) and of the process noise
    (T, n, n) of the cache's scenario, computed once per cache."""
    roots = _ROOTS.get(cache)
    if roots is None:
        system = cache.scenario.system
        roots = _ROOTS[cache] = psd_sqrt(system.sigma_init), psd_sqrt(system.W)
    return roots


def _draw_count(system, rows: int) -> int:
    """Normals a run of a set of ``rows`` sensor rows draws: the initial state, then per
    step the sensor noise and the process noise."""
    return system.state_dim + system.horizon * (rows + system.state_dim)


def run_closed_loop(cache: ObjectiveCache, ids, seeds) -> tuple[SimulationRecord, ...]:
    """Rollouts of the set ``ids`` on the cache, record r the run seeded ``seeds[r]``.

    All the seeds run in one batch, so the draws and records of every seed
    are held at once; ``monte_carlo`` estimates in bounded memory.
    """
    sim = ClosedLoopSimulator(cache, ids)
    seeds = list(seeds)
    if not seeds:
        return ()
    *paths, costs = sim._rollouts(_normals(seeds, sim._draws))
    paths = [[frozen(x) for x in path] for path in paths]
    return tuple(SimulationRecord(seed, *(tuple(x[r] for x in path) for path in paths),
                                  float(costs[r])) for r, seed in enumerate(seeds))


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

    With enough work, distinct sets * runs * T * n**2 / ``_RUN_SHARE`` (as
    ``ObjectiveCache._processes`` counts it), the distinct sets are dealt in
    contiguous shares to this process and the cache's workers, every share
    on the call's batches of runs, so each rollout cost is the one-process
    value bit for bit.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    suite, system = cache.scenario.suite, cache.scenario.system
    keys = [chosen_ids(suite, ids) for ids in id_sets]
    distinct = list(dict.fromkeys(keys))
    if not distinct:
        return []
    longest = max(_draw_count(system, sum(suite.sensors[i].output_dim for i in key))
                  for key in distinct)
    batches = math.ceil(runs / max(1, _DRAW_FLOATS // longest))
    ends = [base_seed + runs * b // batches for b in range(batches + 1)]
    work = len(distinct) * runs * system.horizon * system.state_dim ** 2 // _RUN_SHARE
    processes = min(cache._processes(work), len(distinct))
    cuts = [len(distinct) * w // processes for w in range(processes + 1)]
    shares = cache._deal([(_rollout_costs, (distinct[a:b], longest, ends))
                          for a, b in zip(cuts, cuts[1:])])
    summaries = {}
    for key, values in zip(distinct, (values for share in shares for values in share)):
        summaries[key] = MonteCarloSummary(
            mean_cost=float(np.mean(values)),
            std_error=float(np.std(values, ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0,
            run_count=runs,
            analytical_g=cache.g(key),
        )
    return [summaries[key] for key in keys]


def _rollout_costs(cache: ObjectiveCache, keys, longest: int, ends) -> list[np.ndarray]:
    """The realized costs of each set's runs, batch by batch of ``ends``, each batch's
    normals drawn ``longest`` wide.  The sets' filter trajectories are propagated in the
    cache's batches (``ObjectiveCache.trajectories``), each batch's posteriors dropped once
    its sets' simulators hold their gains."""
    sims = [None] * len(keys)
    for batch, _, posteriors in cache.trajectories([cache._mask(key) for key in keys]):
        for j, posts in zip(batch, posteriors):
            sims[j] = ClosedLoopSimulator(cache, keys[j], posts)
    costs = [[] for _ in sims]
    for start, stop in zip(ends, ends[1:]):
        draws = _normals(range(start, stop), longest)
        for sim, parts in zip(sims, costs):
            parts.append(sim._rollouts(draws[:, :sim._draws])[3])
    return [np.concatenate(parts) for parts in costs]


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
