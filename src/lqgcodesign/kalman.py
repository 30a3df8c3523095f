"""Filtering covariance propagation and the sensor-dependent cost functionals.

For a fixed sensor set the filtering error covariance follows the standard
predict/update recursion, written here in information form with whitened
sensors.  Whitening replaces each (C, V) pair by Cbar = V^{-1/2} C, so a
set's measurement information is a sum of one term per sensor,
J[t] = sum_{i in S} Cbar_i[t]' Cbar_i[t], and the update is one linear solve:

    post[0]  from prior[0] = sigma_init
    post[t]  = inv( inv(prior[t]) + J[t] ) = solve( I + prior[t] J[t], prior[t] )
    prior[t+1] = A[t] post[t] A[t]' + W[t]

The empty selection performs the identity update, never solving anything.
Per-step matrices are stacked along a leading time axis: a sensor's whitened
wiring is a (T, p, n) array, its information a (T, n, n) array, and the
information of all m sensors one (m, T, n, n) bank.

The one recursion, ``_steps``, advances a batch of k sets together on
(k, n, n) stacks and hands each step to its caller, so a caller reduces as
it goes and no (k, T, n, n) array is ever held.  Two scalar functionals of
the posteriors drive sensor selection:

* ``sensing_objective``: sum_t trace(theta[t] post[t]), the part of the
  LQG cost the sensor set can influence;
* ``optimal_lqg_cost``: the full expected cost of the optimal
  output-feedback loop, the sensing objective plus a sensor-independent
  constant.

``ObjectiveCache`` memoizes these per sensor set so greedy sweeps, brute
force enumeration, and ratio scans never propagate the same set twice; the
sets a call asks for that are not memoized yet are propagated in batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import NumericalError, inv_sqrt_pd, symmetrize
from .model import Scenario, Sensor, SensorSuite
from .riccati import RiccatiSolution

_SINGULAR_TOL = 1e-12
# Floats in one (k, n, n) stack of a batch: 2**13 floats are 64 KB, so a
# batch of any size adds little to the peak memory of a run.
_BATCH_FLOATS = 1 << 13


def _batch_size(n: int) -> int:
    """Sets propagated together at state dimension n."""
    return max(1, _BATCH_FLOATS // (n * n))


def whiten_sensor(sensor: Sensor) -> np.ndarray:
    """Per-step whitened wiring Cbar[t] = V[t]^{-1/2} C[t], shape (T, p, n)."""
    return np.stack([inv_sqrt_pd(v, floor=_SINGULAR_TOL) @ c
                     for c, v in zip(sensor.C, sensor.V)])


def _information_bank(whitened, horizon: int, n: int) -> np.ndarray:
    """Information Cbar[t]' Cbar[t] of each sensor, then one zero row: (m + 1, T, n, n).

    The zero row pads the shorter sets of a batch, so every set of a batch
    sums as many terms and the padding adds exactly nothing.
    """
    bank = np.zeros((len(whitened) + 1, horizon, n, n))
    for i, white in enumerate(whitened):
        bank[i] = symmetrize(np.swapaxes(white, -1, -2) @ white)
    return bank


@dataclass(frozen=True)
class CovarianceTrajectory:
    """Prediction and filtering covariances, stacked as (T, n, n) arrays."""

    priors: np.ndarray = field(repr=False)
    posteriors: np.ndarray = field(repr=False)

    @property
    def horizon(self) -> int:
        return len(self.priors)


def _chosen_ids(suite: SensorSuite, ids) -> list[int]:
    """The distinct ids of a selection in ascending order, each validated."""
    chosen = sorted(set(int(i) for i in ids))
    for i in chosen:
        suite.sensor(i)
    return chosen


def _mask_ids(mask: int) -> tuple[int, ...]:
    """The ids of a bit mask's set bits, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _positive_definite(stack: np.ndarray) -> bool:
    """Whether every symmetric matrix of the stack has a Cholesky factor."""
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return False
    return True


def _steps(system, bank: np.ndarray, sets):
    """The covariance recursion for a batch of k sensor sets, one step at a time.

    Each set is an ascending sequence of rows of ``bank``, an information
    bank from ``_information_bank``; a set sums its rows in that order.
    Yields the (k, n, n) prior and posterior stacks of each time step; the
    caller reduces or copies them before it asks for the next step.  Raises
    ``NumericalError`` on a non-finite prior and on a singular prior of a
    sensed set.
    """
    T, n = system.horizon, system.state_dim
    pad = len(bank) - 1
    sensed = [r for r, ids in enumerate(sets) if len(ids)]
    every = len(sensed) == len(sets)
    width = max((len(ids) for ids in sets), default=0)
    index = np.full((len(sensed), width), pad)
    for j, r in enumerate(sensed):
        index[j, :len(sets[r])] = sets[r]
    # steps of information summed per gather: a small batch (a trajectory)
    # sums many steps at once and still stays within one batch array
    block = max(1, _BATCH_FLOATS // (max(len(sensed), 1) * n * n))
    gain = np.empty((len(sensed), n, n))
    eye = np.eye(n)
    floor = _SINGULAR_TOL * eye
    prior = np.broadcast_to(system.sigma_init, (len(sets), n, n))
    for t in range(T):
        if not np.isfinite(prior).all():
            raise NumericalError(
                f"prediction covariance not finite at time index {t}; "
                "the covariance recursion overflowed"
            )
        post = prior
        if sensed:
            sub = prior if every else prior[sensed]
            if not _positive_definite(sub - floor):
                raise NumericalError(
                    f"prediction covariance singular at time index {t}; "
                    "a positive definite W regularizes it"
                )
            if t % block == 0:
                info = bank[index[:, 0], t:t + block]
                for j in range(1, width):
                    info += bank[index[:, j], t:t + block]
            np.matmul(sub, info[:, t % block], out=gain)
            gain += eye
            update = symmetrize(np.linalg.solve(gain, sub))
            if every:
                post = update
            else:
                post = prior.copy()
                post[sensed] = update
        yield prior, post
        if t + 1 < T:
            A, W = system.A[t], system.W[t]
            prior = symmetrize(A @ post @ A.T + W)


@np.errstate(over="ignore", invalid="ignore")
def _trajectory(system, bank: np.ndarray, rows) -> CovarianceTrajectory:
    """Stacked priors and posteriors of one set of bank rows."""
    T, n = system.horizon, system.state_dim
    priors = np.empty((T, n, n))
    posts = np.empty((T, n, n))
    for t, (prior, post) in enumerate(_steps(system, bank, [rows])):
        priors[t] = prior[0]
        posts[t] = post[0]
    return CovarianceTrajectory(priors=priors, posteriors=posts)


def propagate_covariance(scenario: Scenario, ids) -> CovarianceTrajectory:
    """Covariance trajectory under the given sensor set (any iterable of ids)."""
    suite = scenario.suite
    chosen = _chosen_ids(suite, ids)
    bank = _information_bank([whiten_sensor(suite.sensor(i)) for i in chosen],
                             scenario.horizon, scenario.state_dim)
    return _trajectory(scenario.system, bank, range(len(chosen)))


def _sensing_values(sol: RiccatiSolution, posts) -> np.ndarray:
    """sum_t trace(theta[t] post[t]) of each set, given its (k, n, n) posteriors per step."""
    total = 0.0
    for theta, post in zip(sol.theta, posts):
        total = total + np.sum((post * theta).reshape(len(post), -1), axis=1)
    return total


def _logdet_values(posts, horizon: int) -> np.ndarray:
    """(1/T) sum_t log det post[t] of each set, given its (k, n, n) posteriors per step."""
    total = 0.0
    for t, post in enumerate(posts):
        sign, logabs = np.linalg.slogdet(post)
        if (sign <= 0.0).any() or not _positive_definite(post):
            raise NumericalError(
                f"filtering covariance not positive definite at time index {t}"
            )
        total = total + logabs
    return total / horizon


def sensing_objective(sol: RiccatiSolution, traj: CovarianceTrajectory) -> float:
    """sum_t trace(theta[t] post[t]): the sensor-dependent share of the cost."""
    if sol.horizon != traj.horizon:
        raise ValueError("solution and trajectory horizons differ")
    return float(_sensing_values(sol, traj.posteriors[:, None])[0])


def cost_offset(scenario: Scenario, sol: RiccatiSolution) -> float:
    """Sensor-independent part of the expected LQG cost.

    Covers the initial-state mean and covariance through N[0] plus the
    accumulated process noise; no sensor choice can change it.
    """
    mean = scenario.system.x1_mean
    total = float(mean @ sol.N[0] @ mean)
    total += float(np.sum(sol.N[0] * scenario.system.sigma_init))
    for t in range(scenario.horizon):
        total += float(np.sum(scenario.system.W[t] * sol.S[t]))
    return total


def optimal_lqg_cost(scenario: Scenario, sol: RiccatiSolution, ids) -> float:
    """Expected cost of the optimal controller driven by the chosen sensors."""
    traj = propagate_covariance(scenario, ids)
    return sensing_objective(sol, traj) + cost_offset(scenario, sol)


def kappa_bar(scenario: Scenario, sol: RiccatiSolution) -> float:
    """Cap on the sensing objective equivalent to the scenario's cost cap.

    Subtracting the sensor-independent offset from ``kappa`` makes
    ``optimal_lqg_cost(S) <= kappa`` hold exactly when
    ``sensing_objective(S) <= kappa_bar``.  May be negative, in which case
    no sensor set can meet the cap.
    """
    if scenario.kappa is None:
        raise ValueError("scenario defines no kappa; set one to use cost-capped selection")
    return scenario.kappa - cost_offset(scenario, sol)


def logdet_objective(traj: CovarianceTrajectory) -> float:
    """Average log-volume of the filtering covariances.

    The classic sensing surrogate: (1/T) sum_t log det post[t].  Requires
    strictly positive definite posteriors.
    """
    return float(_logdet_values(traj.posteriors[:, None], traj.horizon)[0])


class ObjectiveCache:
    """Memoized per-set evaluation of the selection objectives.

    The information bank, shape (m + 1, T, n, n), is filled once per
    scenario.  Values are memoized under the bit mask of their set, so each
    distinct set is propagated at most once per functional; the sets one
    call has not seen yet are propagated together in batches of
    ``_batch_size(n)``.
    """

    def __init__(self, scenario: Scenario, sol: RiccatiSolution):
        if sol.horizon != scenario.horizon:
            raise ValueError("solution horizon does not match scenario horizon")
        self.scenario = scenario
        self.sol = sol
        self._whitened = tuple(whiten_sensor(s) for s in scenario.suite)
        self._bank = _information_bank(self._whitened, scenario.horizon, scenario.state_dim)
        self._f: dict[int, float] = {}
        self._logdet: dict[int, float] = {}
        self.offset = cost_offset(scenario, sol)

    def whitened(self, sensor_id: int) -> np.ndarray:
        return self._whitened[sensor_id]

    def trajectory(self, ids) -> CovarianceTrajectory:
        chosen = _chosen_ids(self.scenario.suite, ids)
        return _trajectory(self.scenario.system, self._bank, chosen)

    def _key(self, ids) -> int:
        """Bit mask of a sensor set; an unknown id raises ``ValidationError``."""
        key = 0
        for i in ids:
            i = int(i)
            if not 0 <= i < len(self._whitened):
                self.scenario.suite.sensor(i)
            key |= 1 << i
        return key

    @np.errstate(over="ignore", invalid="ignore")
    def _memoized(self, memo: dict, values, sets) -> list[float]:
        """Values of the sets; those not in ``memo`` are propagated in batches."""
        keys = [self._key(ids) for ids in sets]
        missing = list(dict.fromkeys(key for key in keys if key not in memo))
        size = _batch_size(self.scenario.state_dim)
        for start in range(0, len(missing), size):
            batch = missing[start:start + size]
            steps = _steps(self.scenario.system, self._bank, [_mask_ids(key) for key in batch])
            for key, value in zip(batch, values(post for _, post in steps).tolist()):
                if not math.isfinite(value):
                    raise NumericalError(
                        f"objective of sensor set {list(_mask_ids(key))} is not finite ({value})"
                    )
                memo[key] = value
        return [memo[key] for key in keys]

    def f_many(self, sets) -> list[float]:
        """Memoized sensing objectives of the sets, in the order given."""
        return self._memoized(self._f, lambda posts: _sensing_values(self.sol, posts), sets)

    def logdet_many(self, sets) -> list[float]:
        """Memoized log-volume objectives of the sets, in the order given."""
        horizon = self.scenario.horizon
        return self._memoized(self._logdet, lambda posts: _logdet_values(posts, horizon), sets)

    def f(self, ids) -> float:
        """Memoized sensing objective of the set."""
        return self.f_many((ids,))[0]

    def g(self, ids) -> float:
        """Memoized full LQG cost of the set."""
        return self.f(ids) + self.offset

    def logdet(self, ids) -> float:
        """Memoized log-volume objective of the set."""
        return self.logdet_many((ids,))[0]

    def kappa_bar(self) -> float:
        return kappa_bar(self.scenario, self.sol)
