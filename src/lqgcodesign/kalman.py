"""Filtering covariance propagation and the sensor-dependent cost functionals.

For a fixed sensor set the filtering error covariance follows the standard
predict/update recursion, written here in information form with whitened
sensors.  Whitening replaces each (C, V) pair by Cbar = V^{-1/2} C, so the
measurement update is a single additive term Cbar' Cbar per sensor:

    post[0]  from prior[0] = sigma_init
    post[t]  = inv( inv(prior[t]) + sum_{i in S} Cbar_i[t]' Cbar_i[t] )
    prior[t+1] = A[t] post[t] A[t]' + W[t]

The empty selection performs the identity update, never inverting anything.
Per-step matrices are stacked along a leading time axis: a sensor's whitened
wiring is a (T, p, n) array, its information a (T, n, n) array.

Two scalar functionals of the trajectory drive sensor selection:

* ``sensing_objective``: sum_t trace(theta[t] post[t]), the part of the
  LQG cost the sensor set can influence;
* ``optimal_lqg_cost``: the full expected cost of the optimal
  output-feedback loop, the sensing objective plus a sensor-independent
  constant.

``ObjectiveCache`` memoizes these per sensor set so greedy sweeps, brute
force enumeration, and ratio scans never propagate the same set twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import NumericalError, inv_sqrt_pd, sym_inverse, symmetrize
from .model import Scenario, Sensor, SensorSuite
from .riccati import RiccatiSolution

_SINGULAR_TOL = 1e-12


def whiten_sensor(sensor: Sensor) -> np.ndarray:
    """Per-step whitened wiring Cbar[t] = V[t]^{-1/2} C[t], shape (T, p, n)."""
    return np.stack([inv_sqrt_pd(v, floor=_SINGULAR_TOL) @ c
                     for c, v in zip(sensor.C, sensor.V)])


def _information(white: np.ndarray) -> np.ndarray:
    """Additive information contributions Cbar[t]' Cbar[t], shape (T, n, n)."""
    return symmetrize(np.swapaxes(white, -1, -2) @ white)


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


def _summed_information(system, infos) -> np.ndarray | None:
    """Sum per-sensor (T, n, n) information in the given order; None if empty."""
    total = None
    for info in infos:
        if total is None:
            total = np.zeros((system.horizon, system.state_dim, system.state_dim))
        total += info
    return None if total is None else symmetrize(total)


def _propagate(system, info: np.ndarray | None) -> CovarianceTrajectory:
    """Run the recursion given summed per-step information (None for none)."""
    T, n = system.horizon, system.state_dim
    priors = np.empty((T, n, n))
    posts = np.empty((T, n, n))
    prior = system.sigma_init
    for t in range(T):
        priors[t] = prior
        if info is None:
            post = prior
        else:
            if float(np.linalg.eigvalsh(prior)[0]) < _SINGULAR_TOL:
                raise NumericalError(
                    f"prediction covariance singular at time index {t}; "
                    "a positive definite W regularizes it"
                )
            post = sym_inverse(sym_inverse(prior) + info[t])
        posts[t] = post
        if t + 1 < T:
            A, W = system.A[t], system.W[t]
            prior = symmetrize(A @ post @ A.T + W)
    return CovarianceTrajectory(priors=priors, posteriors=posts)


def propagate_covariance(scenario: Scenario, ids) -> CovarianceTrajectory:
    """Covariance trajectory under the given sensor set (any iterable of ids)."""
    suite = scenario.suite
    infos = (_information(whiten_sensor(suite.sensor(i))) for i in _chosen_ids(suite, ids))
    return _propagate(scenario.system, _summed_information(scenario.system, infos))


def sensing_objective(sol: RiccatiSolution, traj: CovarianceTrajectory) -> float:
    """sum_t trace(theta[t] post[t]): the sensor-dependent share of the cost."""
    if sol.horizon != traj.horizon:
        raise ValueError("solution and trajectory horizons differ")
    total = 0.0
    for t in range(sol.horizon):
        total += float(np.sum(sol.theta[t] * traj.posteriors[t]))
    return total


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
    total = 0.0
    for t, post in enumerate(traj.posteriors):
        sign, logabs = np.linalg.slogdet(post)
        if sign <= 0.0 or float(np.linalg.eigvalsh(post)[0]) <= 0.0:
            raise NumericalError(
                f"filtering covariance not positive definite at time index {t}"
            )
        total += float(logabs)
    return total / traj.horizon


class ObjectiveCache:
    """Memoized per-set evaluation of the selection objectives.

    The information bank, shape (m, T, n, n), is filled once per scenario;
    each distinct sensor set is propagated at most once per functional.
    """

    def __init__(self, scenario: Scenario, sol: RiccatiSolution):
        if sol.horizon != scenario.horizon:
            raise ValueError("solution horizon does not match scenario horizon")
        self.scenario = scenario
        self.sol = sol
        T, n = scenario.horizon, scenario.state_dim
        self._whitened = tuple(whiten_sensor(s) for s in scenario.suite)
        self._bank = np.empty((len(self._whitened), T, n, n))
        for i, white in enumerate(self._whitened):
            self._bank[i] = _information(white)
        self._f: dict[frozenset[int], float] = {}
        self._logdet: dict[frozenset[int], float] = {}
        self.offset = cost_offset(scenario, sol)

    def whitened(self, sensor_id: int) -> np.ndarray:
        return self._whitened[sensor_id]

    def trajectory(self, ids) -> CovarianceTrajectory:
        system = self.scenario.system
        chosen = _chosen_ids(self.scenario.suite, ids)
        return _propagate(system, _summed_information(system, (self._bank[i] for i in chosen)))

    def _memoized(self, memo: dict, functional, ids) -> float:
        key = frozenset(int(i) for i in ids)
        hit = memo.get(key)
        if hit is None:
            hit = functional(self.trajectory(key))
            if not np.isfinite(hit):
                raise NumericalError(
                    f"objective of sensor set {sorted(key)} is not finite ({hit}); "
                    "the covariance recursion overflowed"
                )
            memo[key] = hit
        return hit

    def f(self, ids) -> float:
        """Memoized sensing objective of the set."""
        return self._memoized(self._f, lambda traj: sensing_objective(self.sol, traj), ids)

    def g(self, ids) -> float:
        """Memoized full LQG cost of the set."""
        return self.f(ids) + self.offset

    def logdet(self, ids) -> float:
        """Memoized log-volume objective of the set."""
        return self._memoized(self._logdet, logdet_objective, ids)

    def kappa_bar(self) -> float:
        return kappa_bar(self.scenario, self.sol)
