"""Filtering covariance propagation and the sensor-dependent cost functionals.

For a fixed sensor set the filtering error covariance follows the standard
predict/update recursion, written here in information form with whitened
sensors.  Whitening replaces each (C, V) pair by Cbar = V^{-1/2} C, so a
set's measurement information is a sum of one term per sensor,
J[t] = sum_{i in S} Cbar_i[t]' Cbar_i[t], and the update is one linear solve:

    post[0]  from prior[0] = sigma_init
    post[t]  = inv( inv(prior[t]) + J[t] ) = solve( I + prior[t] J[t], prior[t] )
    prior[t+1] = A[t] post[t] A[t]' + W[t]

The update never inverts the prior, so the prior may be singular.  The
empty selection is the zero-information row: J = 0 and solve(I, P) = P.
Per-step matrices are stacked along a leading time axis: a sensor's whitened
wiring is a (T, p, n) array, its information a (T, n, n) array, and the
information of all m sensors one (m, T, n, n) bank.

The one recursion, ``_steps``, advances a batch of k sets together on
(k, n, n) stacks and hands each step to its caller, so a caller reduces as
it goes and no (k, T, n, n) array is ever held.  Two scalar functionals of
the posteriors drive sensor selection:

* ``sensing_objective``: sum_t trace(theta[t] post[t]), the part of the
  LQG cost the sensor set can influence.  The full expected cost of the
  optimal output-feedback loop, ``ObjectiveCache.g``, adds the
  sensor-independent ``cost_offset``;
* the log-volume (1/T) sum_t log det post[t], the surrogate of the
  log-determinant baseline.

``ObjectiveCache`` memoizes these under each set's bit mask, a Python int
whose bit i selects sensor i.  Behind that memo sits one keyed by the
multiset of information classes: sensors whose (T, n, n) information stacks
are bit-identical form one class, named by its smallest id, and a set's
filter depends on it only through J[t].  So sweeps, enumerations and ratio
scans propagate each distinct multiset once, summed in ascending
representative order, and equal multisets give equal bits by construction.
Its batch calls take masks, its single-set calls ids.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ._linalg import NumericalError, inv_sqrt_pd, symmetrize
from .model import Scenario, Sensor, ValidationError, chosen_ids
from .riccati import RiccatiSolution

# Floats in one (k, n, n) stack of a batch: 2**13 floats are 64 KB, so a
# batch of any size adds little to the peak memory of a run.
_BATCH_FLOATS = 1 << 13


def _batch_size(n: int) -> int:
    """Sets propagated together at state dimension n."""
    return max(1, _BATCH_FLOATS // (n * n))


def whiten_sensor(sensor: Sensor) -> np.ndarray:
    """Per-step whitened wiring Cbar[t] = V[t]^{-1/2} C[t], shape (T, p, n)."""
    return inv_sqrt_pd(sensor.V) @ sensor.C


def _information_bank(whitened, horizon: int, n: int) -> np.ndarray:
    """Information Cbar[t]' Cbar[t] of each sensor, then one zero row: (m + 1, T, n, n).

    The zero row pads the shorter sets of a batch, so every set of a batch
    sums as many terms and the padding adds exactly nothing.
    """
    bank = np.zeros((len(whitened) + 1, horizon, n, n))
    for i, white in enumerate(whitened):
        bank[i] = symmetrize(np.swapaxes(white, -1, -2) @ white)
    return bank


def _class_representatives(stacks) -> tuple[int, ...]:
    """Each sensor's class representative: the smallest id whose stack is bit-identical.

    Candidates share the bytes of their first step; each is confirmed over
    the whole stack, compared as integers so that 0.0 and -0.0 differ.
    """
    reps = []
    candidates: dict[bytes, list[int]] = {}
    for i, stack in enumerate(stacks):
        group = candidates.setdefault(stack[0].tobytes(), [])
        bits = stack.view(np.int64)
        reps.append(next((j for j in group if np.array_equal(stacks[j].view(np.int64), bits)), i))
        if reps[-1] == i:
            group.append(i)
    return tuple(reps)


@dataclass(frozen=True)
class CovarianceTrajectory:
    """Prediction and filtering covariances, stacked as (T, n, n) arrays."""

    priors: np.ndarray = field(repr=False)
    posteriors: np.ndarray = field(repr=False)

    @property
    def horizon(self) -> int:
        return len(self.priors)


def _mask_ids(mask: int) -> tuple[int, ...]:
    """The ids of a bit mask's set bits, ascending."""
    return tuple(i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


def _class_key(mask: int, rep) -> tuple[int, ...]:
    """The class representatives of a bit mask's set bits, ascending: its multiset of classes."""
    return tuple(sorted([rep[i] for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]))


def _positive_definite(stack: np.ndarray) -> bool:
    """Whether every symmetric matrix of the stack has a Cholesky factor."""
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return False
    return True


def _steps(system, bank: np.ndarray, sets):
    """The covariance recursion for a batch of k sensor sets, one step at a time.

    Each set is a nondecreasing sequence of rows of ``bank``, an information
    bank from ``_information_bank``; a set sums its rows in that order, a
    repeated row once per repeat.  The empty set gathers only the zero pad
    row, so every set takes the same update and the empty set's is
    solve(I, P) = P.  Yields the (k, n, n) prior and posterior stacks of
    each time step; the caller reduces or copies them before it asks for the
    next step.  Raises ``NumericalError`` on a non-finite prior.
    """
    T, n = system.horizon, system.state_dim
    width = max(1, *map(len, sets))
    index = np.full((len(sets), width), len(bank) - 1)
    for r, ids in enumerate(sets):
        index[r, :len(ids)] = ids
    # steps of information summed per gather: a small batch (a trajectory)
    # sums many steps at once and still stays within one batch array
    block = max(1, _BATCH_FLOATS // (len(sets) * n * n))
    gain = np.empty((len(sets), n, n))
    eye = np.eye(n)
    prior = np.broadcast_to(system.sigma_init, (len(sets), n, n))
    for t in range(T):
        if not np.isfinite(prior).all():
            raise NumericalError(
                f"prediction covariance not finite at time index {t}; "
                "the covariance recursion overflowed"
            )
        if t % block == 0:
            info = bank[index[:, 0], t:t + block]
            for j in range(1, width):
                info += bank[index[:, j], t:t + block]
        np.matmul(prior, info[:, t % block], out=gain)
        gain += eye
        post = symmetrize(np.linalg.solve(gain, prior))
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
    """Covariance trajectory under the given sensor set (any iterable of ids).

    Knows no information classes, so it sums in ascending id order, while
    ``ObjectiveCache.trajectory`` sums in class order, as ``f`` does.
    """
    suite = scenario.suite
    chosen = chosen_ids(suite, ids)
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
            # a singular posterior (a singular prior left unsensed) has log-volume -inf
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
    system = scenario.system
    terms = [system.x1_mean @ sol.N[0] @ system.x1_mean,
             np.sum(sol.N[0] * system.sigma_init),
             *np.sum(system.W * sol.S, axis=(1, 2))]
    # summed in this order, one term at a time
    return float(np.cumsum(terms)[-1])


def kappa_bar(scenario: Scenario, sol: RiccatiSolution) -> float:
    """Cap on the sensing objective equivalent to the scenario's cost cap.

    Subtracting the sensor-independent offset from ``kappa`` makes the
    full cost ``ObjectiveCache.g(S) <= kappa`` hold exactly when the
    sensing objective ``ObjectiveCache.f(S) <= kappa_bar``.  May be negative, in which case
    no sensor set can meet the cap.
    """
    if scenario.kappa is None:
        raise ValueError("scenario defines no kappa; set one to use cost-capped selection")
    return scenario.kappa - cost_offset(scenario, sol)


class ObjectiveCache:
    """Memoized per-set evaluation of the selection objectives.

    The information bank, shape (m + 1, T, n, n), and each sensor's class
    representative are built once per scenario.  Values are memoized under
    the bit mask of their set, and behind that under the ascending tuple of
    its members' representatives, so each distinct multiset of information
    classes is propagated at most once per functional; the multisets one
    call has not seen yet are propagated together in batches of
    ``_batch_size(n)``.  The selection, ratio and Monte Carlo routines take
    the cache as their one evaluation context: its scenario and solution.
    """

    def __init__(self, scenario: Scenario, sol: RiccatiSolution):
        if sol.horizon != scenario.horizon:
            raise ValueError("solution horizon does not match scenario horizon")
        self.scenario = scenario
        self.sol = sol
        self._whitened = tuple(whiten_sensor(s) for s in scenario.suite)
        self._bank = _information_bank(self._whitened, scenario.horizon, scenario.state_dim)
        self._rep = _class_representatives(self._bank[:-1])
        self._f: dict[int, float] = {}
        self._logdet: dict[int, float] = {}
        self._f_classes: dict[tuple[int, ...], float] = {}
        self._logdet_classes: dict[tuple[int, ...], float] = {}
        self.offset = cost_offset(scenario, sol)

    def whitened(self, sensor_id: int) -> np.ndarray:
        return self._whitened[sensor_id]

    def trajectory(self, ids) -> CovarianceTrajectory:
        """Covariance trajectory of the set, its information summed as ``f`` sums it."""
        return _trajectory(self.scenario.system, self._bank,
                           _class_key(self._mask(ids), self._rep))

    @np.errstate(over="ignore", invalid="ignore")
    def _memoized(self, memo: dict, classes: dict, values, masks) -> list[float]:
        """Values of the sets with these masks.

        A mask not in ``memo`` takes the value of its class multiset in
        ``classes``; the multisets not there yet are propagated in batches.
        """
        masks = [operator.index(mask) for mask in masks]  # numpy ints become ints; floats raise
        missing = list(dict.fromkeys(mask for mask in masks if mask not in memo))
        count = len(self._whitened)
        for mask in missing:
            if mask < 0:
                raise ValidationError(f"sensor set mask {mask} is negative")
            if mask >> count:  # bit m would gather the bank's zero pad row
                self.scenario.suite.sensor(count + _mask_ids(mask >> count)[0])
        keys = {mask: _class_key(mask, self._rep) for mask in missing}
        asked = {}  # each new multiset and the first mask that asked for it
        for mask, key in keys.items():
            if key not in classes:
                asked.setdefault(key, mask)
        todo = list(asked)
        size = _batch_size(self.scenario.state_dim)
        for start in range(0, len(todo), size):
            batch = todo[start:start + size]
            steps = _steps(self.scenario.system, self._bank, batch)
            for key, value in zip(batch, values(post for _, post in steps).tolist()):
                if not math.isfinite(value):
                    raise NumericalError(f"objective of sensor set "
                                         f"{list(_mask_ids(asked[key]))} is not finite ({value})")
                classes[key] = value
        for mask, key in keys.items():
            memo[mask] = classes[key]
        return [memo[mask] for mask in masks]

    def f_many(self, masks) -> list[float]:
        """Memoized sensing objectives of the sets with these bit masks, in the order given."""
        return self._memoized(self._f, self._f_classes,
                              lambda posts: _sensing_values(self.sol, posts), masks)

    def logdet_many(self, masks) -> list[float]:
        """Memoized log-volume objectives of the sets with these bit masks, in the order given."""
        horizon = self.scenario.horizon
        return self._memoized(self._logdet, self._logdet_classes,
                              lambda posts: _logdet_values(posts, horizon), masks)

    def _mask(self, ids) -> int:
        """Bit mask of a sensor set given by ids; an unknown id raises ``ValidationError``."""
        return sum(1 << i for i in chosen_ids(self.scenario.suite, ids))

    def f(self, ids) -> float:
        """Memoized sensing objective of the set."""
        return self.f_many((self._mask(ids),))[0]

    def g(self, ids) -> float:
        """Memoized full LQG cost of the set."""
        return self.f(ids) + self.offset

    def logdet(self, ids) -> float:
        """Memoized log-volume objective of the set."""
        return self.logdet_many((self._mask(ids),))[0]

    def kappa_bar(self) -> float:
        return kappa_bar(self.scenario, self.sol)
