"""Filtering covariance propagation and the sensor-dependent cost functionals.

For a fixed sensor set the filtering error covariance follows the standard
predict/update recursion, with whitened sensors.  Whitening replaces each
(C, V) pair by Cbar = V^{-1/2} C; a set's rows R[t] stack its sensors'
Cbar[t], P rows in all, and its information is J[t] = R[t]' R[t], a sum of
one term per sensor.  The update takes one of two forms:

    post[0]  from prior[0] = sigma_init
    post[t]  = prior[t] - (R prior[t])' solve(I_P + R prior[t] R', R prior[t])   (measurement)
             = solve( I + prior[t] J[t], prior[t] )                               (information)
    prior[t+1] = A[t] post[t] A[t]' + W[t]

Both equal inv( inv(prior[t]) + J[t] ) and neither inverts the prior, so
the prior may be singular.  A nonempty set with fewer rows than states
(``_measured``) takes the P x P measurement form, within about 1e-14 of the
Joseph form on the benchmark formations where the information form is 1e-11
off; every other set, the empty set's J = 0 included, the information form.
Per-step matrices are stacked along a leading time axis: a sensor's whitened
wiring is a (T, p, n) array, its information a (T, n, n) array, the
information of all m sensors one (m, T, n, n) bank and their rows one
(T, sum p, n) stack.

The one recursion, ``_steps``, advances a batch of k sets together on
(k, n, n) stacks through one update kernel and hands each step to its
caller, so a caller reduces as it goes and no (k, T, n, n) array is ever
held.  Two scalar functionals of the posteriors drive sensor selection:

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
scans propagate each distinct multiset once, on its representatives' rows
or information in ascending representative order, and equal multisets give
equal bits by construction.  Its batch calls take masks, its single-set
calls ids.
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


def _measured(size: int, widest: int, n: int) -> bool:
    """0 < P < n for a set of ``size`` sensors none wider than ``widest`` rows, counting none."""
    return 0 < size * widest < n


def _information_update(bank: np.ndarray, sets):
    """Information-form update of a batch of k sets: post = solve(I + prior J, prior).

    Each set is a nondecreasing sequence of rows of ``bank``, an information
    bank from ``_information_bank``; a set sums its rows in that order, a
    repeated row once per repeat.  The empty set gathers only the zero pad
    row, so its update is solve(I, P) = P.
    """
    n = bank.shape[-1]
    width = max(1, *map(len, sets))
    index = np.full((len(sets), width), len(bank) - 1)
    for r, ids in enumerate(sets):
        index[r, :len(ids)] = ids
    # steps of information summed per gather: a small batch (a trajectory)
    # sums many steps at once and still stays within one batch array
    block = max(1, _BATCH_FLOATS // (len(sets) * n * n))
    gain = np.empty((len(sets), n, n))
    eye = np.eye(n)
    info = None

    def update(t: int, prior: np.ndarray) -> np.ndarray:
        nonlocal info, gain
        if t % block == 0:
            info = bank[index[:, 0], t:t + block]
            for j in range(1, width):
                info += bank[index[:, j], t:t + block]
        np.matmul(prior, info[:, t % block], out=gain)
        gain += eye
        return np.linalg.solve(gain, prior)

    return update


def _measurement_update(rows: np.ndarray, index: np.ndarray):
    """Measurement-form update of a batch of k sets of P rows each.

    ``rows`` is a (T, sum p, n) stack of whitened rows and ``index`` a (k, P)
    array of row numbers; a set's rows R, shape (P, n), update its prior as
    post = prior - (R prior)' solve(I_P + R prior R', R prior).
    """
    eye = np.eye(index.shape[1])

    def update(t: int, prior: np.ndarray) -> np.ndarray:
        wiring = rows[t][index]
        sensed = wiring @ prior
        innovation = sensed @ np.swapaxes(wiring, -1, -2)
        innovation += eye
        return prior - np.swapaxes(sensed, -1, -2) @ np.linalg.solve(innovation, sensed)

    return update


def _steps(system, update, k: int):
    """The covariance recursion for a batch of k sensor sets, one step at a time.

    ``update(t, prior)`` maps the (k, n, n) priors of step t to their
    posteriors: ``_information_update`` or ``_measurement_update``.  Yields
    the (k, n, n) prior and posterior stacks of each time step; the caller
    reduces or copies them before it asks for the next step.  Raises
    ``NumericalError`` on a non-finite prior.
    """
    T, n = system.horizon, system.state_dim
    prior = np.broadcast_to(system.sigma_init, (k, n, n))
    for t in range(T):
        if not np.isfinite(prior).all():
            raise NumericalError(
                f"prediction covariance not finite at time index {t}; "
                "the covariance recursion overflowed"
            )
        post = symmetrize(update(t, prior))
        yield prior, post
        if t + 1 < T:
            A, W = system.A[t], system.W[t]
            prior = symmetrize(A @ post @ A.T + W)


@np.errstate(over="ignore", invalid="ignore")
def _trajectory(system, update) -> CovarianceTrajectory:
    """Stacked priors and posteriors of one set, updated by ``update``."""
    T, n = system.horizon, system.state_dim
    priors = np.empty((T, n, n))
    posts = np.empty((T, n, n))
    for t, (prior, post) in enumerate(_steps(system, update, 1)):
        priors[t] = prior[0]
        posts[t] = post[0]
    return CovarianceTrajectory(priors=priors, posteriors=posts)


def propagate_covariance(scenario: Scenario, ids) -> CovarianceTrajectory:
    """Covariance trajectory under the given sensor set (any iterable of ids).

    Takes the update ``ObjectiveCache`` takes for a set of this size, on the
    chosen sensors' own rows in ascending id order: it knows no information
    classes, while ``ObjectiveCache.trajectory`` takes them in class order.
    """
    suite = scenario.suite
    T, n = scenario.horizon, scenario.state_dim
    chosen = chosen_ids(suite, ids)
    whitened = [whiten_sensor(suite.sensor(i)) for i in chosen]
    if _measured(len(chosen), max((s.output_dim for s in suite), default=0), n):
        rows = np.concatenate(whitened, axis=1)
        update = _measurement_update(rows, np.arange(rows.shape[1])[None])
    else:
        update = _information_update(_information_bank(whitened, T, n), [range(len(chosen))])
    return _trajectory(scenario.system, update)


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
        try:
            diag = np.diagonal(np.linalg.cholesky(post), axis1=-2, axis2=-1)
        except np.linalg.LinAlgError:
            diag = None
        if diag is None or (diag <= 0.0).any():
            # a singular posterior (a singular prior left unsensed) has log-volume -inf
            raise NumericalError(
                f"filtering covariance not positive definite at time index {t}"
            )
        total = total + 2.0 * np.sum(np.log(diag), axis=1)
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

    The information bank, shape (m + 1, T, n, n), the (T, sum p, n) row
    stack and each sensor's class representative are built once per
    scenario.  Values are memoized under the bit mask of their set, and
    behind that under the ascending tuple of its members' representatives,
    so each distinct multiset of information classes is propagated at most
    once per functional.  The multisets one call has not seen yet are
    propagated in batches of ``_batch_size(n)``, grouped by exact row count
    P in measurement form and in one stream in information form.  The
    selection, ratio and Monte Carlo routines take the cache as their one
    evaluation context: its scenario and solution.
    """

    def __init__(self, scenario: Scenario, sol: RiccatiSolution):
        if sol.horizon != scenario.horizon:
            raise ValueError("solution horizon does not match scenario horizon")
        self.scenario = scenario
        self.sol = sol
        T, n = scenario.horizon, scenario.state_dim
        self._whitened = tuple(whiten_sensor(s) for s in scenario.suite)
        self._bank = _information_bank(self._whitened, T, n)
        self._rep = _class_representatives(self._bank[:-1])
        widths = [white.shape[1] for white in self._whitened]
        self._rows = np.concatenate([np.empty((T, 0, n)), *self._whitened], axis=1)
        self._row_ids = tuple(range(end - p, end) for p, end in zip(widths, np.cumsum(widths)))
        self._widest = max(widths, default=0)
        self._f: dict[int, float] = {}
        self._logdet: dict[int, float] = {}
        self._f_classes: dict[tuple[int, ...], float] = {}
        self._logdet_classes: dict[tuple[int, ...], float] = {}
        self.offset = cost_offset(scenario, sol)

    def whitened(self, sensor_id: int) -> np.ndarray:
        return self._whitened[sensor_id]

    def trajectory(self, ids) -> CovarianceTrajectory:
        """Covariance trajectory of the set, its information summed as ``f`` sums it."""
        key = _class_key(self._mask(ids), self._rep)
        return _trajectory(self.scenario.system, self._update([key]))

    def _row_count(self, key) -> int | None:
        """The row count P of a class multiset in measurement form, None in information form."""
        if _measured(len(key), self._widest, self.scenario.state_dim):
            return sum(len(self._row_ids[r]) for r in key)
        return None

    def _update(self, keys):
        """The update kernel of a batch of class multisets, all of one ``_row_count``."""
        if self._row_count(keys[0]) is None:
            return _information_update(self._bank, keys)
        index = np.array([[j for r in key for j in self._row_ids[r]] for key in keys])
        return _measurement_update(self._rows, index)

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
        # measurement-form sets batch by exact P; a batch of information-form
        # sets of near-equal size gathers few zero pad rows
        streams: dict[int | None, list] = {}
        for key in sorted(asked, key=len):
            streams.setdefault(self._row_count(key), []).append(key)
        size = _batch_size(self.scenario.state_dim)
        for todo in streams.values():
            for start in range(0, len(todo), size):
                batch = todo[start:start + size]
                steps = _steps(self.scenario.system, self._update(batch), len(batch))
                for key, value in zip(batch, values(post for _, post in steps).tolist()):
                    if not math.isfinite(value):
                        named = list(_mask_ids(asked[key]))
                        raise NumericalError(f"objective of sensor set {named} is not finite "
                                             f"({value})")
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
