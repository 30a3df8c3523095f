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
wiring is a (T, p, n) array and its information a (T, n, n) array.  The
kernels read rows or information from L-step stacks, gathered once per batch
when L = 1 (every sensor time-invariant, as in the paper's applications), else L = T.

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

``ObjectiveCache`` indexes the sensors by information class: sensors whose
(L, n, n) information stacks are bit-identical form one class, numbered in
the order of its smallest id, and a set's filter depends on it only through
J[t].  It memoizes each functional as a sorted array of class multiset
keys, integers in mixed radix (Knuth, TAOCP 4A, 7.2.1.1), and their values,
so sweeps, enumerations and ratio scans propagate each distinct multiset
once, on its classes' rows or information in ascending class order, and
equal multisets give equal bits by construction.  Its batch calls take bit
masks whose bit i selects sensor i: ``f_many`` and ``logdet_many`` Python
ints, ``f_table`` an int64 array of at most ``TABLE_BITS`` sensors, keyed
in numpy; all then take one lookup path.  Its single-set calls take ids.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _parallel
from ._linalg import NumericalError, constant_over_time, inv_sqrt_pd, symmetrize
from .model import Scenario, Sensor, ValidationError, chosen_ids
from .riccati import RiccatiSolution

# Each step of a batch pays about a dozen numpy and LAPACK calls, worth
# several sets' arithmetic at n = 32, so a batch must be large; the set cap
# keeps n = 6 (2**16 // 36 = 1820 sets) from raising an enumeration's memory.
_BATCH_FLOATS = 1 << 16
_BATCH_SETS = 256

# Most sensors a value table indexes: its masks and class keys are int64.
TABLE_BITS = 62

def _batch_size(n: int) -> int:
    """Sets propagated together at state dimension n: at most ``_BATCH_SETS``, and at
    most ``_BATCH_FLOATS`` floats per (k, n, n) stack unless one set alone exceeds it."""
    return max(1, min(_BATCH_SETS, _BATCH_FLOATS // (n * n)))


def _whiten(sensors) -> tuple[list[np.ndarray], list[bool]]:
    """Per-step whitened wiring Cbar[t] = V[t]^{-1/2} C[t] of each sensor, shape (T, p, n),
    and whether each was whitened once.

    A sensor whose C and V are constant over time is whitened once: those of
    one horizon T and output dimension p share one ``inv_sqrt_pd`` of their
    (m_p, 1, p, p) noise stack and one matmul, each matrix to the bits of
    its own.
    """
    whitened = [None] * len(sensors)
    once = [constant_over_time(s.C) and constant_over_time(s.V) for s in sensors]
    invariant: dict[tuple[int, int], list[int]] = {}
    for j, sensor in enumerate(sensors):
        if once[j]:
            invariant.setdefault(sensor.C.shape[:2], []).append(j)
        else:
            whitened[j] = inv_sqrt_pd(sensor.V) @ sensor.C
    for (horizon, _), group in invariant.items():
        V = np.stack([sensors[j].V[:1] for j in group])
        C = np.stack([sensors[j].C[:1] for j in group])
        for j, white in zip(group, np.repeat(inv_sqrt_pd(V) @ C, horizon, axis=1)):
            whitened[j] = white
    return whitened, once


def whiten_sensor(sensor: Sensor) -> np.ndarray:
    """Per-step whitened wiring Cbar[t] = V[t]^{-1/2} C[t], shape (T, p, n); once if constant."""
    return _whiten((sensor,))[0][0]


def _one_step_if_constant(whitened, once, horizon: int):
    """The whitened stacks cut to L steps, and L: 1 when every one is constant, else T.

    A stack whitened once (``_whiten``) is constant; only the others are tested.
    """
    constant = all(was or constant_over_time(white) for white, was in zip(whitened, once))
    steps = 1 if constant else horizon
    return [white[:steps] for white in whitened], steps


def _gram(white: np.ndarray) -> np.ndarray:
    """Per-step information Cbar[t]' Cbar[t] of a (L, p, n) wiring, shape (L, n, n)."""
    return symmetrize(np.swapaxes(white, -1, -2) @ white)


def _information_classes(whitened, once, horizon: int, n: int):
    """One pass over the sensors: their information classes, the class bank and rows.

    Sensors whose information stacks are bit-identical form one class,
    numbered in the order of its smallest id; candidates share the bytes of
    their first step and are confirmed over the whole stack as integers, so
    0.0 and -0.0 differ.  Returns each sensor's class number, the (c + 1, L,
    n, n) bank of the classes' information and a zero pad row, the (L, sum p,
    n) stack of their smallest ids' whitened rows and each class's row ids,
    L being 1 when every whitened stack is constant over time, else T.
    """
    whitened, steps = _one_step_if_constant(whitened, once, horizon)
    number, infos, rows = [], [], []
    candidates: dict[bytes, list[int]] = {}
    for white in whitened:
        info = _gram(white)
        group = candidates.setdefault(info[0].tobytes(), [])
        bits = info.view(np.int64)
        c = next((c for c in group if np.array_equal(infos[c].view(np.int64), bits)), len(infos))
        if c == len(infos):
            group.append(c)
            infos.append(info)
            rows.append(white)
        number.append(c)
    bank = np.stack([*infos, np.zeros((steps, n, n))])
    widths = [white.shape[1] for white in rows]
    row_ids = tuple(range(end - p, end) for p, end in zip(widths, np.cumsum(widths)))
    stack = np.concatenate([np.empty((steps, 0, n)), *rows], axis=1)
    return tuple(number), bank, stack, row_ids


@dataclass(frozen=True)
class CovarianceTrajectory:
    """Prediction and filtering covariances, stacked as (T, n, n) arrays."""

    priors: np.ndarray = field(repr=False)
    posteriors: np.ndarray = field(repr=False)

    @property
    def horizon(self) -> int:
        return len(self.priors)


def _mask_ids(mask: int) -> tuple[int, ...]:
    """The ids of a nonnegative bit mask's set bits, ascending."""
    ids = []
    while mask:
        ids.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(ids)


def _mixed_radix(number) -> tuple[list[int], list[int]]:
    """Weights and bases of the class multiset keys, given each sensor's class number.

    A multiset's key holds its count of class c as digit c, whose base is the
    class's multiplicity + 1 and whose weight is the product of the bases
    before it, so distinct multisets have distinct keys, all below the
    product of the bases, at most 2^m.
    """
    bases = [number.count(c) + 1 for c in range(max(number, default=-1) + 1)]
    return [math.prod(bases[:c]) for c in range(len(bases))], bases


def _class_key(mask: int, weight) -> int:
    """Sum of ``weight[i]`` over a nonnegative mask's set bits: with each sensor's class weight
    (``_mixed_radix``), the set's class multiset key."""
    key = 0
    while mask:
        low = mask & -mask
        key += weight[low.bit_length() - 1]
        mask ^= low
    return key


def _class_keys(masks: np.ndarray, weight) -> np.ndarray:
    """``_class_key`` of each int64 mask, summed one sensor bit at a time in O(len(masks)) memory."""
    keys = np.zeros(len(masks), np.int64)
    bit = np.empty_like(keys)
    for i, w in enumerate(weight):
        np.right_shift(masks, i, out=bit)
        bit &= 1
        bit *= w
        keys += bit
    return keys


def _measured(size, widest: int, n: int):
    """0 < P < n for sets of ``size`` sensors none wider than ``widest`` rows; elementwise on arrays."""
    return (0 < size * widest) & (size * widest < n)


def _information_update(bank: np.ndarray, index: np.ndarray):
    """Information-form update of a batch of k sets: post = solve(I + prior J, prior).

    ``bank`` stacks (L, n, n) information stacks and a last, zero row, and
    ``index`` is a (k, width) array of bank rows; a set's row lists its
    classes in ascending order, or its own sensors in id order, a repeated
    class once per repeat.  A set sums its rows in that order.  The zero row
    pads the shorter sets of a batch, adding exactly nothing; the empty set
    gathers only it, so its update is solve(I, P) = P.  A one-step bank
    (L = 1) is summed once.
    """
    n, steps = bank.shape[-1], bank.shape[1]
    k, width = index.shape
    # steps of information summed per gather: a small batch (a trajectory)
    # sums many steps at once and still stays within one batch array
    block = max(1, _BATCH_FLOATS // (k * n * n))
    gain = np.empty((k, n, n))
    eye = np.eye(n)
    info = None

    def update(t: int, prior: np.ndarray) -> np.ndarray:
        nonlocal info, gain
        if t % block == 0 and t < steps:  # a one-step bank is summed at step 0 only
            info = bank[index[:, 0], t:t + block]
            for j in range(1, width):
                info += bank[index[:, j], t:t + block]
        np.matmul(prior, info[:, t % block % steps], out=gain)
        gain += eye
        return np.linalg.solve(gain, prior)

    return update


def _measurement_update(rows: np.ndarray, index: np.ndarray):
    """Measurement-form update of a batch of k sets of P rows each.

    ``rows`` is a (L, sum p, n) stack of whitened rows, gathered once if L = 1,
    and ``index`` a (k, P) array of row numbers; a set's rows R, shape (P, n),
    update its prior as post = prior - (R prior)' solve(I_P + R prior R', R prior).
    """
    eye = np.eye(index.shape[1])
    wiring = wiring_t = None

    def update(t: int, prior: np.ndarray) -> np.ndarray:
        nonlocal wiring, wiring_t
        if t < len(rows):  # one-step rows are gathered at step 0 only
            wiring = rows[t][index]
            wiring_t = np.swapaxes(wiring, -1, -2)
        sensed = wiring @ prior
        innovation = sensed @ wiring_t
        innovation += eye
        return prior - np.swapaxes(sensed, -1, -2) @ np.linalg.solve(innovation, sensed)

    return update


def _find(known: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each key is, or would go, in the sorted distinct ``known``; and whether it is."""
    at = np.searchsorted(known, keys)
    found = at < len(known)
    found[found] = known[at[found]] == keys[found]
    return at, found


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
def _trajectories(system, update, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (k, T, n, n) priors and posteriors of a batch of k sets, updated by ``update``."""
    T, n = system.horizon, system.state_dim
    priors = np.empty((k, T, n, n))
    posts = np.empty((k, T, n, n))
    for t, (prior, post) in enumerate(_steps(system, update, k)):
        priors[:, t] = prior
        posts[:, t] = post
    return priors, posts


def propagate_covariance(scenario: Scenario, ids) -> CovarianceTrajectory:
    """Covariance trajectory under the given sensor set (any iterable of ids).

    The standalone one-set function, with no caller in the package: it
    whitens only the chosen sensors and takes the update ``ObjectiveCache``
    takes for a set of this size, on their own rows in ascending id order,
    where ``ObjectiveCache.trajectory`` takes its classes' in class order.
    """
    suite = scenario.suite
    T, n = scenario.horizon, scenario.state_dim
    chosen = chosen_ids(suite, ids)
    whitened, steps = _one_step_if_constant(*_whiten([suite.sensor(i) for i in chosen]), T)
    if _measured(len(chosen), max((s.output_dim for s in suite), default=0), n):
        rows = np.concatenate(whitened, axis=1)
        update = _measurement_update(rows, np.arange(rows.shape[1])[None])
    else:
        bank = np.stack([*map(_gram, whitened), np.zeros((steps, n, n))])
        # the empty set gathers the zero row, bank[0]
        update = _information_update(bank, np.arange(max(1, len(chosen)))[None])
    priors, posts = _trajectories(scenario.system, update, 1)
    return CovarianceTrajectory(priors=priors[0], posteriors=posts[0])


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
            raise NumericalError(f"filtering covariance not positive definite at time index {t}")
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


class ObjectiveCache:
    """Memoized per-set evaluation of the selection objectives.

    One pass over the sensors, once per scenario, whitens them (``_whiten``:
    the time-invariant ones of one output dimension in one call) and indexes
    them by information class (``_information_classes``): each sensor's
    class number, the (c + 1, L, n, n) class bank and the (L, sum p, n)
    classes' rows, L = 1 when every sensor is time-invariant, else T.
    Each functional's memo is a sorted array of class multiset keys
    (``_mixed_radix``: a set's key sums its members' weights) and a float64
    array of their values, 16 bytes a multiset.  A batch call keys its masks
    and looks them up (``_lookup``); the multisets not memoized are propagated
    in ``_batches`` of at most ``_BATCH_SETS`` (256) sets and ``_BATCH_FLOATS``
    (512 KB) per (k, n, n) stack, and merged once, here or from a worker
    (``_parallel``, ``_recorded``).  The selection, ratio and Monte Carlo
    routines take the cache as their one evaluation context.
    """

    def __init__(self, scenario: Scenario, sol: RiccatiSolution):
        if sol.horizon != scenario.horizon:
            raise ValueError("solution horizon does not match scenario horizon")
        self.scenario = scenario
        self.sol = sol
        T, n = scenario.horizon, scenario.state_dim
        whitened, once = _whiten(scenario.suite.sensors)
        self._whitened = tuple(whitened)
        self._class, self._bank, self._rows, self._row_ids = _information_classes(
            whitened, once, T, n)
        self._widest = max((white.shape[1] for white in self._whitened), default=0)
        radix, bases = _mixed_radix(self._class)
        self._weight = tuple(radix[c] for c in self._class)
        # keys past int64 (more than TABLE_BITS sensors) are decoded as Python ints
        self._radix = np.array(radix, dtype=np.int64 if math.prod(bases) <= 1 << 63 else object)
        self._base = np.array(bases, dtype=np.intp)
        self._row_spans = (np.array([ids.start for ids in self._row_ids], dtype=np.intp),
                           np.array([len(ids) for ids in self._row_ids], dtype=np.intp))
        # each functional's memo: sorted distinct multiset keys and their values
        self._memo = {name: (np.empty(0, self._radix.dtype), np.empty(0))
                      for name in ("f", "logdet")}
        self.offset = cost_offset(scenario, sol)

    def whitened(self, sensor_id: int) -> np.ndarray:
        return self._whitened[sensor_id]

    def trajectory(self, ids) -> CovarianceTrajectory:
        """Covariance trajectory of the set, its information summed as ``f`` sums it: the
        one-set case of ``trajectories``."""
        (_, priors, posts), = self.trajectories((self._mask(ids),))
        return CovarianceTrajectory(priors=priors[0], posteriors=posts[0])

    def trajectories(self, masks):
        """Covariance trajectories of the sets with these masks, one batch at a time.

        Yields each batch's positions in ``masks`` and its (k, T, n, n) priors
        and posteriors, so at most one batch is held.  The sets go in
        ``_batches`` of ``_batch_size(n)``, as ``_fill``'s multisets do; a
        set's trajectory is the bits of its own, whatever its batch.
        """
        keys = self._keyed(masks)[1]
        for batch in self._batches(keys, _batch_size(self.scenario.state_dim)):
            yield (batch, *_trajectories(self.scenario.system, self._update(keys[batch]),
                                         len(batch)))

    def _update(self, keys: np.ndarray):
        """The update kernel of a batch of class multiset keys, all of one form and row count.

        Each set's gather index lists its classes in ascending order, each as
        often as its count: as bank rows, padded with the zero row, in
        information form, and as each class's whitened rows in measurement form.
        """
        counts = (keys[:, None] // self._radix % self._base).astype(np.intp)  # (k, classes)
        classes = len(self._base)
        members = np.repeat(np.arange(counts.size) % classes, counts.ravel())  # set by set
        if _measured(counts[0].sum(), self._widest, self.scenario.state_dim):
            starts, widths = self._row_spans
            width = widths[members]
            # the members' rows run back to back, member j's from starts[members[j]]
            rows = np.repeat(starts[members] - np.cumsum(width) + width, width)
            rows += np.arange(len(rows))
            return _measurement_update(self._rows, rows.reshape(len(keys), -1))
        sizes = counts.sum(axis=1)
        index = np.full((len(keys), max(1, sizes.max())), classes)
        index[np.arange(index.shape[1]) < sizes[:, None]] = members  # row by row, in order
        return _information_update(self._bank, index)

    def _batches(self, keys: np.ndarray, size: int) -> list[np.ndarray]:
        """Positions of the class multiset keys in batches of at most ``size``: the information
        form first, then each row count P of the measurement form, each stream sorted by set
        size, so a batch gathers few zero pad rows, and by position within a size."""
        sizes, rows = np.zeros((2, len(keys)), dtype=np.intp)
        step = max(1, _BATCH_FLOATS // max(1, len(self._base)))  # keys decoded at a time
        for start in range(0, len(keys), step):
            counts = (keys[start:start + step, None] // self._radix % self._base).astype(np.intp)
            sizes[start:start + step] = counts.sum(axis=1)
            rows[start:start + step] = counts @ self._row_spans[1]
        label = np.where(_measured(sizes, self._widest, self.scenario.state_dim), rows, -1)
        order = np.lexsort((sizes, label))
        streams = np.split(order, np.flatnonzero(np.diff(label[order])) + 1)
        return [todo[start:start + size]
                for todo in streams for start in range(0, len(todo), size)]

    def _values(self, functional: str, keys: np.ndarray) -> np.ndarray:
        """``f`` or ``logdet`` values of a batch of class multiset keys, propagated together."""
        posts = (post for _, post in _steps(self.scenario.system, self._update(keys), len(keys)))
        if functional == "logdet":
            return _logdet_values(posts, self.scenario.horizon)
        return _sensing_values(self.sol, posts)

    def _answer(self, functional: str, batches) -> list:
        """``_values`` of each batch in order, up to the first that raises or is not finite.

        A batch's entry is its value array, or the exception it raised; the
        batches after such a batch are never memoized, so they are not computed.
        """
        done = []
        for keys in batches:
            done.append(_parallel.kept(self._values, functional, keys))  # raised by ``_fill``
            if isinstance(done[-1], Exception) or not np.isfinite(done[-1]).all():
                break
        return done

    def _recorded(self, function, args) -> tuple:
        """The ``kept`` outcome of ``function(self, *args)`` and the memo entries it added, a
        key and a value array per functional: a worker's answer, merged by ``_merge``."""
        before = dict(self._memo)  # a merge replaces a memo's arrays
        outcome = _parallel.kept(function, self, *args)
        added = {}
        for name, (keys, values) in self._memo.items():
            new = ~_find(before[name][0], keys)[1]
            added[name] = keys[new], values[new]
        return outcome, added

    def _merge(self, added: dict) -> None:
        """Memoize each functional's distinct multisets ``keys`` with their values, given as
        ``{functional: (keys, values)}``; a memoized one keeps its."""
        for functional, (keys, values) in added.items():
            known, memo = self._memo[functional]
            new = ~_find(known, keys)[1]
            if new.any():  # a call that adds nothing copies nothing
                keys = np.concatenate((known, keys[new]))
                order = np.argsort(keys, kind="stable")  # timsort: the memo is one sorted run
                self._memo[functional] = keys[order], np.concatenate((memo, values[new]))[order]

    def _fill(self, functional: str, keys: np.ndarray, masks, asked: np.ndarray) -> None:
        """Propagate the distinct class multisets ``keys``, none memoized, and memoize them.

        ``masks[asked[j]]`` is the first mask that asked for ``keys[j]``.  With
        ``len(keys)`` sets of work that ``_parallel.processes`` gives more than
        one process, batch i, cut to a worker's share, goes to worker i % workers
        (``_parallel.deal``; this process is worker 0).  A set's value does not
        depend on where its batch ran or on its size.  The first batch that raised,
        or holds a value that is not finite (``NumericalError`` naming its first
        mask), raises as in one process, the batches before it memoized.
        """
        n = self.scenario.state_dim
        workers = _parallel.processes(len(keys), self.scenario.system)
        batches = self._batches(keys, min(_batch_size(n), -(-len(keys) // workers)))
        workers = min(workers, len(batches))
        shares = _parallel.deal(self, [(ObjectiveCache._answer,
                                        (functional, [keys[b] for b in batches[w::workers]]))
                                       for w in range(workers)])
        done = []
        try:
            for i, batch in enumerate(batches):
                got = _parallel.taken(shares[i % workers], i // workers)
                if not np.isfinite(got).all():
                    j = int(np.argmin(np.isfinite(got)))
                    named = list(_mask_ids(int(masks[asked[batch[j]]])))
                    raise NumericalError(f"objective of sensor set {named} is not finite "
                                         f"({float(got[j])})")
                done.append((batch, got))
        finally:
            if done:
                batch, got = (np.concatenate(part) for part in zip(*done))
                self._merge({functional: (keys[batch], got)})

    def _keyed(self, masks) -> tuple[list[int], np.ndarray]:
        """The masks as ints and their class multiset keys, in the radix's dtype; a negative
        mask or one with a bit past the suite raises."""
        masks = [operator.index(mask) for mask in masks]  # numpy ints become ints; floats raise
        count = len(self._class)
        for mask in masks:
            if mask < 0:
                raise ValidationError(f"sensor set mask {mask} is negative")
            if mask >> count:  # a bit past the suite names no class
                self.scenario.suite.sensor(count + _mask_ids(mask >> count)[0])
        return masks, np.array([_class_key(mask, self._weight) for mask in masks],
                               dtype=self._radix.dtype)

    @np.errstate(over="ignore", invalid="ignore")
    def _lookup(self, functional: str, masks, keys: np.ndarray) -> np.ndarray:
        """Values of the sets with these masks and class multiset keys, as a float64 array; the
        multisets not memoized are filled, in the order their first masks come."""
        at, found = _find(self._memo[functional][0], keys)
        if not found.all():
            missing = np.flatnonzero(~found)
            asked = missing[np.sort(np.unique(keys[missing], return_index=True)[1])]
            self._fill(functional, keys[asked], masks, asked)
            at = np.searchsorted(self._memo[functional][0], keys)
        return self._memo[functional][1][at]

    def f_many(self, masks) -> list[float]:
        """Memoized sensing objectives of the sets with these bit masks, in the order given."""
        return self._lookup("f", *self._keyed(masks)).tolist()

    def f_table(self, masks) -> np.ndarray:
        """``f_many`` of a 1-D array of masks as a float64 array: the enumerations' path.

        The masks are keyed in numpy, so a 2^m table makes no Python int per
        mask; a suite of more than ``TABLE_BITS`` sensors raises ``ValueError``.
        """
        count = len(self._class)
        if count > TABLE_BITS:
            raise ValueError(f"a value table indexes at most {TABLE_BITS} sensors, not {count}")
        array = np.asarray(masks)
        if array.dtype.kind not in "iu" or (array >> count).any():  # raise as f_many does
            array = np.array(self._keyed(masks)[0], dtype=np.int64)
        masks = array.astype(np.int64, copy=False)
        return self._lookup("f", masks, _class_keys(masks, self._weight))

    def logdet_many(self, masks) -> list[float]:
        """Memoized log-volume objectives of the sets with these bit masks, in the order given."""
        return self._lookup("logdet", *self._keyed(masks)).tolist()

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
        """Cap on the sensing objective equivalent to the scenario's cost cap.

        Subtracting the sensor-independent offset from ``kappa`` makes the
        full cost ``g(S) <= kappa`` hold exactly when the sensing objective
        ``f(S) <= kappa_bar``.  May be negative, in which case no sensor set
        can meet the cap.
        """
        if self.scenario.kappa is None:
            raise ValueError("scenario defines no kappa; set one to use cost-capped selection")
        return self.scenario.kappa - self.offset
