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
J[t].  It memoizes the functionals under a set's multiset of classes, an
integer key in mixed radix (Knuth, TAOCP 4A, 7.2.1.1), so sweeps,
enumerations and ratio scans propagate each distinct multiset once, on its
classes' rows or information in ascending class order, and equal multisets
give equal bits by construction.  Its batch calls take bit masks whose bit
i selects sensor i: ``f_many`` takes Python ints, for scattered calls, and
``f_table`` an int64 array, for enumerations of at most ``TABLE_BITS``
sensors, keyed in numpy.  Its single-set calls take ids.

A call whose work, new multisets * T * n^2, is two ``_FORK_WORK`` or more,
in a process that may run on more than one CPU (``os.sched_getaffinity``),
deals its batches to workers, one per CPU and per ``_FORK_WORK``, and
merges their values in the one-process order, so the values, the memo and
any error are those of a fill in one process.  This process is worker 0;
the others are the cache's, forked once (``_fork_worker``) and sent any
module-level function to run on their copy of the cache (``_deal``): a
fill's batches, a sweep's method columns or Monte Carlo shares.  Value
tables (from 512 sets at n = 6) and formation a8's greedy steps (35-37
sets, from 18 at n = 32) are dealt as fills; a formation a4 sweep's fills
(11 sets, from 72 at n = 16) are not, but its columns and Monte Carlo sets
are.  No switch: ``taskset -c 0`` pins a run to one core; without
``os.fork`` or ``os.sched_getaffinity``, and in any forked child, everything
runs in one process.  Python 3.12 and later may warn that forking a
process with threads (OpenBLAS starts some) can deadlock the child; the
workers call only numpy and LAPACK.  Tested on 3.11.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import pickle
import weakref
from dataclasses import dataclass, field

import numpy as np

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

# Work, new multisets * T * n**2, of each worker at least: a full batch at
# n = 6, T = 20 (a 128-set batch there costs as much), 9 sets at n = 32.  A
# set costs about n**1.5 (12-16 times n = 6's at n = 32); n**2 deals formation
# a8's greedy steps, 35-37 sets, with a margin of two.  A cache forks a worker
# once, in 2-4 ms; a later fill's exchange with it costs about 0.1 ms.
_FORK_WORK = 256 * 20 * 6 * 6


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
    """Sum of ``weight[i]`` over a nonnegative mask's set bits.

    With each sensor's class weight (``_mixed_radix``) it is the set's class
    multiset key; with unit weights its size, with row counts its P.
    """
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


def _cpus() -> int:
    """CPUs this process may run on: 1 where the platform cannot tell or cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class _Pool(list):
    """A cache's workers, (pid, request end, reply end) each; ``busy`` while a deal waits
    on them, and for good in a forked child: a call there runs in one process."""

    busy = False


_POOLS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()  # by id


def _disown_pools() -> None:
    """In a forked child, close the inherited workers' pipe ends and empty their pools, so
    only its cache holds a worker's request pipe open and reaps it."""
    for pool in _POOLS.values():
        for _, *ends in pool:
            for end in ends:
                os.close(end)
        pool.clear()
        pool.busy = True


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_disown_pools)


def _outcome(cache, function, args):
    """``function(cache, *args)``, or the exception it raised."""
    try:
        return function(cache, *args)
    except Exception as exc:  # raised by ``_deal`` without the frames that would
        return exc.with_traceback(None)  # hold it in a cycle


def _fork_worker(cache) -> tuple[int, int, int]:
    """Fork a worker of ``cache``: its pid and this process's ends of its pipes.

    It answers each request, a module-level function and its arguments, with
    the ``_outcome`` of the function on the worker's copy of the cache, whose
    memo is the owner's at the fork plus what its own calls added, and the
    ``f`` and ``logdet`` memo entries the call added.  It leaves by
    ``os._exit``, running no exit handler: at EOF, or on an error.
    """
    request, reply = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for end in (*request, *reply):
            os.close(end)
        raise
    if pid == 0:
        code = 1
        try:
            import signal
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # a terminal's ^C is this process's
            for end in (request[1], reply[0]):
                os.close(end)  # a write fails, not blocks, once this process is gone
            with os.fdopen(request[0], "rb") as asked, os.fdopen(reply[1], "wb") as answers:
                memos = cache._f, cache._logdet
                while asked.peek(1):  # empty at EOF: the cache let this worker go
                    sizes = [len(memo) for memo in memos]
                    outcome = _outcome(cache, *pickle.load(asked))
                    pickle.dump((outcome, *(list(itertools.islice(memo.items(), size, None))
                                            for memo, size in zip(memos, sizes))), answers)
                    answers.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(request[0])
    os.close(reply[1])
    return pid, request[1], reply[0]


def _stop(workers: list, kill: bool = False) -> None:
    """Close this process's ends of each worker's pipes, so it leaves, or ``kill`` it; reap it."""
    while workers:
        pid, *ends = workers.pop()
        for end in ends:
            os.close(end)
        if kill:
            import signal  # here and in a worker only: importing it costs about 0.7 ms
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


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
    Each functional has one memo, keyed by a set's class multiset key
    (``_mixed_radix``), the sum of its members' weights, so each distinct
    multiset is propagated at most once per functional, whichever batch
    call asks.  The multisets one call has not seen yet are propagated in
    batches of ``_batch_size(n)`` sets, grouped by exact row count P in
    measurement form and in one stream in information form.  A batch holds
    at most ``_BATCH_SETS`` (256) sets and ``_BATCH_FLOATS`` (2^16 floats,
    512 KB) per (k, n, n) stack, and a fill with enough work is dealt to
    workers (``_fill``, ``_deal``), at most one fewer than the CPUs, forked
    once and reaped when the cache is released or the interpreter exits;
    one thread at a time may fill.  The selection, ratio and Monte Carlo routines take
    the cache as their one evaluation context: its scenario and solution.
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
        self._sensor_rows = tuple(white.shape[1] for white in self._whitened)
        self._widest = max(self._sensor_rows, default=0)
        radix, bases = _mixed_radix(self._class)
        self._weight = tuple(radix[c] for c in self._class)
        # keys past int64 (more than TABLE_BITS sensors) are decoded as Python ints
        self._radix = np.array(radix, dtype=np.int64 if math.prod(bases) <= 1 << 63 else object)
        self._base = np.array(bases, dtype=np.intp)
        self._row_spans = (np.array([ids.start for ids in self._row_ids], dtype=np.intp),
                           np.array([len(ids) for ids in self._row_ids], dtype=np.intp))
        self._f: dict[int, float] = {}
        self._logdet: dict[int, float] = {}
        self.offset = cost_offset(scenario, sol)
        self._workers = _Pool()
        _POOLS[id(self._workers)] = self._workers
        weakref.finalize(self, _stop, self._workers)  # holds the pool, not the cache

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
        and posteriors, so at most one batch is held.  The sets are batched
        as ``_fill`` batches its multisets: by update form and row count P,
        each stream sorted by size, ``_batch_size(n)`` sets at most.  A set's
        trajectory is the bits of its own, whatever its batch.
        """
        masks = self._masks(masks)
        keys = np.array([_class_key(mask, self._weight) for mask in masks], dtype=self._radix.dtype)
        size = _batch_size(self.scenario.state_dim)
        for stream in self._streams(masks):
            for start in range(0, len(stream), size):
                batch = stream[start:start + size]
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

    def _streams(self, masks: list[int]) -> list[list[int]]:
        """Positions of the masks grouped by update form, each group sorted by set size: the
        information form first, then each row count P of the measurement form, ascending."""
        streams: dict[int, list[int]] = {}
        for j in sorted(range(len(masks)), key=lambda j: masks[j].bit_count()):
            measured = _measured(masks[j].bit_count(), self._widest, self.scenario.state_dim)
            label = _class_key(masks[j], self._sensor_rows) if measured else -1
            streams.setdefault(label, []).append(j)
        return [streams[label] for label in sorted(streams)]

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
            try:
                got = self._values(functional, keys)
            except Exception as exc:  # raised by the merge where one process would
                return [*done, exc.with_traceback(None)]
            done.append(got)
            if not np.isfinite(got).all():
                break
        return done

    def _processes(self, work: int) -> int:
        """Processes for a call of ``work`` set-steps times n**2: from two ``_FORK_WORK``
        parts, one per part and per CPU, unless the pool is busy; else one."""
        parts = work // _FORK_WORK
        return min(_cpus(), parts) if parts > 1 and not self._workers.busy else 1

    def _deal(self, calls: list) -> list:
        """The results of ``calls``, (module-level function, args) pairs, each run on a cache.

        One call runs here.  Of more, call 0 runs here and call i in worker i,
        forked when the pool has fewer, on its copy of the cache; the memo
        entries it adds are merged here, and the first call that raised
        raises once all have answered.  A deal that leaves early or reads an
        answer short kills every worker, and the next forks afresh.
        """
        if len(calls) == 1:
            function, args = calls[0]
            return [function(self, *args)]
        pool = self._workers
        try:
            while len(pool) < len(calls) - 1:
                pool.append(_fork_worker(self))
            pool.busy = True
            for call, (_, request, _) in zip(calls[1:], pool):
                with os.fdopen(request, "wb", closefd=False) as asked:  # written whole
                    pickle.dump(call, asked)
            outcomes = [_outcome(self, *calls[0])]
            for pid, _, reply in pool[:len(calls) - 1]:
                try:
                    with os.fdopen(reply, "rb", closefd=False) as answers:
                        outcome, f, logdet = pickle.load(answers)
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(f"fill worker {pid} exited without its values") from None
                self._f.update(f)
                self._logdet.update(logdet)
                outcomes.append(outcome)
        except BaseException:
            _stop(pool, kill=True)
            raise
        finally:
            pool.busy = False
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                try:
                    raise outcome
                finally:  # held in no frame its traceback holds: no cycle keeps the cache
                    del outcome, outcomes
        return outcomes

    def _fill(self, memo: dict, functional: str, keys: np.ndarray, firsts, streams) -> None:
        """Propagate the class multisets ``keys`` and memoize their values.

        ``keys`` are multisets not in ``memo`` and ``firsts[j]`` the first mask
        that asked for ``keys[j]``.  ``streams`` are sequences of positions in
        ``keys``, in order: the information-form multisets, then those of each
        exact row count P in measurement form, each sorted by size, so a batch
        gathers few zero pad rows.  They go in batches of ``_batch_size(n)``
        sets, each (k, n, n) stack of a batch at most 512 KB.
        A value that is not finite raises ``NumericalError`` naming its first
        mask, and its batch is not memoized.

        A call with work ``len(keys) * T * n**2`` that ``_processes`` gives
        more than one process cuts its batches to a worker's share of
        ``keys``, at most one worker per batch, and deals batch i to worker i %
        workers (``_deal``; this process is worker 0).  A set's value does not
        depend on where its batch ran or on its size, and the batches are
        merged in the order above: the first that raised, or holds a value
        that is not finite, raises as in one process, with exactly the batches
        before it memoized.
        """
        T, n = self.scenario.horizon, self.scenario.state_dim
        workers = self._processes(len(keys) * T * n * n)
        size = min(_batch_size(n), -(-len(keys) // workers))
        batches = [todo[start:start + size]
                   for todo in streams for start in range(0, len(todo), size)]
        workers = min(workers, len(batches))
        shares = self._deal([(ObjectiveCache._answer,
                              (functional, [keys[b] for b in batches[w::workers]]))
                             for w in range(workers)])
        for i, batch in enumerate(batches):
            got = shares[i % workers][i // workers]
            if isinstance(got, Exception):
                try:
                    raise got
                finally:  # nor in this one: the cache goes with its last reference
                    del got, shares
            if not np.isfinite(got).all():
                j = int(np.argmin(np.isfinite(got)))
                named = list(_mask_ids(int(firsts[batch[j]])))
                raise NumericalError(f"objective of sensor set {named} is not finite "
                                     f"({float(got[j])})")
            memo.update(zip(keys[batch].tolist(), got.tolist()))

    def _masks(self, masks) -> list[int]:
        """The masks as ints; a negative one or one with a bit past the suite raises."""
        masks = [operator.index(mask) for mask in masks]  # numpy ints become ints; floats raise
        count = len(self._class)
        for mask in masks:
            if mask < 0:
                raise ValidationError(f"sensor set mask {mask} is negative")
            if mask >> count:  # a bit past the suite names no class
                self.scenario.suite.sensor(count + _mask_ids(mask >> count)[0])
        return masks

    @np.errstate(over="ignore", invalid="ignore")
    def _memoized(self, memo: dict, functional: str, masks) -> list[float]:
        """Values of the sets with these masks; multisets not in ``memo`` are propagated."""
        masks = self._masks(masks)
        keys = [_class_key(mask, self._weight) for mask in masks]
        asked = {}  # each new multiset and the first mask that asked for it
        for mask, key in zip(masks, keys):
            if key not in memo:
                asked.setdefault(key, mask)
        if asked:
            firsts = list(asked.values())
            self._fill(memo, functional, np.array(list(asked), dtype=self._radix.dtype), firsts,
                       self._streams(firsts))
        return [memo[key] for key in keys]

    def f_many(self, masks) -> list[float]:
        """Memoized sensing objectives of the sets with these bit masks, in the order given."""
        return self._memoized(self._f, "f", masks)

    @np.errstate(over="ignore", invalid="ignore")
    def f_table(self, masks) -> np.ndarray:
        """``f_many`` of a 1-D array of masks as a float64 array: the enumerations' path.

        The masks are keyed in numpy and only their distinct multisets pass
        through Python, so a 2^m table makes no Python int per mask.  It
        shares ``f_many``'s memo and raises as ``f_many`` does; a suite of
        more than ``TABLE_BITS`` sensors raises ``ValueError``.
        """
        count = len(self._class)
        if count > TABLE_BITS:
            raise ValueError(f"a value table indexes at most {TABLE_BITS} sensors, not {count}")
        array = np.asarray(masks)
        if array.dtype.kind not in "iu" or (array >> count).any():  # raise as f_many does
            array = np.array(self._masks(masks), dtype=np.int64)
        masks = array.astype(np.int64, copy=False)
        keys = _class_keys(masks, self._weight)
        unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        listed = unique.tolist()
        new = np.fromiter((key not in self._f for key in listed), bool, len(listed))
        if new.any():
            asked = np.sort(first[new])
            keys, masks = keys[asked], masks[asked]
            # labelled as _streams labels them, and taken in the order f_many takes them
            sizes = _class_keys(masks, (1,) * count)
            stream = np.where(_measured(sizes, self._widest, self.scenario.state_dim),
                              _class_keys(masks, self._sensor_rows), -1)
            order = np.lexsort((sizes, stream))
            self._fill(self._f, "f", keys, masks,
                       np.split(order, np.flatnonzero(np.diff(stream[order])) + 1))
        return np.fromiter(map(self._f.__getitem__, listed), float, len(listed))[inverse]

    def logdet_many(self, masks) -> list[float]:
        """Memoized log-volume objectives of the sets with these bit masks, in the order given."""
        return self._memoized(self._logdet, "logdet", masks)

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
