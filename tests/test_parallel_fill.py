"""The forked fill of the objective cache against the one-process fill.

``ObjectiveCache._fill`` deals batch i to worker i % workers when a call's
estimated work, new class multisets * T * n^2, is at least two
``kalman._FORK_WORK`` and the process may run on more than one CPU, with a
worker per CPU and per ``_FORK_WORK``; this process is worker 0 and the
others are forked, and no batch holds more than a worker's share of the
multisets.  A set's value does not depend on where its batch ran or on its
batch's size, so a forked fill must give the one-process fill's bits and
memo, raise what it raises with the same batches memoized, and leave no
child process behind.  Most tests force both paths with small batches and a
low threshold; the greedy-step, many-CPU table and sweep-size tests keep the
real ones.
"""

import os

import numpy as np
import pytest

import lqgcodesign as lq
from lqgcodesign import kalman

import support

UAV_A9 = lq.build_uav_scenario(9, 20, "heterogeneous", 7)  # 11 sensors, 11 classes
FORMATION_A8 = lq.build_formation_scenario(8, 20, "heterogeneous", 7)  # 64 sensors, n = 32
FORMATION_A4 = lq.build_formation_scenario(4, 20, "heterogeneous", 7)  # 16 sensors, n = 16


def _work(scenario, sets: int) -> int:
    """The work ``_fill`` estimates for ``sets`` new multisets of the scenario."""
    return sets * scenario.horizon * scenario.state_dim ** 2


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outcome(call, cache):
    """The call's values as int64 bits, or its exception's type and message; and the memos."""
    try:
        got = np.asarray(call(cache), dtype=np.float64).view(np.int64).tolist()
    except Exception as exc:  # the outcome compared is the exception itself
        got = (type(exc), str(exc))
    return got, dict(cache._f), dict(cache._logdet)


def _serial_and_forked(monkeypatch, scenario, call, batch_sets=64, cpus=3, fork_work=1):
    """The call's outcome on a fresh cache filled in one process, then dealt to ``cpus``
    workers from ``fork_work``, with the forks the second made."""
    monkeypatch.setattr(kalman, "_BATCH_SETS", batch_sets)
    monkeypatch.setattr(kalman, "_FORK_WORK", 1 << 62)
    serial = _outcome(call, support.solved(scenario)[2])
    monkeypatch.setattr(kalman, "_FORK_WORK", fork_work)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    forked = _outcome(call, support.solved(scenario)[2])
    _assert_no_child_left()
    return serial, forked, len(forks)


@pytest.mark.parametrize("call, cpus", [
    (lambda cache: cache.f_table(np.arange(1 << 11)), 3),
    (lambda cache: cache.logdet_many(
        np.random.default_rng(5).integers(0, 1 << 11, 600).tolist()), 3),
    # under the 64-set cap, cut into a batch per worker
    (lambda cache: cache.f_many(np.random.default_rng(6).integers(0, 1 << 11, 100).tolist()), 2),
], ids=["f_table-2^11", "logdet_many-600", "f_many-two-batches"])
def test_forked_fill_is_the_serial_fill_bit_for_bit(monkeypatch, call, cpus):
    serial, forked, made = _serial_and_forked(monkeypatch, UAV_A9, call, cpus=cpus)
    assert forked == serial
    assert made == cpus - 1
    assert len(serial[1]) + len(serial[2]) > 64


def test_a_fill_of_fewer_batches_than_cpus_forks_one_worker_per_batch(monkeypatch):
    """Five sets of one stream cut for four CPUs make batches of 2, 2 and 1."""
    full = (1 << len(UAV_A9.suite.ids)) - 1
    masks = [full ^ 1 << i for i in range(5)]  # ten sensors each: the information form
    serial, forked, made = _serial_and_forked(
        monkeypatch, UAV_A9, lambda cache: cache.f_many(masks), cpus=4)
    assert forked == serial and len(serial[1]) == 5
    assert made == 2  # three workers, one per batch


def _greedy_step(scenario, chosen) -> list[int]:
    """The masks one greedy step from ``chosen`` asks for: the set with each other sensor."""
    base = support.mask_of(chosen)
    return [base | 1 << i for i in range(len(scenario.suite.ids)) if not base >> i & 1]


@pytest.mark.parametrize("cpus", [2, 8])
@pytest.mark.parametrize("method", ["f_many", "logdet_many"])
def test_a_greedy_step_on_formation_a8_is_cut_between_workers(monkeypatch, method, cpus):
    """At n = 32 a greedy step's few dozen sets are three parts: a worker each, CPUs allowing."""
    masks = _greedy_step(FORMATION_A8, (3, 17, 40, 52))
    sizes = []  # the sets of each batch this process propagates
    update = kalman.ObjectiveCache._update
    monkeypatch.setattr(kalman.ObjectiveCache, "_update",
                        lambda self, keys: sizes.append(len(keys)) or update(self, keys))
    serial, forked, made = _serial_and_forked(
        monkeypatch, FORMATION_A8, lambda cache: getattr(cache, method)(masks),
        batch_sets=kalman._BATCH_SETS, cpus=cpus, fork_work=kalman._FORK_WORK)
    new = len(serial[1]) + len(serial[2])
    parts = _work(FORMATION_A8, new) // kalman._FORK_WORK
    assert 30 <= new <= 40 and parts == 3  # not one worker per CPU on eight
    assert forked == serial and made == min(cpus, parts) - 1
    assert sizes == [new, -(-new // (made + 1))]  # one batch alone, a worker's share forked


def test_a_table_fill_gives_each_worker_a_full_batch_on_many_cpus(monkeypatch):
    """A 2^11 table at n = 6 is eight parts: eight workers of 256 sets, however many CPUs."""
    sizes = []
    update = kalman.ObjectiveCache._update
    monkeypatch.setattr(kalman.ObjectiveCache, "_update",
                        lambda self, keys: sizes.append(len(keys)) or update(self, keys))
    serial, forked, made = _serial_and_forked(
        monkeypatch, UAV_A9, lambda cache: cache.f_table(np.arange(1 << 11)),
        batch_sets=kalman._BATCH_SETS, cpus=16, fork_work=kalman._FORK_WORK)
    assert _work(UAV_A9, 1 << 11) // kalman._FORK_WORK == 8
    assert forked == serial and made == 7
    assert max(sizes) == kalman._BATCH_SETS  # the batches of one process, uncut


def _overflowing_singletons():
    """Scalar sensors on a plant growing by 1e10 per step: each asked alone, one per
    batch, the first four have finite objectives and the last two overflow."""
    data = support.overflowing_scenario_dict()
    wirings = [1.0, 2.0, 3.0, 4.0, 1e-160, 2e-160]
    data.update(horizon=16, sensors=[{"id": i, "C": [[c]], "V": [[1.0]], "cost": 1.0}
                                     for i, c in enumerate(wirings)])
    return lq.scenario_from_dict(data)


@pytest.mark.parametrize("order, named, memoized", [
    ([0, 1, 2, 4, 3, 5], "[4]", 3),  # batch 3 fails first: the child's
    ([0, 1, 4, 5, 2, 3], "[4]", 2),  # batch 2 fails first: this process's
    ([0, 5, 4, 1, 2, 3], "[5]", 1),  # the child's batch 1, then this process's batch 2
], ids=["child-first", "parent-first", "child-then-parent"])
def test_a_value_that_is_not_finite_raises_as_in_one_process(monkeypatch, order, named,
                                                             memoized):
    masks = [1 << i for i in order]
    scenario = _overflowing_singletons()
    serial, forked, made = _serial_and_forked(
        monkeypatch, scenario, lambda cache: cache.f_table(np.array(masks)),
        batch_sets=1, cpus=2)
    assert forked == serial and made == 1
    assert forked[0] == (lq.NumericalError, f"objective of sensor set {named} is not finite (inf)")
    # exactly the batches before the failing one are memoized
    cache = support.solved(scenario)[2]
    cache.f_many(masks[:memoized])
    assert forked[1] == cache._f and len(cache._f) == memoized


def _batch_keys(monkeypatch, scenario, call, batch_sets):
    """The class multiset keys of each batch a one-process fill propagates, in order."""
    monkeypatch.setattr(kalman, "_BATCH_SETS", batch_sets)
    monkeypatch.setattr(kalman, "_FORK_WORK", 1 << 62)
    batches = []
    update = kalman.ObjectiveCache._update
    monkeypatch.setattr(kalman.ObjectiveCache, "_update",
                        lambda self, keys: batches.append(keys.tolist()) or update(self, keys))
    call(support.solved(scenario)[2])
    monkeypatch.setattr(kalman.ObjectiveCache, "_update", update)
    return batches


@pytest.mark.parametrize("failing", [5, 4], ids=["child", "parent"])
def test_an_exception_in_a_batch_is_raised_in_order(monkeypatch, failing):
    def call(cache):
        return cache.f_table(np.arange(1 << 11))

    batches = _batch_keys(monkeypatch, UAV_A9, call, 64)
    # the failing batch and a later one of the other worker raise
    bad = {batches[failing][0]: failing, batches[failing + 3][0]: failing + 3}
    update = kalman.ObjectiveCache._update

    def failing_update(self, keys):
        for key in set(keys.tolist()) & set(bad):
            raise lq.NumericalError(f"batch {bad[key]} failed in process {os.getpid()}")
        return update(self, keys)

    monkeypatch.setattr(kalman.ObjectiveCache, "_update", failing_update)
    serial, forked, made = _serial_and_forked(monkeypatch, UAV_A9, call, cpus=2)
    assert made == 1
    assert serial[0] == (lq.NumericalError, f"batch {failing} failed in process {os.getpid()}")
    kind, message = forked[0]
    assert kind is lq.NumericalError
    pid = int(message.rsplit(" ", 1)[1])
    assert message == f"batch {failing} failed in process {pid}"
    assert (pid == os.getpid()) == (failing % 2 == 0)
    assert forked[1:] == serial[1:]
    assert sorted(forked[1]) == sorted(key for batch in batches[:failing] for key in batch)


@pytest.mark.parametrize("sent", [0.0, 0.5], ids=["nothing", "half"])
def test_a_child_that_sends_no_values_raises_and_is_reaped(monkeypatch, sent):
    monkeypatch.setattr(kalman, "_BATCH_SETS", 64)
    monkeypatch.setattr(kalman, "_FORK_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent = os.getpid()
    dump = kalman.pickle.dump

    def child_fails(value, file):
        if os.getpid() != parent:
            data = kalman.pickle.dumps(value)
            file.write(data[:int(sent * len(data))])
            raise TypeError("cannot pickle")
        return dump(value, file)

    monkeypatch.setattr(kalman.pickle, "dump", child_fails)
    cache = support.solved(UAV_A9)[2]
    with pytest.raises(RuntimeError, match="exited without its values"):
        cache.f_table(np.arange(1 << 11))
    assert cache._f == {}
    _assert_no_child_left()


def test_a_child_is_killed_when_this_process_leaves_early(monkeypatch):
    monkeypatch.setattr(kalman, "_BATCH_SETS", 64)
    monkeypatch.setattr(kalman, "_FORK_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent = os.getpid()
    update = kalman.ObjectiveCache._update

    def interrupted(self, keys):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return update(self, keys)

    monkeypatch.setattr(kalman.ObjectiveCache, "_update", interrupted)
    cache = support.solved(UAV_A9)[2]
    with pytest.raises(KeyboardInterrupt):
        cache.f_table(np.arange(1 << 11))
    assert cache._f == {}
    _assert_no_child_left()


def _refuse_fork():
    raise AssertionError("a fill forked")


@pytest.mark.parametrize("platform", ["one-cpu", "no-fork", "no-affinity", "few-sets"])
def test_a_fill_forks_nothing_where_it_cannot_gain(monkeypatch, platform):
    monkeypatch.setattr(kalman, "_BATCH_SETS", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    if platform == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif platform == "no-affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    if platform != "few-sets":
        monkeypatch.setattr(kalman, "_FORK_WORK", 1)
    want = _outcome(lambda cache: cache.f_table(np.arange(1 << 11)), support.solved(UAV_A9)[2])
    if platform == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", _refuse_fork)
    # the default threshold keeps a fill of work just below two parts in this process
    below = (2 * kalman._FORK_WORK - 1) // _work(UAV_A9, 1)
    if platform == "few-sets":
        assert below == 511 and _work(UAV_A9, below + 1) == 2 * kalman._FORK_WORK
    masks = np.arange(below if platform == "few-sets" else 1 << 11)
    got = _outcome(lambda cache: cache.f_table(masks), support.solved(UAV_A9)[2])
    assert got[0] == want[0][:len(masks)]


def test_a_sweep_size_fill_on_formation_a4_forks_nothing(monkeypatch):
    """Formation a4's largest sweep fill, 11 sets at n = 16, is under a third of one part."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", _refuse_fork)
    masks = [1 << 4, *_greedy_step(FORMATION_A4, (4,))]  # 11 class multisets
    cache = support.solved(FORMATION_A4)[2]
    values = [*cache.f_many(masks), *cache.logdet_many(masks)]
    assert len(cache._f) == len(cache._logdet) == 11 and np.isfinite(values).all()
    assert 3 * _work(FORMATION_A4, 11) < kalman._FORK_WORK
    _assert_no_child_left()


def test_the_real_affinity_sets_the_workers(monkeypatch):
    """One worker per CPU this process may run on: under ``taskset -c 0`` no fork."""
    monkeypatch.setattr(kalman, "_BATCH_SETS", 64)
    monkeypatch.setattr(kalman, "_FORK_WORK", 1)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    cache = support.solved(UAV_A9)[2]
    table = cache.f_table(np.arange(1 << 11))
    cpus = len(os.sched_getaffinity(0))
    batches = -(-(1 << 11) // min(64, -(-(1 << 11) // cpus)))  # a worker's share at most
    assert len(forks) == min(cpus, batches) - 1
    assert np.isfinite(table).all() and len(cache._f) == 1 << 11
    _assert_no_child_left()
