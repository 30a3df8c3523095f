"""The forked fill of the objective cache against the one-process fill.

``ObjectiveCache._fill`` deals batch i to worker i % workers when a call has
at least ``kalman._FORK_SETS`` new class multisets and the process may run
on more than one CPU; this process is worker 0 and the others are forked.
A set's value does not depend on where its batch ran, so a forked fill must
give the one-process fill's bits and memo, raise what it raises with the
same batches memoized, and leave no child process behind.  The tests force
both paths with small batches and a low threshold.
"""

import os

import numpy as np
import pytest

import lqgcodesign as lq
from lqgcodesign import kalman

import support

UAV_A9 = lq.build_uav_scenario(9, 20, "heterogeneous", 7)  # 11 sensors, 11 classes


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


def _serial_and_forked(monkeypatch, scenario, call, batch_sets=64, cpus=3):
    """The call's outcome on a fresh cache filled in one process, then dealt to ``cpus``
    workers, with the forks the second made."""
    monkeypatch.setattr(kalman, "_BATCH_SETS", batch_sets)
    monkeypatch.setattr(kalman, "_FORK_SETS", 1 << 62)
    serial = _outcome(call, support.solved(scenario)[2])
    monkeypatch.setattr(kalman, "_FORK_SETS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    forked = _outcome(call, support.solved(scenario)[2])
    _assert_no_child_left()
    return serial, forked, len(forks)


@pytest.mark.parametrize("call, forks", [
    (lambda cache: cache.f_table(np.arange(1 << 11)), 2),
    (lambda cache: cache.logdet_many(
        np.random.default_rng(5).integers(0, 1 << 11, 600).tolist()), 2),
    (lambda cache: cache.f_many(np.random.default_rng(6).integers(0, 1 << 11, 100).tolist()), 1),
], ids=["f_table-2^11", "logdet_many-600", "f_many-two-batches"])
def test_forked_fill_is_the_serial_fill_bit_for_bit(monkeypatch, call, forks):
    serial, forked, made = _serial_and_forked(monkeypatch, UAV_A9, call)
    assert forked == serial
    assert made == forks  # three workers, or one per batch when there are fewer
    assert len(serial[1]) + len(serial[2]) > 64


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
    monkeypatch.setattr(kalman, "_FORK_SETS", 1 << 62)
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
    monkeypatch.setattr(kalman, "_FORK_SETS", 1)
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
    monkeypatch.setattr(kalman, "_FORK_SETS", 1)
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
        monkeypatch.setattr(kalman, "_FORK_SETS", 1)
    want = _outcome(lambda cache: cache.f_table(np.arange(1 << 11)), support.solved(UAV_A9)[2])
    if platform == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", _refuse_fork)
    # the default threshold keeps a fill of fewer multisets than it in this process
    masks = np.arange(kalman._FORK_SETS - 1 if platform == "few-sets" else 1 << 11)
    got = _outcome(lambda cache: cache.f_table(masks), support.solved(UAV_A9)[2])
    assert got[0] == want[0][:len(masks)]


def test_the_real_affinity_sets_the_workers(monkeypatch):
    """One worker per CPU this process may run on: under ``taskset -c 0`` no fork."""
    monkeypatch.setattr(kalman, "_BATCH_SETS", 64)
    monkeypatch.setattr(kalman, "_FORK_SETS", 1)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    cache = support.solved(UAV_A9)[2]
    table = cache.f_table(np.arange(1 << 11))
    assert len(forks) == min(len(os.sched_getaffinity(0)), (1 << 11) // 64) - 1
    assert np.isfinite(table).all() and len(cache._f) == 1 << 11
    _assert_no_child_left()
