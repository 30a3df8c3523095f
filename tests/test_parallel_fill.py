"""The forked fill of the objective cache against the one-process fill.

``ObjectiveCache._fill`` deals batch i to worker i % workers when a call's
estimated work, new class multisets * T * n^2, is at least two
``_parallel._FORK_WORK`` and the process may run on more than one CPU, with a
worker per CPU and per ``_FORK_WORK``; this process is worker 0 and the
others are the cache's, forked by its first such fill and kept for the
later ones, and no batch holds more than a worker's share of the multisets.
A set's value does not depend on where its batch ran or on its batch's
size, so a forked fill must give the one-process fill's bits and memo,
raise what it raises with the same batches memoized, and leave no child
process behind once its cache is released, or at once when it leaves
early.  Most tests force both paths with small batches and a low threshold;
the greedy-step, many-CPU table and sweep-size tests keep the real ones.
"""

import contextlib
import errno
import io
import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lqgcodesign as lq
from lqgcodesign import _parallel, cli, kalman

import support

UAV_A9 = lq.build_uav_scenario(9, 20, "heterogeneous", 7)  # 11 sensors, 11 classes
FORMATION_A8 = lq.build_formation_scenario(8, 20, "heterogeneous", 7)  # 64 sensors, n = 32
FORMATION_A4 = lq.build_formation_scenario(4, 20, "heterogeneous", 7)  # 16 sensors, n = 16


def _work(scenario, sets: int) -> int:
    """The work ``_fill`` estimates for ``sets`` new multisets of the scenario."""
    return sets * scenario.horizon * scenario.state_dim ** 2


def _pool(cache) -> list:
    """The cache's workers, (pid, request end, reply end) each; none before its first deal."""
    return _parallel._POOLS.get(cache, [])


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outcome(call, cache):
    """The call's values as int64 bits, or its exception's type and message; and the memos."""
    try:
        got = np.asarray(call(cache), dtype=np.float64).view(np.int64).tolist()
    except Exception as exc:  # the outcome compared is the exception itself
        got = (type(exc), str(exc))
    return got, support.memo(cache, "f"), support.memo(cache, "logdet")


def _serial_and_forked(monkeypatch, scenario, call, batch_sets=64, cpus=3, fork_work=1):
    """The call's outcome on a fresh cache filled in one process, then dealt to ``cpus``
    workers from ``fork_work``, with the forks the second made."""
    monkeypatch.setattr(kalman, "_BATCH_SETS", batch_sets)
    monkeypatch.setattr(_parallel, "_FORK_WORK", 1 << 62)
    serial = _outcome(call, support.solved(scenario)[2])
    monkeypatch.setattr(_parallel, "_FORK_WORK", fork_work)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = _count_forks(monkeypatch)
    cache = support.solved(scenario)[2]
    forked = _outcome(call, cache)
    del cache  # its workers are reaped with it
    _assert_no_child_left()
    return serial, forked, len(forks)


def _count_forks(monkeypatch) -> list:
    """A list that gains an entry at each ``os.fork`` from now on."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


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
        batch_sets=kalman._BATCH_SETS, cpus=cpus, fork_work=_parallel._FORK_WORK)
    new = len(serial[1]) + len(serial[2])
    parts = _work(FORMATION_A8, new) // _parallel._FORK_WORK
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
        batch_sets=kalman._BATCH_SETS, cpus=16, fork_work=_parallel._FORK_WORK)
    assert _work(UAV_A9, 1 << 11) // _parallel._FORK_WORK == 8
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
    assert forked[1] == support.memo(cache) and len(forked[1]) == memoized


def _batch_keys(monkeypatch, scenario, call, batch_sets):
    """The class multiset keys of each batch a one-process fill propagates, in order."""
    monkeypatch.setattr(kalman, "_BATCH_SETS", batch_sets)
    monkeypatch.setattr(_parallel, "_FORK_WORK", 1 << 62)
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
def test_a_child_that_sends_no_values_is_reaped_and_its_batches_run_here(monkeypatch, sent):
    """A worker that dies before its answer is whole is reaped and dropped; its call runs in
    this process, so the fill gives the one-process bits and memo, and the next deal forks
    a fresh worker."""
    parent = os.getpid()
    dump = _parallel.pickle.dump

    def child_fails(value, file):
        if os.getpid() != parent:
            data = _parallel.pickle.dumps(value)
            file.write(data[:int(sent * len(data))])
            raise TypeError("cannot pickle")
        return dump(value, file)

    def call(cache):
        return cache.f_table(np.arange(1 << 11))

    monkeypatch.setattr(_parallel.pickle, "dump", child_fails)
    serial, forked, made = _serial_and_forked(monkeypatch, UAV_A9, call, cpus=2)
    assert forked == serial and len(serial[1]) == 1 << 11
    assert made == 1
    forks = _count_forks(monkeypatch)
    cache = support.solved(UAV_A9)[2]
    assert _outcome(call, cache) == serial and len(forks) == 1
    _assert_no_child_left()  # the worker that died is reaped, and none is left in the pool
    assert _pool(cache) == []
    support.forget(cache)
    assert _outcome(call, cache) == serial and len(forks) == 2  # the next deal forks afresh
    del cache
    _assert_no_child_left()


def test_a_worker_killed_while_idle_is_dropped_and_its_batches_run_here(monkeypatch):
    """The request to a worker that is gone cannot be written; its answer reads short."""
    def call(cache):
        return cache.f_table(np.arange(1 << 11))

    serial = _serial_and_forked(monkeypatch, UAV_A9, call, cpus=2)[0]
    forks = _count_forks(monkeypatch)
    cache = support.solved(UAV_A9)[2]
    assert _outcome(call, cache) == serial and len(forks) == 1
    [(pid, *_)] = _pool(cache)
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # gone, and left for the deal to reap
    support.forget(cache)
    assert _outcome(call, cache) == serial and len(forks) == 1 and _pool(cache) == []
    _assert_no_child_left()
    support.forget(cache)
    assert _outcome(call, cache) == serial and len(forks) == 2
    del cache
    _assert_no_child_left()


def test_a_child_is_killed_when_this_process_leaves_early(monkeypatch):
    monkeypatch.setattr(kalman, "_BATCH_SETS", 64)
    monkeypatch.setattr(_parallel, "_FORK_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent = os.getpid()
    update = kalman.ObjectiveCache._update

    def interrupted(self, keys):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return update(self, keys)

    def call(cache):
        return cache.f_table(np.arange(1 << 11))

    serial = _outcome(call, support.solved(UAV_A9)[2])
    monkeypatch.setattr(kalman.ObjectiveCache, "_update", interrupted)
    forks = _count_forks(monkeypatch)
    cache = support.solved(UAV_A9)[2]
    with pytest.raises(KeyboardInterrupt):
        call(cache)
    assert support.memo(cache) == {} and _pool(cache) == []
    _assert_no_child_left()
    # the next fill of the same cache forks afresh and reads no stale answer
    monkeypatch.setattr(kalman.ObjectiveCache, "_update", update)
    assert _outcome(call, cache) == serial and len(forks) == 2
    del cache
    _assert_no_child_left()


def _failing_os(monkeypatch, name: str, start: int, stop: int | None = None) -> list:
    """``os.fork`` or ``os.pipe`` (``name``) raising EAGAIN at its calls ``start`` to ``stop``,
    counted from 0, as under a process or file limit; a list that gains an entry at each call."""
    calls = []
    real = getattr(os, name)

    def failing():
        calls.append(1)
        if start < len(calls) and (stop is None or len(calls) <= stop):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, name, failing)
    return calls


def _open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


FAILURES = [("fork", 0), ("fork", 1), ("pipe", 0), ("pipe", 1), ("pipe", 2)]
FAILURE_IDS = ["first-fork", "second-fork", "first-pipe", "second-pipe", "second-worker-pipe"]


@pytest.mark.parametrize("name, start", FAILURES, ids=FAILURE_IDS)
def test_a_fill_whose_fork_fails_runs_its_other_batches_here(monkeypatch, name, start):
    """A table dealt to three processes keeps the workers forked before ``os.fork`` or
    ``os.pipe`` raised and computes the batches left without one in this process."""
    fds = _open_fds()
    _failing_os(monkeypatch, name, start)
    serial, forked, made = _serial_and_forked(
        monkeypatch, UAV_A9, lambda cache: cache.f_table(np.arange(1 << 11)), cpus=3)
    assert forked == serial and len(serial[1]) == 1 << 11
    workers = start // 2 if name == "pipe" else start
    assert made == workers + (name == "fork")  # the forks tried, a failed one included
    assert _open_fds() == fds


def test_the_deal_after_a_failed_fork_forks_again(monkeypatch):
    """A fork that failed once is tried again at the cache's next deal."""
    monkeypatch.setattr(kalman, "_BATCH_SETS", 64)
    monkeypatch.setattr(_parallel, "_FORK_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forks = _failing_os(monkeypatch, "fork", 0, 1)
    cache = support.solved(UAV_A9)[2]
    first = cache.f_table(np.arange(1 << 11))
    assert len(forks) == 1 and _pool(cache) == []
    support.forget(cache)
    assert cache.f_table(np.arange(1 << 11)).tobytes() == first.tobytes()
    assert len(forks) == 3 and len(_pool(cache)) == 2
    del cache
    _assert_no_child_left()


def _cli(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``lqgcodesign`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, start", FAILURES, ids=FAILURE_IDS)
def test_a_bound_whose_fork_fails_prints_the_one_process_bytes(monkeypatch, tmp_path, name,
                                                              start):
    """``bound budget`` on UAV a9 deals its 2^11 ratio table to three processes."""
    path = tmp_path / "uav_a9.json"
    lq.save_scenario(UAV_A9, path)
    argv = ("bound", "budget", "--scenario", str(path), "--budget", "6.0", "--ratio-cap", "11")
    monkeypatch.setattr(_parallel, "_cpus", lambda: 1)
    alone = _cli(*argv)
    monkeypatch.setattr(_parallel, "_cpus", lambda: 3)
    fds = _open_fds()
    calls = _failing_os(monkeypatch, name, start)
    assert _cli(*argv) == alone and alone[0] == 0 and alone[1]
    assert len(calls) > start
    _assert_no_child_left()
    assert _open_fds() == fds


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
        monkeypatch.setattr(_parallel, "_FORK_WORK", 1)
    want = _outcome(lambda cache: cache.f_table(np.arange(1 << 11)), support.solved(UAV_A9)[2])
    if platform == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", _refuse_fork)
    # the default threshold keeps a fill of work just below two parts in this process
    below = (2 * _parallel._FORK_WORK - 1) // _work(UAV_A9, 1)
    if platform == "few-sets":
        assert below == 511 and _work(UAV_A9, below + 1) == 2 * _parallel._FORK_WORK
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
    assert len(support.memo(cache, "f")) == len(support.memo(cache, "logdet")) == 11
    assert np.isfinite(values).all()
    assert 3 * _work(FORMATION_A4, 11) < _parallel._FORK_WORK
    _assert_no_child_left()


def test_the_real_affinity_sets_the_workers(monkeypatch):
    """One worker per CPU this process may run on: under ``taskset -c 0`` no fork."""
    monkeypatch.setattr(kalman, "_BATCH_SETS", 64)
    monkeypatch.setattr(_parallel, "_FORK_WORK", 1)
    forks = _count_forks(monkeypatch)
    cache = support.solved(UAV_A9)[2]
    table = cache.f_table(np.arange(1 << 11))
    cpus = len(os.sched_getaffinity(0))
    batches = -(-(1 << 11) // min(64, -(-(1 << 11) // cpus)))  # a worker's share at most
    assert len(forks) == min(cpus, batches) - 1
    assert np.isfinite(table).all() and len(support.memo(cache)) == 1 << 11
    del cache
    _assert_no_child_left()


def test_one_cache_forks_its_workers_once_over_many_greedy_steps(monkeypatch):
    """Every greedy step on formation a8 is dealt to three workers, the same two forked."""
    budget = 8.0

    def call(cache):
        report = lq.greedy_budget(cache, budget)
        return [report.objective_f, *(step.objective_after for step in report.iterations)]

    serial, forked, made = _serial_and_forked(
        monkeypatch, FORMATION_A8, call, batch_sets=kalman._BATCH_SETS, cpus=3,
        fork_work=_parallel._FORK_WORK)
    assert forked == serial and made == 2
    assert len(serial[0]) > 6  # a step per sensor chosen


def test_releasing_one_of_two_forked_caches_reaps_its_worker(monkeypatch):
    """The second cache's worker closes the first's pipe ends, so the first's sees EOF."""
    monkeypatch.setattr(kalman, "_BATCH_SETS", 64)
    monkeypatch.setattr(_parallel, "_FORK_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    first, second = support.solved(UAV_A9)[2], support.solved(UAV_A9)[2]
    first.f_table(np.arange(1 << 11))
    second.f_table(np.arange(1 << 11))
    [(gone, *_)], [(kept, *_)] = _pool(first), _pool(second)

    def hung(signum, frame):
        raise TimeoutError("the released cache's worker did not leave")

    handler = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        del first  # reaped here, or the alarm ends the wait and the worker stays
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    with pytest.raises(ChildProcessError):
        os.waitpid(gone, os.WNOHANG)
    assert os.waitpid(kept, os.WNOHANG) == (0, 0)  # still serving the second cache
    assert np.isfinite(second.f_table(np.arange(1 << 11))).all()
    del second
    _assert_no_child_left()


def test_a_worker_outlives_an_interrupt_from_the_terminal(monkeypatch):
    """^C reaches the whole foreground process group; a worker leaves it to this process."""
    monkeypatch.setattr(kalman, "_BATCH_SETS", 64)
    monkeypatch.setattr(_parallel, "_FORK_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = _count_forks(monkeypatch)
    cache = support.solved(UAV_A9)[2]
    table = cache.f_table(np.arange(1 << 11))
    os.kill(_pool(cache)[0][0], signal.SIGINT)
    support.forget(cache)
    assert cache.f_table(np.arange(1 << 11)).tolist() == table.tolist() and len(forks) == 1
    del cache
    _assert_no_child_left()


def _python(*args, **kwargs) -> subprocess.Popen:
    """A fresh interpreter that imports this tree's package, in a session of its own."""
    env = {**os.environ, "PYTHONPATH": str(Path(lq.__file__).parents[1])}
    return subprocess.Popen([sys.executable, *args], env=env, start_new_session=True,
                            stdout=subprocess.PIPE, **kwargs)


# ``python -m lqgcodesign`` on two CPUs whatever the host's, printing its forks to stderr
_CLI_ON_TWO_CPUS = """
import os, runpy, sys
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
os.sched_getaffinity = lambda pid: {0, 1}
try:
    runpy.run_module("lqgcodesign", run_name="__main__", alter_sys=True)
finally:
    print(len(forks), file=sys.stderr)
"""


def test_a_cli_command_leaves_its_process_group_empty(tmp_path):
    path = tmp_path / "formation_a8.json"
    lq.save_scenario(FORMATION_A8, path)
    proc = _python("-c", _CLI_ON_TWO_CPUS, "select", "budget", "--method", "greedy",
                   "--budget", "8", "--scenario", str(path), stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=120)  # a worker left alive would hold both open
        assert proc.returncode == 0 and out.startswith(b"scenario_id,method,")
        assert err.splitlines() == [b"1"]  # one worker, for the whole command
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        _kill_group(proc)


# forks a worker, names it, then waits to be killed
_HOLDER = """
import os, time
import numpy as np
import lqgcodesign as lq
from lqgcodesign import _parallel
_parallel._FORK_WORK = 1
os.sched_getaffinity = lambda pid: {0, 1}
scenario = lq.build_uav_scenario(9, 20, "heterogeneous", 7)
cache = lq.ObjectiveCache(scenario, lq.solve_riccati(scenario.system, scenario.weights))
cache.f_table(np.arange(1 << 11))
print(_parallel._POOLS[cache][0][0], flush=True)
time.sleep(120)
"""


def test_a_worker_leaves_when_its_process_is_killed():
    """Killed outright, the process runs no finalizer; its idle worker sees EOF and leaves."""
    proc = _python("-c", _HOLDER)
    try:
        assert int(proc.stdout.readline()) > 0
        proc.kill()
        proc.wait()
        # the worker holds the holder's stdout: its end reads EOF once the worker is gone
        assert select.select([proc.stdout], [], [], 1.0)[0] == [proc.stdout]
        assert proc.stdout.read() == b""
    finally:
        _kill_group(proc)


def _kill_group(proc):
    """Kill whatever is left of the fresh interpreter's session and close its pipes."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
