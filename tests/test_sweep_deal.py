"""A sweep grid point dealt to the cache's worker against the one-process sweep.

``cli._sweep_point`` deals its method columns that do not enumerate (greedy,
logdet, random, all), each column whole, and ``simulate.monte_carlo_many``
its distinct sets in contiguous shares, between this process and the
cache's worker when their estimated work is two ``_parallel._FORK_WORK`` parts
or more and the process may run on more than one CPU.  A dealt sweep must
print the one-process bytes, raise the one-process error, fork one worker
per grid point and leave no child behind; a forked child of a process that
owns workers must neither deal to them nor hold their pipes open.
"""

import contextlib
import functools
import io
import os
import time

import numpy as np
import pytest

import lqgcodesign as lq
from lqgcodesign import _parallel, cli, kalman, simulate

import support
from test_parallel_fill import (FORMATION_A4, UAV_A9, _assert_no_child_left, _count_forks,
                                _failing_os, _open_fds, _pool, _refuse_fork)

TIER1_GRIDS = (
    ("--scenario", "formation", "--agents", "2,3", "--horizon", "4,5", "--budgets", "3,4,5",
     "--methods", "greedy,oracle,logdet,random,all", "--runs", "12", "--seed", "3"),
    ("--scenario", "uav", "--landmarks", "3", "--horizon", "4", "--budgets", "3,5,7",
     "--mode", "heterogeneous", "--methods", "all,greedy,random,logdet", "--runs", "7",
     "--seed", "1"),
)
FORMATION_A4_GRID = ("--scenario", "formation", "--agents", "4", "--horizon", "20",
                     "--mode", "heterogeneous", "--budgets", "4,6,8",
                     "--methods", "greedy,logdet,random,all", "--runs", "100")
# formation a2 at T = 20 with 5 runs, the benchmark's smoke grid, and the other
# sweeps the tier-1 tests run, all at T <= 5
SMALL_GRIDS = (
    *TIER1_GRIDS,
    ("--scenario", "formation", "--agents", "2", "--horizon", "20", "--mode", "heterogeneous",
     "--budgets", "2,3", "--methods", "greedy,logdet,random,all", "--runs", "5", "--seed", "7"),
    ("--scenario", "formation", "--agents", "2", "--horizon", "4", "--budgets", "2,3",
     "--runs", "5", "--seed", "7"),
    ("--scenario", "formation", "--agents", "2", "--horizon", "4", "--budgets", "2,4",
     "--methods", "greedy,random,all", "--runs", "10", "--seed", "0"),
    ("--scenario", "uav", "--landmarks", "3", "--horizon", "3", "--budgets", "3",
     "--methods", "greedy,all", "--runs", "5", "--seed", "1"),
    ("--scenario", "formation", "--agents", "1,2", "--horizon", "2", "--budgets", "1,2",
     "--runs", "2", "--methods", "greedy,all"),
)


def _sweep(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``lqgcodesign sweep`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["sweep", *argv])
    return code, out.getvalue(), err.getvalue()


def _on_cpus(monkeypatch, cpus: int):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _one_cpu_and_dealt(monkeypatch, argv, fork_work=1):
    """``_sweep(*argv)`` on one CPU, then dealt on two from ``fork_work``, with the forks the
    second made; no child is left after either."""
    monkeypatch.setattr(_parallel, "_FORK_WORK", fork_work)
    _on_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    alone = _sweep(*argv)
    monkeypatch.undo()
    monkeypatch.setattr(_parallel, "_FORK_WORK", fork_work)
    _on_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    dealt = _sweep(*argv)
    _assert_no_child_left()
    return alone, dealt, len(forks)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    *TIER1_GRIDS,
    (*FORMATION_A4_GRID, "--seed", "7"),
    (*FORMATION_A4_GRID, "--seed", "11"),
], ids=["formation-a2-a3", "uav-l3", "formation-a4-seed7", "formation-a4-seed11"])
def test_a_dealt_sweep_prints_the_one_cpu_bytes(monkeypatch, argv, fmt):
    alone, dealt, forks = _one_cpu_and_dealt(monkeypatch, (*argv, "--format", fmt))
    assert alone[0] == 0 and alone[1]
    assert dealt == alone
    points = 4 if "2,3" in argv else 1
    assert forks == points  # every fill, column deal and share too: one worker a grid point


def test_the_formation_a4_sweep_forks_one_worker_a_point_on_two_cpus(monkeypatch):
    alone, dealt, forks = _one_cpu_and_dealt(
        monkeypatch, (*FORMATION_A4_GRID[:5], "20,19", *FORMATION_A4_GRID[6:], "--seed", "7"),
        fork_work=_parallel._FORK_WORK)
    assert dealt == alone and forks == 2


@pytest.mark.parametrize("name, start", [("fork", 0), ("pipe", 1)], ids=["fork", "pipe"])
@pytest.mark.parametrize("argv", [
    (*FORMATION_A4_GRID[:-2], "--runs", "0", "--seed", "7"),
    (*FORMATION_A4_GRID[:-3], "greedy", "--runs", "100", "--seed", "11"),
], ids=["columns", "monte-carlo"])
def test_a_sweep_whose_fork_fails_prints_the_one_cpu_bytes(monkeypatch, argv, name, start):
    """A grid point's method columns, or a greedy column's Monte Carlo shares, left without
    a worker run in this process."""
    _on_cpus(monkeypatch, 1)
    alone = _sweep(*argv)
    _on_cpus(monkeypatch, 2)
    fds = _open_fds()
    calls = _failing_os(monkeypatch, name, start)
    assert _sweep(*argv) == alone and alone[0] == 0 and alone[1]
    assert len(calls) > start
    _assert_no_child_left()
    assert _open_fds() == fds


@pytest.mark.parametrize("argv", SMALL_GRIDS)
def test_a_small_sweep_forks_nothing(monkeypatch, argv):
    _on_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    code, out, err = _sweep(*argv)
    assert code == 0 and out and not err


def _bits(summaries) -> list:
    """Each summary's floats as int64 bits, and its run count."""
    return [np.array([s.mean_cost, s.std_error, s.analytical_g]).view(np.int64).tolist() + [
        s.run_count] for s in summaries]


@pytest.mark.parametrize("sets", [
    [(0, 1, 2, 3), (4, 5), (0, 5), (0, 1, 2, 3), (2, 7, 9), tuple(range(16))],  # longest dealt
    [tuple(range(16)), (4, 5), (0, 5), (2, 7, 9), (0, 1, 2, 3)],  # longest kept here
    [(), (3,)],
], ids=["longest-in-the-worker", "longest-here", "two-sets"])
def test_monte_carlo_shares_are_the_one_process_summaries(monkeypatch, sets):
    # 150 runs at the full set's width are three batches of runs
    monkeypatch.setattr(_parallel, "_FORK_WORK", 1)
    _on_cpus(monkeypatch, 1)
    alone = simulate.monte_carlo_many(support.solved(FORMATION_A4)[2], sets, 150, 4)
    _on_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    shares = []
    rollouts = simulate._rollout_costs

    @functools.wraps(rollouts)  # pickled by name, so a worker runs it too, on its own list
    def recorded(cache, keys, *args):
        shares.append(keys)
        return rollouts(cache, keys, *args)

    monkeypatch.setattr(simulate, "_rollout_costs", recorded)
    cache = support.solved(FORMATION_A4)[2]
    dealt = simulate.monte_carlo_many(cache, sets, 150, 4)
    assert _bits(dealt) == _bits(alone)
    distinct = list(dict.fromkeys(sets))
    assert len(forks) == 1 and shares == [distinct[:len(distinct) // 2]]  # only this one's
    del cache
    _assert_no_child_left()


def test_a_cache_computes_its_noise_roots_once(monkeypatch):
    calls = []
    root = simulate.psd_sqrt
    monkeypatch.setattr(simulate, "psd_sqrt", lambda matrix: calls.append(1) or root(matrix))
    cache = support.solved(FORMATION_A4)[2]
    sets = [(0, 1), (2, 3, 4), (5,)]
    simulate.monte_carlo_many(cache, sets, 20, 1)
    simulate.monte_carlo_many(cache, sets[1:], 20, 2)
    assert len(calls) == 2
    system = FORMATION_A4.system
    for ids in sets:
        sim = simulate.ClosedLoopSimulator(cache, ids)
        for shared, own in [(sim._x1_sqrt, root(system.sigma_init)), (sim._w_sqrt, root(system.W))]:
            assert shared.view(np.int64).tolist() == own.view(np.int64).tolist()


def _failing(method, budget, here):
    """``method`` as ``cli._run_method`` calls it, raising at ``budget`` and saying whether
    it ran in the process ``here`` or in a worker."""
    run = getattr(cli, method)

    def failing(cache, limit, *args, **kwargs):
        if limit == budget:
            where = "here" if os.getpid() == here else "worker"
            raise lq.NumericalError(f"{method} failed at budget {limit} ({where})")
        return run(cache, limit, *args, **kwargs)

    return failing


# the greedy column runs in the worker and the heavier log-det column here
@pytest.mark.parametrize("failures, message", [
    ({"greedy_budget": 6.0}, "greedy_budget failed at budget 6.0"),
    ({"baseline_logdet": 6.0}, "baseline_logdet failed at budget 6.0"),
    ({"baseline_logdet": 4.0, "greedy_budget": 6.0}, "baseline_logdet failed at budget 4.0"),
    ({"greedy_budget": 4.0, "baseline_logdet": 6.0}, "greedy_budget failed at budget 4.0"),
    ({"baseline_logdet": 6.0, "greedy_budget": 6.0}, "greedy_budget failed at budget 6.0"),
], ids=["worker-only", "here-only", "here-first", "worker-first", "same-row-method-order"])
def test_a_column_error_is_the_one_process_error(monkeypatch, failures, message):
    argv = (*FORMATION_A4_GRID[:-1], "20", "--seed", "7")
    for method, budget in failures.items():
        monkeypatch.setattr(cli, method, _failing(method, budget, os.getpid()))
    monkeypatch.setattr(_parallel, "_FORK_WORK", 1)
    _on_cpus(monkeypatch, 1)
    alone = _sweep(*argv)
    _on_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    dealt = _sweep(*argv)
    _assert_no_child_left()
    assert alone == (1, "", f"lqgcodesign: error: {message} (here)\n")
    where = "worker" if message.startswith("greedy_budget") else "here"
    assert dealt == (1, "", f"lqgcodesign: error: {message} ({where})\n")
    assert len(forks) == 1


def test_a_forked_child_neither_deals_nor_holds_the_workers(monkeypatch):
    """Released while a forked child holds a copy, a cache reaps its worker at once; the
    child's own fill runs alone and gives the one-process bits."""
    monkeypatch.setattr(kalman, "_BATCH_SETS", 64)
    monkeypatch.setattr(_parallel, "_FORK_WORK", 1)
    _on_cpus(monkeypatch, 1)
    want = support.solved(UAV_A9)[2].f_table(np.arange(1 << 11)).tobytes()
    _on_cpus(monkeypatch, 2)
    cache = support.solved(UAV_A9)[2]
    cache.f_table(np.arange(1 << 10))
    assert len(_pool(cache)) == 1
    support.forget(cache)
    bits, done = os.pipe()
    release, hold = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(bits)
            os.close(hold)
            os.fork = _refuse_fork
            assert _pool(cache) == []
            table = cache.f_table(np.arange(1 << 11)).tobytes()
            with os.fdopen(done, "wb") as out:
                out.write(table)
            os.read(release, 1)  # alive, holding its copy, until the test lets it go
            code = 0
        finally:
            os._exit(code)
    os.close(done)
    os.close(release)
    try:
        with os.fdopen(bits, "rb") as got:
            assert got.read() == want
        start = time.perf_counter()
        del cache  # its worker sees EOF: the child does not hold its request pipe
        assert time.perf_counter() - start < 1.0
    finally:
        os.close(hold)
        status = os.waitpid(pid, 0)[1]
    assert status == 0
    _assert_no_child_left()
