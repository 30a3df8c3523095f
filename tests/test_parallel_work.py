"""The one work rule of ``_parallel.processes`` at its documented decision points.

Work is counted in set-equivalents * T * n^2, in parts of ``_FORK_WORK``;
two parts or more get a process per part and per CPU.  At T = 20 on two
CPUs a fill is dealt from 512 new multisets at n = 6, 72 at n = 16 and 18 at
n = 32, and formation a4's sweep deals its method columns and its rollouts.
A deal that waits on workers, a forked child and one CPU keep every call in
one process.
"""

import contextlib
import io
import os

import pytest

from lqgcodesign import _parallel, cli

import support
from test_parallel_fill import FORMATION_A4, FORMATION_A8, UAV_A9, _assert_no_child_left

SYSTEMS = {6: UAV_A9.system, 16: FORMATION_A4.system, 32: FORMATION_A8.system}


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.mark.parametrize("n, sets, processes", [
    (6, 511, 1), (6, 512, 2), (16, 71, 1), (16, 72, 2), (32, 17, 1), (32, 18, 2),
])
def test_a_fill_is_dealt_from_two_parts(two_cpus, n, sets, processes):
    assert SYSTEMS[n].horizon == 20 and SYSTEMS[n].state_dim == n
    assert _parallel.processes(sets, SYSTEMS[n]) == processes


def test_a_process_per_part_and_per_cpu(monkeypatch):
    """UAV a9's 2^11 table at n = 6 is eight parts: two processes on two CPUs, eight on 16."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
    assert _parallel.processes(1 << 11, SYSTEMS[6]) == 8
    assert _parallel.processes(3 * 256 - 1, SYSTEMS[6]) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert _parallel.processes(1 << 11, SYSTEMS[6]) == 2


def test_the_formation_a4_sweep_deals_its_columns_and_rollouts(monkeypatch, two_cpus):
    """Its greedy (m^2 = 256), log-det (384), random and all (3 each) columns are 646 sets,
    17 parts; its 8 distinct sets of 100 runs are 200 sets, 5 parts: two processes each."""
    asked, dealt = [], []
    processes, deal = _parallel.processes, _parallel.deal
    monkeypatch.setattr(_parallel, "processes",
                        lambda sets, system: asked.append(sets) or processes(sets, system))
    monkeypatch.setattr(_parallel, "deal", lambda owner, calls: dealt.append(
        (calls[0][0].__name__, len(calls))) or deal(owner, calls))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--scenario", "formation", "--agents", "4", "--horizon", "20",
                         "--mode", "heterogeneous", "--budgets", "4,6,8", "--methods",
                         "greedy,logdet,random,all", "--runs", "100", "--seed", "7"]) == 0
    _assert_no_child_left()
    assert 646 in asked and 8 * 100 / 4 in asked
    assert processes(646, SYSTEMS[16]) == processes(200, SYSTEMS[16]) == 2
    assert [d for d in dealt if d[1] > 1] == [("_column_reports", 2), ("_rollout_costs", 2)]
    assert all(sets < 72 for sets in asked if sets not in (646, 200))  # every fill: one process


def _processes_here(cache):
    """What the work rule gives a 2^11 table while a deal waits, here and in a worker."""
    return _parallel.processes(1 << 11, SYSTEMS[6])


def test_a_busy_deal_and_one_cpu_give_one_process(monkeypatch, two_cpus):
    cache = support.solved(UAV_A9)[2]
    assert _parallel.processes(1 << 11, SYSTEMS[6]) == 2
    assert _parallel.deal(cache, [(_processes_here, ())] * 2) == [1, 1]
    assert _parallel.processes(1 << 11, SYSTEMS[6]) == 2  # not busy once the deal is done
    del cache
    _assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _parallel.processes(1 << 11, SYSTEMS[6]) == 1
    assert _parallel.processes(646, SYSTEMS[16]) == 1
