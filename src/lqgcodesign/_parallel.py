"""Dealing calls to forked workers: the package's one user of ``os.fork``, pipes and pickle.

A call whose work, its set-equivalents * T * n^2, is two ``_FORK_WORK`` or
more, in a process that may run on more than one CPU
(``os.sched_getaffinity``), gets one process per CPU and per ``_FORK_WORK``
(``processes``).  It deals its calls (``deal``) and merges their results in
the one-process order, so the values, the memo and any error are those of
one process.  This process is worker 0; the others are the owner's (an
``ObjectiveCache``), at most one fewer than the CPUs, forked once
(``_fork_worker``) and sent any module-level function to run on their copy
of the owner: a fill's batches, a sweep's method columns or Monte Carlo
shares.  They are reaped when the owner is released or the interpreter
exits; one thread at a time may deal.  A call that gets no worker, as
``os.fork`` or ``os.pipe`` failed, or whose worker died before its answer
was whole, runs here.  No switch: ``taskset -c 0`` pins a run to one core;
without ``os.fork`` or ``os.sched_getaffinity``, and in any forked child,
everything runs in one process.  Python 3.12 and later may warn that
forking a process with threads (OpenBLAS starts some) can deadlock the
child; the workers call only numpy and LAPACK.  Tested on 3.11.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import weakref

# Work, set-equivalents * T * n**2, of each worker at least: a full batch at
# n = 6, T = 20 (a 128-set batch there costs as much), 9 sets at n = 32.  A
# set costs about n**1.5 (12-16 times n = 6's at n = 32); n**2 deals formation
# a8's greedy steps, 35-37 sets, with a margin of two.  An owner forks a worker
# once, in 2-4 ms; a later fill's exchange with it costs about 0.1 ms.
_FORK_WORK = 256 * 20 * 6 * 6

_POOLS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # (pid, request, reply) lists

_busy = False  # while a deal waits on workers, and for good in a forked child


def _cpus() -> int:
    """CPUs this process may run on: 1 where the platform cannot tell or cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _disown_pools() -> None:
    """In a forked child, close the inherited workers' pipe ends and empty their pools, so
    only their owner holds a worker's request pipe open and reaps it."""
    global _busy
    _busy = True
    for pool in _POOLS.values():
        for _, *ends in pool:
            for end in ends:
                os.close(end)
        pool.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_disown_pools)


def processes(sets, system) -> int:
    """Processes for a call of ``sets`` set-equivalents on ``system``: a fill counts a set per
    new multiset, a greedy column m**2 of the m sensors, a log-det column 3/2 of that, another
    method a set per budget, a rollout a quarter of a set per run."""
    parts = int(sets * system.horizon * system.state_dim ** 2) // _FORK_WORK
    return min(_cpus(), parts) if parts > 1 and not _busy else 1


def kept(function, *args):
    """``function(*args)``, or the exception it raised without the traceback whose frames
    would hold it in a cycle; ``taken`` raises it."""
    try:
        return function(*args)
    except Exception as exc:
        return exc.with_traceback(None)


def taken(outcomes: list, i: int):
    """``outcomes[i]``, or raised if it is an exception, popped first so that no frame its
    traceback holds holds it: no cycle keeps an owner alive."""
    if isinstance(outcomes[i], Exception):
        raise outcomes.pop(i)
    return outcomes[i]


def _fork_worker(owner) -> tuple[int, int, int]:
    """Fork a worker of ``owner``: its pid and this process's ends of its pipes.

    It answers each request, a module-level function and its arguments, with
    the ``kept`` outcome of the function on its copy of the owner and what
    the call added there (``owner._recorded``), which ``deal`` merges
    (``owner._merge``).  It leaves by ``os._exit``, running no exit handler:
    at EOF, or on an error.  If ``os.pipe`` or ``os.fork`` raises, no pipe
    end is left open.
    """
    ends = []
    try:
        for _ in range(2):
            ends.extend(os.pipe())
        pid = os.fork()
    except BaseException:
        for end in ends:
            os.close(end)
        raise
    request, reply = ends[:2], ends[2:]
    if pid == 0:
        try:
            import signal
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # a terminal's ^C is this process's
            for end in (request[1], reply[0]):
                os.close(end)  # a write fails, not blocks, once this process is gone
            with os.fdopen(request[0], "rb") as asked, os.fdopen(reply[1], "wb") as answers:
                while asked.peek(1):  # empty at EOF: the owner let this worker go
                    pickle.dump(owner._recorded(*pickle.load(asked)), answers)
                    answers.flush()
            os._exit(0)
        finally:
            os._exit(1)
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


def deal(owner, calls: list) -> list:
    """The results of ``calls``, (module-level function, args) pairs, each run on ``owner``.

    One call runs here, as a plain call.  Of more, call 0 runs here and call
    i in worker i, forked when the owner has fewer, on its copy of the owner;
    the first call that raised raises once all have answered.  A call left
    without a worker, as ``os.pipe`` or ``os.fork`` raised ``OSError``, or
    whose worker died before its answer was whole (killed, reaped and
    dropped), runs here after the answered calls, in call order; the next
    deal forks again.  A deal that leaves early kills every worker.
    """
    global _busy
    if len(calls) == 1:
        function, args = calls[0]
        return [function(owner, *args)]
    pool = _POOLS.get(owner)
    if pool is None:
        pool = _POOLS[owner] = []
        weakref.finalize(owner, _stop, pool)  # holds the pool, not the owner
    try:
        with contextlib.suppress(OSError):  # the calls left without a worker run here
            while len(pool) < len(calls) - 1:
                pool.append(_fork_worker(owner))
        _busy = True
        workers = dict(zip(range(1, len(calls)), pool))  # call i's worker
        for i, (_, request, _) in workers.items():
            with contextlib.suppress(BrokenPipeError):  # a gone worker's answer reads short
                with os.fdopen(request, "wb", closefd=False) as asked:  # written whole
                    pickle.dump(calls[i], asked)
        outcomes = [kept(calls[0][0], owner, *calls[0][1]), *[None] * (len(calls) - 1)]
        for i, worker in list(workers.items()):
            try:
                with os.fdopen(worker[2], "rb", closefd=False) as answers:
                    outcomes[i], added = pickle.load(answers)
            except (EOFError, pickle.UnpicklingError):  # it died before its answer was whole
                pool.remove(worker)
                _stop([workers.pop(i)], kill=True)
                continue
            owner._merge(added)
        for i in range(1, len(calls)):
            if i not in workers:
                outcomes[i] = kept(calls[i][0], owner, *calls[i][1])
    except BaseException:
        _stop(pool, kill=True)
        raise
    finally:
        _busy = False
    for i in range(len(outcomes)):
        taken(outcomes, i)
    return outcomes
