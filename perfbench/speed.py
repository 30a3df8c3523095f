"""Tracks the CPU's speed while code runs, to scale wall time.

The reference machine is a virtual CPU on a shared host.  Each core switches
between a fast and a slow state, about 1.6x apart, every few tenths of a
second to tens of seconds, and the two cores switch independently.  A round
of several seconds straddles both states, so its raw wall time depends as
much on when it ran as on the code.

``SpeedProbe`` interrupts the code every ``period`` seconds of wall time
(SIGALRM).  Its signal handler runs a fixed calibration kernel twice: once
untimed to bring the kernel back into cache, once timed.  The handler runs
in the measured thread, between two bytecodes of the code, so the timed
kernel runs on the same core and in the same state as the code it
interrupted.  ``scaled_seconds`` turns a stretch of wall time into
reference seconds: each piece of time between two samples counts in
proportion to the speed the samples measured, and the handler's own time is
left out.  One reference second is the work of one wall second at the speed
where the timed kernel takes ``REF_KERNEL_S``.  The kernel is not part of
the program, so a program that does more work shows more reference seconds,
whatever state the CPU was in.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Timed kernel seconds that define the reference speed: about what the
# kernel takes on the reference machine in its fast state (2-vCPU Intel Xeon,
# Python 3.11, numpy 2.4); in the slow state it takes about 50 us.  Reference
# seconds are then close to wall seconds in the fast state.
REF_KERNEL_S = 3.0e-5

# Samples whose median kernel time sets one sample's speed (odd).
SMOOTH = 7

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((6, 6)) + 6.0 * np.eye(6)
_X = _RNG.standard_normal((6, 6))


def kernel() -> float:
    """Small matrix products and Python arithmetic, like the library's own.

    Over one sweep-a4 run, rounds scaled by this kernel varied by 1.5%, and
    by 4.4% when scaled by a pure-Python loop instead.
    """
    x = _X
    acc = 0.0
    for i in range(8):
        x = _A @ x
        x = x / np.abs(x).max()
        acc += float(x[0, 0]) * i
    return acc


class SpeedProbe:
    """Samples the calibration kernel on a wall-clock timer while active."""

    def __init__(self, period: float = 0.01):
        self.period = period
        self.starts: list[float] = []    # perf_counter at each handler's start
        self.ends: list[float] = []      # ... and at its end
        self.kernels: list[float] = []   # seconds of each timed kernel
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:   # a signal that arrived inside the handler itself
            return
        self._busy = True
        start = time.perf_counter()
        kernel()   # untimed: brings the kernel's code and data back into cache
        timed = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.kernels.append(end - timed)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled_seconds(self, t0: float, t1: float) -> float:
        """Time in [t0, t1] at the reference speed, handler time left out.

        A sample's speed comes from the median kernel time of the
        ``SMOOTH`` samples centred on it, so that a kernel slowed by a
        single interrupt does not count.  The time between two samples runs
        at the mean of their speeds; before the first sample and after the
        last, at the speed of that sample.
        """
        if not self.starts:
            raise RuntimeError("the speed probe took no samples")
        starts, ends = np.array(self.starts), np.array(self.ends)
        half = SMOOTH // 2
        padded = np.pad(np.array(self.kernels), half, mode="edge")
        kernels = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)
        speed = REF_KERNEL_S / kernels
        lo = np.concatenate(([-np.inf], ends))
        hi = np.concatenate((starts, [np.inf]))
        rate = np.concatenate(([speed[0]], 0.5 * (speed[:-1] + speed[1:]), [speed[-1]]))
        overlap = np.clip(np.minimum(hi, t1) - np.maximum(lo, t0), 0.0, None)
        return float(overlap @ rate)
