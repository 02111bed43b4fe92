"""Host speed probe: scales measured times to a fixed host speed.

The benchmark runs on a few vCPUs of a shared host, whose speed for
interpreted code swings by up to 1.8x over seconds to minutes (other
tenants' load, not descheduling: process CPU time swings with wall time).
Medians over a run cannot remove a swing that lasts the whole run.  So,
while operations are timed, a SIGALRM handler times a fixed pure-Python
kernel every INTERVAL_S seconds of wall time.  An operation's time, minus
the time spent in the handler, is multiplied by REFERENCE_S over the median
kernel time around it: it reads as seconds at the speed at which the kernel
takes REFERENCE_S.  The kernel is the benchmark's own code and imports
nothing from sidigraph, so a change to the program moves the scaled times
exactly as it moves the raw ones.
"""
from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1
# Kernel samples taken before an operation starts that count toward its
# scale; an operation shorter than INTERVAL_S has none of its own.
CONTEXT = 4
# About the kernel's median time on a shared 2-vCPU "Intel(R) Xeon(R)
# Processor" with Python 3.11.7 (medians of 2.4-2.6 ms over 30-second runs
# there).  A constant of the
# benchmark: it only sets the unit, and two compared commits must use the
# same value.
REFERENCE_S = 0.0025


def kernel() -> complex:
    """Fixed interpreted work: dict stores and loads, then complex Horner steps."""
    table: dict[int, int] = {}
    total = 0
    for i in range(6000):
        table[i & 1023] = i
        total += table[i & 511]
    z, acc = complex(0.3, 0.4), 0j
    for i in range(6000):
        acc = acc * z + (i & 7)
        if abs(acc) > 1e6:
            acc /= 1e6
    return acc + total


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the kernel from a timer signal while in a `with` block.

    `samples` holds each kernel time; `paused` the total seconds spent in
    the handler, which timed code subtracts from its own elapsed time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self._previous = None

    def _tick(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.paused += time.perf_counter() - start

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        for _ in range(CONTEXT):
            self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        """State to pass to `scaled` when an operation starts."""
        return len(self.samples), self.paused

    def scaled(self, mark: tuple[int, float], elapsed: float) -> tuple[float, float]:
        """(raw, scaled) seconds of an operation that began at `mark` and took
        `elapsed` seconds of wall time, handler time included."""
        first, paused = mark
        raw = elapsed - (self.paused - paused)
        around = self.samples[max(0, first - CONTEXT) :]
        return raw, raw * REFERENCE_S / statistics.median(around)


def scaled_call(fn) -> tuple[float, float]:
    """(raw, scaled) seconds of `fn()`, for work that cannot run under the
    timer (a child process): the kernel is timed three times right before
    and three times right after it."""
    before = [time_kernel() for _ in range(3)]
    start = time.perf_counter()
    fn()
    raw = time.perf_counter() - start
    after = [time_kernel() for _ in range(3)]
    return raw, raw * REFERENCE_S / statistics.median(before + after)
