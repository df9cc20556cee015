"""Machine-speed pacing: a fixed pure-Python kernel co-sampled with the work.

On a shared 2-vCPU Xeon VM the speed of the same work drifts by tens of
percent from one second to the next, and process CPU time drifts with it,
so raw times of one commit spread too widely to compare two commits.  While a Pacer runs, a
timer interrupts the work every INTERVAL_S and runs a fixed kernel, which
uses nothing from detlinks, for SHARE of the work time since the previous
slice; so the kernel samples the machine evenly through the work.  The
kernel's rate over an iteration, relative to REFERENCE_RATE, is the
iteration's speed, and a time multiplied by it is the time the same work
would take at the reference speed.  A change to detlinks moves the work's
time but not the kernel's.  clock() and cpu_clock() leave the slices out.
An operation far shorter than an iteration is scaled by the speed of the
slices around it instead (speed_around).
"""

from __future__ import annotations

import signal
from time import perf_counter, process_time

INTERVAL_S = 0.04  # work time between two slices
SHARE = 0.25  # kernel time per second of work
# Kernel runs per second at the reference speed (near the median of a
# shared 2-vCPU Xeon VM), so adjusted times read close to seconds there.
REFERENCE_RATE = 14000.0

_TERMS = tuple((i % 5, (i * 7) % 11, 3 ** i) for i in range(16))


def kernel() -> int:
    """Sparse products of tuple-keyed integer coefficients, like the program's classes."""
    acc = {}
    for a, b, x in _TERMS:
        for c, d, y in _TERMS:
            key = (a + c, b + d)
            acc[key] = acc.get(key, 0) + x * y
    return len(acc)


class Pacer:
    """Kernel runs and time, summed over the slices of one iteration.  A
    Pacer that is never started runs no slice, and its clocks are the plain
    ones."""

    def __init__(self):
        self.runs = 0
        self.run_seconds = 0.0  # time of the counted kernel runs
        self.seconds = 0.0  # all wall time spent in slices
        self.cpu_seconds = 0.0
        self.slices = []  # (clock() at the slice, counted runs, their seconds)
        self._mark = perf_counter()

    def start(self):
        self._mark = perf_counter()
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _slice(self, signum, frame):
        """Run the kernel for SHARE of the work time since the last slice.
        The first run warms the caches up after the program's work and is
        timed but not counted."""
        start = perf_counter()
        cpu = process_time()
        target = SHARE * (start - self._mark)
        kernel()
        counted_from = now = perf_counter()
        runs = 0
        while now - start < target or not runs:
            kernel()
            runs += 1
            now = perf_counter()
        self.slices.append((start - self.seconds, runs, now - counted_from))
        self.runs += runs
        self.run_seconds += now - counted_from
        self.cpu_seconds += process_time() - cpu
        self.seconds += now - start
        self._mark = now
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def clock(self) -> float:
        """perf_counter() without the time spent in slices."""
        while True:
            paced = self.seconds
            now = perf_counter()
            if paced == self.seconds:  # no slice ran in between
                return now - paced

    def cpu_clock(self) -> float:
        """process_time() without the CPU time spent in slices."""
        while True:
            paced = self.cpu_seconds
            now = process_time()
            if paced == self.cpu_seconds:
                return now - paced

    def speed(self) -> float | None:
        """Kernel rate over the iteration relative to REFERENCE_RATE."""
        return self.runs / self.run_seconds / REFERENCE_RATE if self.runs else None

    def speed_around(self, start: float, end: float) -> float | None:
        """Kernel rate of the slices within INTERVAL_S of [start, end] (clock()
        times), relative to REFERENCE_RATE; the iteration's speed if none is."""
        near = [(runs, seconds) for at, runs, seconds in self.slices
                if start - INTERVAL_S <= at <= end + INTERVAL_S]
        if not near:
            return self.speed()
        return sum(r for r, _ in near) / sum(s for _, s in near) / REFERENCE_RATE
