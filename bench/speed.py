"""Timings at a fixed reference speed, to take out the host's drift.

The host this benchmark was built on changes the speed of its CPUs by 20-60 %
over tens of seconds, for pure-Python loops and numpy alike, so plain wall
times of the same code differ that much between runs.  The gauge here runs a
fixed calibration kernel, which uses neither fracorder nor scipy, between the
timed operations: after every operation it runs the kernel until kernel time
is CAL_SHARE of the operation time so far.  Every CHUNK_NS of wall time it
closes a chunk and rescales the chunk's operation times by
REFERENCE_KERNEL_NS / (the chunk's mean kernel time).  A rescaled time is the
operation's wall time at the speed at which the kernel takes exactly
REFERENCE_KERNEL_NS; a change to fracorder moves it as it moves wall time.
"""

import math
import time

import numpy as np

#: the reference speed: the kernel takes this long (about its fastest run on
#: the 2-vCPU VM the benchmark was written on)
REFERENCE_KERNEL_NS = 1_000_000
#: kernel time kept at this share of the timed operation time
CAL_SHARE = 0.2
#: operation and kernel time rescaled with one factor
CHUNK_NS = 1_000_000_000

_Y = np.linspace(0.0, 1.0, 64)


def kernel() -> float:
    """Fixed work of the two kinds that set fracorder's pace: scalar special
    functions in a Python loop, and many numpy calls on small arrays, whose
    per-call overhead dominates.  Of the candidates tried against the
    workloads' own operations in one process (these two, Python integer
    loops, numpy over 4096-point arrays, dict and tuple building), this pair
    tracked their drift best."""
    f = 0.0
    for i in range(1, 2200):
        f += math.lgamma(1.0 + i * 1e-3) * math.exp(-i * 1e-4)
    for _ in range(200):
        f += float((_Y ** 0.37 * np.cos(_Y)).sum())
    return f


def time_kernel() -> int:
    start = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - start


def mean_kernel_ns(runs: int) -> float:
    """Mean time of `runs` kernel calls after one untimed call."""
    kernel()
    return sum(time_kernel() for _ in range(runs)) / runs


class SpeedGauge:
    """Turns raw operation times into times at the reference speed, chunk by chunk."""

    def __init__(self):
        self.factors: list[float] = []  # one per closed chunk
        self._open: list[int] = []
        self._op_ns = self._kernel_ns = self._kernel_runs = 0

    def add(self, elapsed_ns: int) -> list[float]:
        """Record one operation's wall time and calibrate after it; returns
        the rescaled times of the chunk this closes, if any."""
        self._open.append(elapsed_ns)
        self._op_ns += elapsed_ns
        while self._kernel_ns < CAL_SHARE * self._op_ns:
            self._kernel_ns += time_kernel()
            self._kernel_runs += 1
        if self._op_ns + self._kernel_ns >= CHUNK_NS:
            return self.close()
        return []

    def close(self) -> list[float]:
        """Close the open chunk; returns its rescaled times."""
        if not self._open:
            return []
        factor = REFERENCE_KERNEL_NS * self._kernel_runs / self._kernel_ns
        self.factors.append(factor)
        scaled = [ns * factor for ns in self._open]
        self._open = []
        self._op_ns = self._kernel_ns = self._kernel_runs = 0
        return scaled
