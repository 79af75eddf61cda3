"""The host's speed, sampled while the benchmark runs, to scale timings by.

The benchmark's host lends it cores that other tenants share. The speed of
one pure-Python loop drifts by up to half over tens of seconds there, with
CPU time equal to wall time, so the drifts are not time lost to other
processes but slower execution, and they outlast a run: unscaled run times
of the same code spread by more than the benchmark's bounds. A fixed kernel
of modular arithmetic, independent of the program, is timed from a SIGPROF
handler every SAMPLE_CPU_S of the process's CPU time. An interval's scaled
time is its wall time, less the kernel time spent inside it, times
REF_KERNEL_S over the median kernel time sampled inside it (or over the last
NEAREST samples, if fewer fell inside): the seconds the interval would have
taken on a host that runs the kernel in REF_KERNEL_S.
"""

from __future__ import annotations

import signal
import statistics
import time

SAMPLE_CPU_S = 0.1
# About the kernel's time on a 2-core Xeon at 2.1 GHz in a quiet spell; it
# only sets the scale, alike for every commit.
REF_KERNEL_S = 0.0012
NEAREST = 8

_P = 1020431
_A = [(i * 7919) % _P for i in range(4096)]
_B = [(i * 104729) % _P for i in range(4096)]


def kernel() -> None:
    """A row update and extended-Euclid inversions mod a prime, as the field code does."""
    [(x - 7 * y) % _P for x, y in zip(_A, _B)]
    for a in range(1, 1000):
        r0, r1, s0, s1 = _P, a, 0, 1
        while r1:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []  # kernel seconds
        self.spent = 0.0  # their sum

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        try:
            kernel()
        finally:  # a deadline may interrupt the kernel
            seconds = time.perf_counter() - start
            self.samples.append(seconds)
            self.spent += seconds

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.spent, len(self.samples)

    def net(self, mark) -> float:
        """Wall seconds since mark, less the kernel time inside them."""
        start, spent, _ = mark
        return time.perf_counter() - start - (self.spent - spent)

    def factor(self, mark) -> float:
        """REF_KERNEL_S over the median kernel time since mark.

        An interval with fewer than NEAREST samples takes the last NEAREST.
        """
        first = mark[2]
        if len(self.samples) - first < NEAREST:
            first = max(0, len(self.samples) - NEAREST)
        if first == len(self.samples):
            self._sample(None, None)
        return REF_KERNEL_S / statistics.median(self.samples[first:])

    def median_kernel_s(self) -> float:
        return statistics.median(self.samples) if self.samples else 0.0
