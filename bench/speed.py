"""Machine-speed reference for normalising the benchmark's times.

On a shared 2-core sandbox the same op runs up to 1.7x slower for stretches
of several seconds, and process CPU time slows with it, so two runs of
identical work disagree by 20% or more.  The benchmark therefore times a
fixed reference kernel between ops and reports each op's wall time scaled
by REFERENCE_S / (reference time measured around the op): milliseconds at
the speed where the kernel takes REFERENCE_S.  The kernel does the same
kind of work as the program (exact rationals in dicts keyed by exponent
tuples) but does not import it, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0025   # the kernel's time at reference speed
SAMPLE_EVERY_S = 0.05  # at most this much time between two samples
WINDOW_S = 1.0         # samples this close to an op, plus twice its
                       # duration, set its scale
MIN_SAMPLES = 3

_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}


def reference_kernel() -> dict:
    """Dense product of two 25-term bivariate polynomials over Q."""
    out: dict = {}
    for (i1, j1), c1 in _TERMS.items():
        for (i2, j2), c2 in _TERMS.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


class Speed:
    """Reference-kernel samples over a run, and the scale they imply."""

    def __init__(self) -> None:
        self.times: list[float] = []    # perf_counter at each sample, ascending
        self.seconds: list[float] = []  # kernel time of each sample
        self._last = -float("inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.seconds.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        """Sample unless the last sample is recent."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time near [start, end].

        Uses the samples within WINDOW_S plus twice the interval's length
        of it, or the MIN_SAMPLES nearest ones when there are fewer.  No
        sample falls inside an op, so a long op takes its speed from a
        longer stretch around it.
        """
        pad = WINDOW_S + 2 * (end - start)
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            if lo > 0 and (hi == len(self.times)
                           or start - self.times[lo - 1] <= self.times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])
