"""Host-speed reference for timings taken on a shared machine.

Load from neighbouring machines changes this process's speed by up to half,
over tens of seconds. So raw wall times differ from one run to the next by
more than any regression worth catching. The benchmark therefore times a
fixed pure-Python kernel between its work items. It scales each raw time by
``REFERENCE_S / t``, where t is the kernel's median time around that item.
A scaled time reads as it would on a host where the kernel takes
``REFERENCE_S``. The kernel belongs to the benchmark, not to the package, so
no change to the package can move it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import Callable

#: The kernel's time on the unloaded 2-vCPU host the benchmark was written on.
REFERENCE_S = 1.5e-3
#: Kernel runs per sample; the sample is their median.
KERNEL_REPEATS = 5
#: Samples closer than this to an item's start or end set its scale.
WINDOW_S = 0.25


def reference_kernel() -> float:
    """Fixed float, tuple and builtin-call work, like the auction's inner loops."""
    xs = [i * 0.001 for i in range(64)]
    acc = 0.0
    for k in range(60):
        acc += math.fsum(tuple(min(max(x + k * 1e-3, 0.0), 1.0) for x in xs))
    return acc


class HostSpeed:
    """Kernel samples over one run, and the scale they give each interval."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        kernel: Callable[[], object] = reference_kernel,
    ) -> None:
        self._clock = clock
        self._kernel = kernel
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self, every: float = 0.0) -> None:
        """Time the kernel, unless the last sample is younger than every seconds."""
        clock = self._clock
        if self.at and clock() - self.at[-1] < every:
            return
        runs = []
        for _ in range(KERNEL_REPEATS):
            start = clock()
            self._kernel()
            runs.append(clock() - start)
        self.at.append(clock())
        self.kernel_s.append(statistics.median(runs))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of [start, end]."""
        if not self.at:
            raise ValueError("no kernel samples taken")
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:  # no sample in the window: use the nearest on each side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return REFERENCE_S / statistics.median(self.kernel_s[lo:hi])
