"""Machine speed, read from a fixed reference kernel that shares no code with trisat.

On a virtual machine whose cores are shared with other tenants the speed of
one core can change by half within minutes, and every timing moves with it.
run.py therefore times this kernel around and between cases and reports
times scaled to a fixed nominal kernel time, REFERENCE_S.  Each stretch of
cases between two kernel samples counts raw * REFERENCE_S / (mean of those
two samples); the set-up probes, a sample before each, are scaled by
REFERENCE_S over the mean of their samples.  The raw times stay in the run
record.  The kernel does
the kind of work trisat does (composing permutations on tuples, sorting
them, walking cycles, counting in a dict), so a slower core slows both
alike; it calls nothing in trisat, so a change to trisat cannot move it.
"""

from __future__ import annotations

import itertools
import time

#: About the kernel's time on a 2-vCPU Intel Xeon VM under Python 3.11.7.  It
#: only sets the unit: any fixed value works, as long as it never changes.
REFERENCE_S = 0.005
#: Longest stretch of cases between two kernel samples.
SAMPLE_EVERY_S = 0.25

_PERMS = list(itertools.permutations(range(8)))[:1500]


def kernel() -> dict:
    """Cycle-type counts of the sorted squares of 1500 fixed permutations of 8 points."""
    squares = sorted(tuple(p[i] for i in p) for p in _PERMS)
    counts: dict[tuple[int, ...], int] = {}
    for q in squares:
        seen = [False] * 8
        lengths = []
        for start in range(8):
            n, x = 0, start
            while not seen[x]:
                seen[x] = True
                x = q[x]
                n += 1
            if n:
                lengths.append(n)
        key = tuple(sorted(lengths))
        counts[key] = counts.get(key, 0) + 1
    return counts


class Speed:
    """Kernel samples taken over a run, and the work timed between them.

    Raw seconds handed to ``add`` between two samples are scaled by the mean
    of those two samples, so a long case is weighted by its own length.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.cpu_s = 0.0  # CPU time the kernel used
        self.scaled_s = 0.0  # reference seconds of the work closed by a sample
        self._segment_s = 0.0  # raw seconds added since the last sample
        self._last = float("-inf")

    def add(self, raw_s: float) -> None:
        self._segment_s += raw_s

    def sample(self) -> None:
        cpu0 = time.process_time()
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.cpu_s += time.process_time() - cpu0
        self._last = time.perf_counter()
        if self._segment_s:
            self.scaled_s += self._segment_s * REFERENCE_S * 2 / (self.samples[-1] + elapsed)
            self._segment_s = 0.0
        self.samples.append(elapsed)

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def mean_scale(self, first: int) -> float:
        """REFERENCE_S over the mean of the samples from index ``first`` on."""
        recent = self.samples[first:]
        return REFERENCE_S * len(recent) / sum(recent)
