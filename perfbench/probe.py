"""Host-speed probe: a fixed pure-Python kernel timed while the benchmark runs.

On a shared two-core host the same code runs at speeds up to ~1.6x apart, in
phases from seconds to minutes, as other tenants load the cores.  A raw
timing then says more about the neighbours than about srsq.  So during timed
passes a Sampler times this kernel every INTERVAL_S, from a SIGALRM handler
on the benchmark's own thread and CPU, and each operation's time (the probe
runs taken out) is scaled by REFERENCE_S over the median probe time during
and around it: seconds at the host speed where the probe takes REFERENCE_S.
The kernel does not call srsq, so a change to srsq moves scaled times exactly
as it moves raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Median probe time on the 2-core Xeon (2.1 GHz) VM, Python 3.11, on which
# the baseline was taken.
REFERENCE_S = 0.0015

INTERVAL_S = 0.1
# Probes up to this long before an operation starts or after it ends also
# count for its speed, so even the shortest operation gets a few.
HALO_S = 0.25


def _kernel() -> int:
    # Small-integer arithmetic, fraction-free elimination on an integer
    # matrix, and set and sort traffic: the work of srsq's bitmask kernels,
    # its Bareiss rank and its face lists.  (A dict-heavy kernel slowed down
    # about twice as much as srsq did in the host's slow phases.)
    acc = 0
    for i in range(6000):
        acc += (i * i) % 7 ^ (i >> 3)
    a = [[(i * 7 + j * j * 3) % 11 - 5 for j in range(14)] for i in range(14)]
    prev = 1
    for k in range(13):
        if a[k][k] == 0:
            continue
        for i in range(k + 1, 14):
            for j in range(k + 1, 14):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    cells = [(i * 7919) % 1000 for i in range(1500)]
    pairs = {(x, x & 15) for x in cells}
    return acc + len(sorted(cells)) + len(frozenset(pairs)) + prev.bit_length()


class Sampler:
    """Probe times every INTERVAL_S while active (a context manager)."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _kernel()
        self.durations.append(time.perf_counter() - start)
        self.stamps.append(start)

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # A handler interrupted by the next signal appends out of order.
        pairs = sorted(zip(self.stamps, self.durations))
        self.stamps = [p[0] for p in pairs]
        self.durations = [p[1] for p in pairs]

    def _between(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.stamps, start)
        return self.durations[lo:bisect.bisect_right(self.stamps, end)]

    def scaled(self, start: float, end: float) -> float:
        """The time from ``start`` to ``end`` without the probes run inside
        it, at the reference speed.  Call after the sampler has stopped, so
        the probes after ``end`` are in."""
        seconds = end - start - sum(self._between(start, end))
        near = self._between(start - HALO_S, end + HALO_S)
        if not near:  # only when the host stalled the timer for a while
            i = bisect.bisect_left(self.stamps, start)
            near = [self.durations[min(i, len(self.stamps) - 1)]]
        return seconds * REFERENCE_S / statistics.median(near)
