"""Host-speed sampling: a fixed reference loop timed every 20 ms.

Shared virtual machines change speed by up to 2x within seconds (on a
2-vCPU Intel Xeon VM, other tenants contending for cores and caches),
so raw wall time of identical work varies far more than any change
worth detecting.  :class:`HostSpeed` times a fixed pure-Python heapq/dict
loop from a ``SIGALRM`` handler all through a measurement, i.e. at the
same moments the program runs.  The median loop time over a window,
divided by :data:`NOMINAL_NS`, is the host's slowdown factor for that
window; dividing a run's wall time by it gives the time the run would
have taken on a host running the loop in :data:`NOMINAL_NS`.

The loop uses only builtins and ``heapq``, never the program under
test, so a change to ``src/`` cannot move the reference.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Sampling period of the reference loop (wall clock).
INTERVAL_S = 0.02
#: Reference-loop time that defines "nominal" host speed.
NOMINAL_NS = 400_000


def reference_loop() -> None:
    """Fixed heapq/dict work (~0.4 ms on a 2-vCPU Intel Xeon VM)."""
    heap: list[int] = []
    table: dict[int, int] = {}
    for i in range(600):
        heapq.heappush(heap, (i * 7919) % 1009)
        table[i & 63] = table.get(i & 63, 0) + i
    while heap:
        heapq.heappop(heap)


class HostSpeed:
    """Context manager sampling :func:`reference_loop` while active."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self._previous = None

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        reference_loop()
        self.samples.append(time.perf_counter_ns() - start)

    def mark(self) -> int:
        """Position to measure a window from (see :meth:`factor`)."""
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """Slowdown against nominal over the samples taken after
        ``since`` (all samples if the window caught none)."""
        window = self.samples[since:] or self.samples
        if not window:
            return 1.0
        return statistics.median(window) / NOMINAL_NS
