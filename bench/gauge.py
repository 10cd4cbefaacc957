"""Host speed gauge: a fixed piece of pure-Python work timed while the
benchmark runs.

The host this benchmark was written on is a share of a bigger machine, and
its speed changes by up to 1.7x, in regimes lasting from a second to
minutes.  A run that happens to fall into a slow stretch reads slow on every
metric.  The gauge times a reference loop at intervals during each measured
operation; the ratio of its mean duration to ``NOMINAL_S`` is how much slower
than nominal the host ran meanwhile, and dividing a time by that ratio gives
the time the operation would have taken on a host that runs the reference
loop in ``NOMINAL_S``.  The reference loop never changes with faultscope,
so a change to the program moves the normalized time, and a change of the
host's speed does not.
"""

from __future__ import annotations

import heapq
import math
import time
from array import array

ROUNDS = 2000
# duration of reference_loop() on the host the benchmark was written on, in
# its usual regime; a constant, so that normalized times stay comparable
NOMINAL_S = 1.5e-3


def reference_loop(rounds: int = ROUNDS) -> int:
    """The kind of work the simulator does, in a few dozen lines of its own:
    a heap of timed events, a dict of values and a list of changes."""
    heap = [(0.0, i) for i in range(64)]
    values: dict[int, int] = {}
    changes = []
    for _ in range(rounds):
        t, i = heapq.heappop(heap)
        v = values.get(i, 0) ^ 1
        values[i] = v
        if v:
            changes.append((t, i))
        heapq.heappush(heap, (t + 1.0 + (i * 7 % 5), (i * 13 + 1) & 63))
    return len(changes)


class Gauge:
    """Times ``reference_loop`` whenever ``tick()`` is called at least
    ``interval`` seconds after the previous sample ended."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples = array("d")
        self.spent = 0.0  # seconds spent in the reference loop so far
        self._due = 0.0

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._due = t1 + self.interval
        return t1 - t0

    def tick(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def slowdown(self, first: int = 0) -> float:
        """Mean sample from index ``first`` on, relative to ``NOMINAL_S``."""
        tail = self.samples[first:]
        return math.fsum(tail) / len(tail) / NOMINAL_S
