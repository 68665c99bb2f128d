"""Host-speed yardstick for the repository benchmark.

On a shared machine the host's speed drifts by up to two times over
minutes, in phases longer than any one benchmark run, so no median
over a run can remove it.  The benchmark therefore runs a fixed
pure-Python loop on both sides of every timed span and scales the span
to a reference host on which that loop takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / mean(loop before, loop after)

The loop is this file's own code, so a change to the simulator moves
the scaled times exactly as much as the measured ones.  Measured over
150 s on a 2-vCPU x86 VM under Python 3.11, a simulation cell's time
and the loop's time correlated at 0.75 to 0.83, and scaling cut the
cell's quartile spread from about 23% to about 10%.
"""

from __future__ import annotations

import time
from typing import List

#: Iterations of the loop: about 20 to 40 ms on a 2-vCPU x86 VM.
LOOPS = 200_000

#: Seconds the loop takes on the reference host.
REFERENCE_S = 0.03

#: Every loop time this process measured, for the report.
SAMPLES: List[float] = []


def yardstick_s() -> float:
    """Seconds the fixed loop takes on this host now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    seconds = time.perf_counter() - start
    SAMPLES.append(seconds)
    return seconds


class HostClock:
    """Scale factors for spans measured between its calls.

    Creating the clock runs the loop once; each :meth:`factor` call runs
    it again and returns ``REFERENCE_S`` over the mean of that run and
    the one before, so the span timed between two calls is scaled by
    the host speed measured on both sides of it.
    """

    def __init__(self) -> None:
        self.last = yardstick_s()

    def factor(self) -> float:
        before, self.last = self.last, yardstick_s()
        return 2.0 * REFERENCE_S / (before + self.last)
