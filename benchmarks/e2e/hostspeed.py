"""Host-speed reference that every timing of the benchmark is scaled by.

The benchmark runs on shared machines whose cores change speed as other
tenants load them. On the 2-CPU x86-64 container the benchmark was
written on, a fixed pure-Python loop ran at one of two speeds 1.6x
apart, switching every few seconds or, at busy times, several times a
second; the two CPUs switched independently, and process CPU time
slowed with wall time, so neither clock repeats. The same 1,000-node
trial, run back to back, read 1.25 to 2.47 s; over a minute of slow
switching its quartile spread was 0.51 of its median in wall time and
0.04 once scaled.

So each measured operation is bracketed by :func:`probe`, which times a
fixed pure-Python kernel, and its wall time is multiplied by
``REFERENCE_S`` over the mean of the two probes around it. A scaled time
is what the operation would have taken on a host that runs the kernel in
``REFERENCE_S``: the uncontended speed of that container. Switches
within an operation are not seen, so scaling narrows but does not
remove the spread at busy times. The kernel is part of the benchmark,
not of the program, so a change to the program moves the scaled times
and never the reference.
"""

from __future__ import annotations

import gc
import heapq
import math
import os
import random
import time
from typing import List, Optional, Sequence

#: The kernel's time on the uncontended 2-CPU container, in seconds.
REFERENCE_S = 0.0035
#: Kernel calls per probe; the fastest is kept, so an interrupt during
#: one call does not read as a slow host.
PROBE_CALLS = 3


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def distance(self, other: "_Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def kernel() -> float:
    """The work the host's speed is read from: the interpreter's mix of
    attribute access, method calls, float math, a heap and a dict, as in
    the simulator's event loop."""
    rng = random.Random(7)
    points = [_Point(rng.random(), rng.random()) for _ in range(400)]
    heap: list = []
    totals: dict = {}
    for i, point in enumerate(points):
        for other in points[i % 40 :: 40]:
            distance = point.distance(other)
            heapq.heappush(heap, (distance, i))
            totals[i] = totals.get(i, 0.0) + distance
    while heap:
        heapq.heappop(heap)
    return sum(totals.values())


def probe(cpus: Optional[Sequence[int]] = None) -> float:
    """Seconds the kernel takes now: on the CPU this process runs on, or
    the mean over each of ``cpus`` in turn.

    The CPUs of the container change speed independently of each other,
    so work spread over all of them is scaled by their mean.
    """
    if cpus is None:
        return _fastest_call()
    allowed = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_fastest_call())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


def _fastest_call() -> float:
    # The kernel's allocations would otherwise trigger collections of
    # whatever the program left behind, which are not the host's speed.
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(PROBE_CALLS):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class Scaler:
    """Scale factors for consecutive operations, one probe between each.

    Call :meth:`factor` right after each operation ends; the probe it
    takes also opens the next operation. ``all_cpus`` is for operations
    whose work runs in parallel processes on every CPU.
    """

    def __init__(self, all_cpus: bool = False) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if all_cpus else None
        self.probes: List[float] = [probe(self.cpus)]

    def factor(self) -> float:
        """``REFERENCE_S`` over the mean of the probes around the
        operation that just ended."""
        self.probes.append(probe(self.cpus))
        return 2.0 * REFERENCE_S / (self.probes[-2] + self.probes[-1])

    def slowdown(self) -> float:
        """Median probe over ``REFERENCE_S``: how contended the host was."""
        ordered = sorted(self.probes)
        return ordered[len(ordered) // 2] / REFERENCE_S
