"""Wall time scaled to the host's current speed.

The benchmark shares its machine with other tenants, and the speed at which
this host runs Python swings by up to 1.7x within seconds (frequency and
shared-core contention; the process's own CPU time swings the same way, so
it is no remedy).  A raw wall-clock rate then says more about the
neighbours than about the program.

:class:`HostClock` times a fixed pure-Python reference mix (dict and
attribute traffic, calls, a heap, generator resumes -- the operations the
simulator spends its time on) between the benchmark's timed segments, and
reports each segment's wall seconds scaled by ``REFERENCE_S`` over the
mean reference time measured just before and just after it.  A segment is
kept short (``SEGMENT_S``) so the host's speed is nearly constant across
it.  On a host running at the speed where the reference mix takes
``REFERENCE_S``, scaled seconds equal wall seconds.

The reference mix is the benchmark's own code and runs with the cyclic
garbage collector off: a collection started by its allocations would
traverse the program's whole heap (version chains, WAL, replicas) and
charge that to the reference, so a program whose heap grows would look
faster.  A program change can still move the reference through the
host's caches and memory, but not through the collector.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import List

#: Reference-mix seconds at the nominal host speed (medians of 9.4 to
#: 10.4 ms were measured on the 2-vCPU machine of README.md's figures).
REFERENCE_S = 0.0100
#: Longest stretch of program work timed between two reference samples.
SEGMENT_S = 0.25
_REFERENCE_ITEMS = 4000


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, following):
        self.key = key
        self.value = value
        self.next = following


def _resumed(count: int):
    total = 0
    for index in range(count):
        total += yield index
    return total


def reference_mix(items: int = _REFERENCE_ITEMS) -> int:
    """The fixed reference work; returns a checksum so none of it is dead."""
    table = {}
    heap: List[tuple] = []
    node = None
    for index in range(items):
        key = f"k{index % 512}"
        entry = table.get(key)
        if entry is None:
            entry = table[key] = {"n": 0, "items": []}
        entry["n"] += 1
        entry["items"].append(index)
        if len(entry["items"]) > 8:
            entry["items"].pop(0)
        node = _Node(key, index, node if index % 64 else None)
        heapq.heappush(heap, (index * 7919 % 1009, index, key))
        if len(heap) > 256:
            heapq.heappop(heap)
    generator = _resumed(items)
    next(generator)
    total = 0
    try:
        for index in range(items):
            generator.send(index)
    except StopIteration as stop:
        total = stop.value
    return len(table) + len(heap) + total + (node.value if node else 0)


def reference_seconds() -> float:
    """Wall seconds of one reference mix, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_mix()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Turns the wall seconds of consecutive segments into scaled seconds."""

    def __init__(self):
        self.previous = reference_seconds()
        #: Every reference sample taken, in seconds.
        self.samples: List[float] = [self.previous]

    def scaled(self, wall_seconds: float) -> float:
        """Scale a segment that ended just now; samples the reference."""
        after = reference_seconds()
        self.samples.append(after)
        speed = (self.previous + after) / 2.0
        self.previous = after
        return wall_seconds * REFERENCE_S / speed


class Stopwatch:
    """Times one stretch of work as a sum of scaled segments."""

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.scaled = 0.0
        self.wall = 0.0
        self.start = time.perf_counter()

    def split(self, force: bool = False) -> float:
        """End the current segment if it is ``SEGMENT_S`` long (or now,
        with ``force``) and start the next one; returns the ended segment's
        scaled seconds (0.0 when the segment goes on)."""
        elapsed = time.perf_counter() - self.start
        if not force and elapsed < SEGMENT_S:
            return 0.0
        self.wall += elapsed
        scaled = self.clock.scaled(elapsed)
        self.scaled += scaled
        self.start = time.perf_counter()
        return scaled

    def stop(self) -> float:
        """End the last segment; returns the scaled seconds."""
        self.split(force=True)
        return self.scaled
