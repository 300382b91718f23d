"""A fixed reference kernel, timed beside every operation.

The sandbox's speed is not constant: a neighbour on the sibling core or
in the shared cache slows memory-bound Python by 20–40 % for seconds to
minutes at a time (an arithmetic loop hardly notices; pointer-chasing
code does).  Wall times taken in different minutes therefore differ by
more than any bound worth gating on, whatever is measured.

So the benchmark measures against a yardstick that suffers the same
weather.  ``HostReference.sample()`` times a small kernel that does what
the emulator's hot paths do — chase references through memory larger
than the cache, update counters and a small dict, push and pop a binary
heap — and returns how slow the host is right now relative to
``NOMINAL_S``, the kernel's time on this sandbox when it is quiet.
Samples are taken between operations all through a run; one sample is
as noisy as one operation, so a run's times are divided by the *median*
of its samples.  That is its time *at nominal host speed*: still
milliseconds, still moved one-for-one by any change to the emulator,
but no longer by which minute the run happened to get.

The kernel is part of the benchmark, not of the emulator, and must not
change with it: a change here moves every number at once.
"""

from __future__ import annotations

import heapq
import pathlib
import random
import statistics
from time import perf_counter

#: one kernel pass on this sandbox when it is quiet.
NOMINAL_S = 0.008
#: ring entries (~10 MiB of list slots and int objects, past a guest's
#: share of the caches) and ring steps per pass.
RING = 200_000
STEPS = 10_000


def _rss_mib() -> float:
    pages = int(pathlib.Path("/proc/self/statm").read_text().split()[1])
    return pages * 4096 / 2**20


class HostReference:
    """A shuffled ring of indices, and where the last pass stopped.

    Plain lists of ints, not objects: the collector does not track ints,
    so the yardstick adds nothing to the collections the program pays
    for (a ring of 150k small objects slowed Fig. 2 trials by a tenth).
    """

    def __init__(self) -> None:
        before = _rss_mib()
        order = list(range(RING))
        random.Random(0).shuffle(order)
        self._next = [0] * RING
        for position, here in enumerate(order):
            self._next[here] = order[position - 1]
        self._hits = [0] * RING
        self._at = 0
        #: what the ring added to this process's resident set, so peak
        #: RSS can be reported without it.
        self.footprint_mib = _rss_mib() - before

    def _pass(self) -> float:
        following, hits, at = self._next, self._hits, self._at
        slots: dict = {}
        heap: list = []
        push, pop = heapq.heappush, heapq.heappop
        started = perf_counter()
        for step in range(STEPS):
            at = following[at]
            hits[at] += 1
            slots[at & 63] = step
            push(heap, (hits[at], step))
            if step & 1:
                pop(heap)
        elapsed = perf_counter() - started
        self._at = at
        return elapsed

    def sample(self) -> float:
        """Host slowness now: median of three passes over ``NOMINAL_S``
        (1.0 on the quiet sandbox, 1.3 when everything takes 30 % longer)."""
        return statistics.median(self._pass() for _ in range(3)) / NOMINAL_S
