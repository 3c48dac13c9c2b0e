"""The host-speed probe that every end-to-end timing is scaled by.

On a shared host the same code runs at very different speeds from one spell
to the next: other tenants contend for the core and its caches, and that
shows in CPU time as much as in wall time (see README.md, "Timing on a
shared host").  The probe is a fixed piece of pure-Python work that touches
nothing of the program.  Timing it right before and right after a measured
span gives the host's speed over that span, and each timing is reported as
it would read at the reference speed: ``raw * REFERENCE_SECONDS / probe``.
A change to the program moves the raw time and not the probe, so it moves
the scaled time by the same share.
"""

from __future__ import annotations

import time

REFERENCE_SECONDS = 0.003
"""What one probe takes at the reference speed: about its median on the
2-CPU Xeon virtual machine the benchmark was written on."""


def reference_work() -> int:
    """Integer arithmetic, tuple building, a filter and a sort: the kinds of
    interpreter work the hub, the store and the query planner do."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    rows = [(i % 97, i * 0.1) for i in range(6000)]
    kept = sorted(row for row in rows if 10 <= row[0] < 60)
    return total + len(kept)


def probe_seconds() -> float:
    """The faster of two probes, so that one interrupt does not count."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - started)
    return best


class HostSpeed:
    """Scale factors for consecutive measured spans.

    ``restart()`` probes before a span; ``scale()`` probes after it and
    returns ``REFERENCE_SECONDS`` over the mean of the two probes.  The
    probe that ends one span also starts the next, so back-to-back spans
    (query blocks) pay one probe each.  A short span after which the
    program keeps working in the background (a node set-up, whose workers
    are still starting) is scaled by the factor ``restart()`` returns.
    """

    def __init__(self) -> None:
        self._last = probe_seconds()
        self.factors: list[float] = []

    def restart(self) -> float:
        """Probes before a span; returns the factor of this probe alone."""
        self._last = probe_seconds()
        return REFERENCE_SECONDS / self._last

    def scale(self) -> float:
        before, self._last = self._last, probe_seconds()
        factor = 2.0 * REFERENCE_SECONDS / (before + self._last)
        self.factors.append(factor)
        return factor
