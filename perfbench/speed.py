"""Machine-speed calibration of the benchmark's timings.

A shared host changes speed: on the 2-vCPU host the reference figures come
from, a fixed loop ran up to 1.8x slower for minutes at a time, so a wall
time measures the host as much as the program.  A probe, a fixed loop of
scalar Python and numpy that calls nothing of vacuumpairs, runs between the
timed ops.  Each op's wall time is rescaled by REFERENCE_PROBE_S over the
probe time around it, which gives the time the op would take on a host where
the probe takes REFERENCE_PROBE_S.  A change to vacuumpairs moves the op and
not the probe, so it shows in full; a change of host speed moves both alike
and cancels.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# probe time of the reference host: a 2-vCPU host at its faster speed
REFERENCE_PROBE_S = 0.0085
# the probe runs again after this much wall time of ops; it costs about 2% of a run
SEGMENT_S = 0.5

_ARRAY = np.linspace(0.0, 1.0, 50_000)


def _probe_once() -> float:
    t0 = time.perf_counter()
    total = 0.0
    for i in range(15_000):
        total += math.sqrt(i) * 1.0001
    for _ in range(4):
        np.exp(-_ARRAY) * np.sqrt(_ARRAY)
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the probe takes now: three runs of the loop, as three times
    their median, so that one run slowed by an interrupt does not count."""
    return 3.0 * statistics.median(_probe_once() for _ in range(3))


class Scale:
    """Rescales wall times to the reference host, probing between segments.

    Call ``mark()`` after each timed op.  It returns None until SEGMENT_S of
    wall time has passed since the last probe (or at once with ``force``),
    and then ``(factor, seconds)`` of the segment that ends there: its wall
    time without the probes, and the factor for every op in it,
    REFERENCE_PROBE_S over the mean of the probes before and after it.
    """

    def __init__(self):
        self.before = probe()
        self.start = time.perf_counter()

    def mark(self, force: bool = False) -> tuple[float, float] | None:
        seconds = time.perf_counter() - self.start
        if not force and seconds < SEGMENT_S:
            return None
        after = probe()
        factor = REFERENCE_PROBE_S / (0.5 * (self.before + after))
        self.before = after
        self.start = time.perf_counter()
        return factor, seconds
