"""The speed of the machine, measured next to the requests.

On a shared virtual machine with 2 vCPUs, where these figures were taken,
co-tenants slow everything down.  The slowdown is up to threefold and lasts
from under a second to minutes, so a whole run can fall inside it.  The
benchmark therefore times a fixed piece of pure-Python work next to the
requests, every half second.  The work is of the same kind as effkit's:
exact rationals in tuples, frozensets and subset tests, JSON.  Every timing
is scaled by ``REFERENCE_S`` over the median of the four calibrations
nearest to it in time.  Times are thus stated at the speed at which the
calibration takes ``REFERENCE_S``, about that machine's unloaded speed.

In a four-minute recording of the refine workload, the median request
latency of 35-second windows ranged from -11% to +54% of its median raw,
and from -7% to +4% scaled.

The calibration is benchmark code, so a change to effkit cannot change it.
"""

from __future__ import annotations

import bisect
import json
import random
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.010
NEAREST = 4


def calibrate() -> int:
    """Fixed work of about 10 ms on that machine, unloaded."""
    rng = random.Random(0)
    vectors = [tuple(Fraction(rng.randrange(9), 8) for _ in range(6)) for _ in range(300)]
    sets = sorted((frozenset(rng.sample(vectors, 4)) for _ in range(300)), key=len)
    kept: list[frozenset] = []
    for s in sets:
        if not any(k <= s for k in kept[:40]):
            kept.append(s)
    doc = json.loads(json.dumps([[str(q) for q in v] for v in vectors]))
    return len(kept) + len(doc) + len({hash(v) for v in vectors})


class Calibration:
    """Calibration times with the moments they were taken."""

    def __init__(self, every: float):
        self.every = every
        self.at: list[float] = []
        self.took: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Calibrate if ``every`` seconds have gone by since the last time."""
        start = time.perf_counter()
        if force or not self.at or start - self.at[-1] >= self.every:
            calibrate()
            self.took.append(time.perf_counter() - start)
            self.at.append(start)

    def scale(self, moment: float) -> float:
        """Factor for a timing taken at ``moment``."""
        i = bisect.bisect_left(self.at, moment)
        near = self.took[max(0, i - NEAREST // 2) : i + NEAREST // 2]
        return REFERENCE_S / statistics.median(near or self.took)
