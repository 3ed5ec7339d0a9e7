"""A fixed reference kernel, timed next to every op as a yardstick of the
host's momentary speed.

On a shared virtual machine, other tenants slow whole stretches of a run,
and a run of 30 s can sit entirely inside one: its fastest and its median
op are then 20-40% slower than those of a quiet run.  The slowdown hits the
reference kernel too, so an op's time divided by the kernel's time measured
just before and just after it keeps the program's speed and drops most of
the host's.  ``normalize`` turns that ratio back into seconds on a host
where the kernel takes ``NOMINAL_S``.  The kernel does not call rayfields,
so a change to the program cannot move it.

The kernel mixes what the program's time is made of: element-wise NumPy
work on arrays larger than L2, on arrays that fit in it, on 64-row arrays
where dispatch dominates, and plain Python.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds the kernel takes, rounded, on a quiet 2-core Xeon VM (Python 3.11,
# NumPy 2.4 with OpenBLAS 0.3.31).
NOMINAL_S = 0.03


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._big = rng.random(1_000_000)
        self._mid = rng.random(64_000)
        self._small = rng.random((64, 3))
        # The large passes write into buffers made once: a fresh allocation
        # of that size would cost page faults that depend on what the
        # program left in the allocator, not on the host.
        self._out = {n: (np.empty_like(a), np.empty_like(a)) for n, a in
                     (("big", self._big), ("mid", self._mid))}
        self.run()  # first touch of the buffers is not a reading

    def run(self) -> float:
        """Wall time of one pass of the kernel, in seconds."""
        started = time.perf_counter()
        for name, array, reps in (("big", self._big, 2), ("mid", self._mid, 20)):
            scaled, summed = self._out[name]
            for _ in range(reps):
                np.multiply(array, -0.5, out=scaled)
                np.exp(scaled, out=scaled)
                np.cumsum(scaled, out=summed)
        for _ in range(500):
            (self._small * 2.0 + 1.0).sum(axis=1).max()
        acc = 0
        for i in range(20_000):
            acc += i * i
        return time.perf_counter() - started

    def reading(self, passes: int) -> float:
        """Median time of ``passes`` passes."""
        return statistics.median(self.run() for _ in range(passes))


def normalize(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while the kernel took ``reference_s``, as
    seconds on a host where it takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / reference_s
