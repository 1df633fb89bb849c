"""Machine-speed probe used to normalise the benchmark's timings.

On a shared machine the same code runs up to a third slower for stretches of
seconds to minutes, and CPU time slows with wall time, so the slowdown is in
the processor, not in scheduling.  The probe times a fixed reference kernel
that runs no wmscatter code, at most every INTERVAL_S seconds between
operations.  A timing is divided by the probe's local speed factor, the mean
kernel time near it over NOMINAL_S, so it reads as the time on a machine
that runs the kernel in NOMINAL_S.  Probe time is excluded from the run's
wall time.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.010
WINDOW_S = 1.0
INTERVAL_S = 0.25

_DATA = np.random.default_rng(12345).random(20000)


def reference_kernel():
    """Fixed work: an interpreter loop, numpy transcendentals and sorts, and
    float formatting, the three kinds of work the workloads do."""
    acc = 0.0
    for i in range(10000):
        acc += (i % 7) * 0.5
    for _ in range(20):
        acc += float(np.sort(np.exp(-_DATA) * np.sqrt(_DATA))[100])
    acc += len(",".join(repr(float(v)) for v in _DATA[:4000]))
    return acc


class SpeedProbe:
    def __init__(self):
        self.ends = []
        self.times = []

    def run(self):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.times.append(t1 - t0)

    def maybe_run(self):
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.run()

    @property
    def total(self):
        return math.fsum(self.times)

    def factor(self):
        """Run-wide speed factor: mean kernel time over NOMINAL_S."""
        return float(np.mean(self.times)) / NOMINAL_S

    def local_factors(self, mids):
        """Speed factor at each time in ``mids``: the mean kernel time of the
        probes within WINDOW_S of it, else of the next probe (or the last)."""
        ends = np.asarray(self.ends)
        times = np.asarray(self.times)
        mids = np.asarray(mids, dtype=float)
        csum = np.concatenate([[0.0], np.cumsum(times)])
        lo = np.searchsorted(ends, mids - WINDOW_S)
        hi = np.searchsorted(ends, mids + WINDOW_S)
        after = np.clip(np.searchsorted(ends, mids), 0, len(ends) - 1)
        mean = np.where(hi > lo, (csum[hi] - csum[lo]) / np.maximum(hi - lo, 1),
                        times[after])
        return mean / NOMINAL_S
