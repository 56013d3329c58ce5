"""Host speed probe: how much slower than the reference this core is running.

On a shared machine the speed of one core drifts by up to 1.7x within
minutes (other tenants on the same physical core), with a slow component
that no run length averages out: pass times of the same work spread by
about 25% from run to run.  The probe runs one of two fixed loops from a
SIGALRM handler every 10 ms inside the measured process itself: a pure
Python loop, which tracks the BLAS-heavy passes best, and a loop of numpy
scalar calls, which tracks the quadrature-heavy passes best.  Each loop's
mean time over a pass (without its slowest tenth, samples stretched by
preemption), divided by its time at the reference speed, is a slowdown;
their geometric mean is the slowdown of the pass.  A pass time divided by
it is in seconds at the reference speed.  In six to eight runs of each
workload on a 2-vCPU x86_64 VM these spread by 4-6% (interquartile range
over median) where the raw times spread by 6-22%.  The probe costs about
2% of the pass.

The probe must run in the measured process: the two vCPUs slow down
independently, so the same loops sampled from the parent process while a
sweep_n pass ran (14 passes, raw spread 0.16) left a spread of 0.12-0.14,
against 0.066 from the probe inside the pass.  Only the end-to-end times
are divided by it; the times as measured are printed beside them.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.01


def _python_loop() -> float:
    t0 = perf_counter()
    s = 0.0
    for i in range(1500):
        s += math.sin(i * 1e-3)
    return perf_counter() - t0


def _numpy_scalar_loop() -> float:
    t0 = perf_counter()
    s = 0.0
    for i in range(30):
        w = np.asarray(i * 0.1, dtype=float)
        s += float(np.where(w > 0.0, w * np.exp(-w), 0.0))
    return perf_counter() - t0


# Each loop with its time at the reference speed (the unloaded VM above).
LOOPS = ((_python_loop, 150e-6), (_numpy_scalar_loop, 190e-6))


class SpeedProbe:
    """Context manager sampling the loop times while its block runs."""

    def __enter__(self):
        self.samples: list[list[float]] = [[] for _ in LOOPS]
        self._ticks = 0
        self._busy = False
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        for (loop, _), samples in zip(LOOPS, self.samples):
            if not samples:
                samples.append(loop())
        return False

    def _sample(self, signum, frame):
        if not self._busy:  # a sample delayed past the next tick must not nest
            self._busy = True
            i = self._ticks % len(LOOPS)
            self.samples[i].append(LOOPS[i][0]())
            self._ticks += 1
            self._busy = False

    @property
    def slowdown(self) -> float:
        logs = []
        for (_, reference), samples in zip(LOOPS, self.samples):
            kept = sorted(samples)[:max(1, len(samples) * 9 // 10)]
            logs.append(math.log(statistics.mean(kept) / reference))
        return math.exp(statistics.mean(logs))
