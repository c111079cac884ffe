"""Reference seconds: wall time corrected for the machine's current speed.

On a shared host every code path slows down and speeds up together, by tens
of percent from one second to the next and from one minute to the next.
The clock runs a fixed calibration kernel between operations and scales each
operation's wall time by the kernel's reference duration over its duration
measured around the operation.  Measured on the 2-vCPU host the bounds were
set on: over ten 10-s windows, the interquartile range of a loop of
closed-form solves was 6.4% of its median in wall time and 2.8% in
reference seconds; over five runs of the wealth-mc workload, that of
euler_path_steps_per_s was 10.6% and 2.9%.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Reference duration of the calibration kernel, in seconds: its median on the
# 2-vCPU host the bounds were set on.
CALIBRATION_REF_S = 0.009
CALIBRATION_EVERY_S = 0.1
WINDOW_S = 1.0


def calibration_kernel() -> float:
    """Fixed work in the style of the package's hot paths, using no package code.

    Small frozen dataclasses, tiny arrays, a 3x3 solve per step and some
    block arithmetic on a 4096 x 3 array, so that its duration tracks the
    speed the machine gives this kind of work right now.
    """
    a = np.eye(3) + 0.1
    s = 0.0
    for i in range(300):
        p = _Point(v=[0.1 * (i % 7), 0.2, 0.3])
        c = np.eye(3)
        for k, (u, w) in enumerate(((0, 1), (0, 2), (1, 2))):
            c[u, w] = c[w, u] = 0.1 * p.v[k]
        x = np.linalg.solve(c, p.v)
        s += math.sqrt(float(x @ x))
    z = np.linspace(0.0, 1.0, 3 * 4096).reshape(4096, 3)
    for _ in range(30):
        z = z + 0.01 * np.einsum("ij,ij->i", z, z @ a)[:, None]
    return s + float(z[0, 0])


@dataclass(frozen=True)
class _Point:
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, dtype=float)))


class Clock:
    """Runs the kernel at most every CALIBRATION_EVERY_S and converts wall time."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def calibrate(self):
        t0 = time.perf_counter()
        calibration_kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def tick(self):
        if not self.starts or time.perf_counter() - self.starts[-1] >= CALIBRATION_EVERY_S:
            self.calibrate()

    def reference_seconds(self, t0, t1):
        """Wall time of [t0, t1] scaled by the kernel times around it.

        The window reaches max(WINDOW_S, t1 - t0) to either side: an
        operation cannot be sampled while it runs, so a long one is scaled
        by the machine's speed over a stretch as long as itself.
        """
        reach = max(WINDOW_S, t1 - t0)
        i = max(bisect.bisect_right(self.starts, t0 - reach) - 1, 0)
        j = min(bisect.bisect_left(self.starts, t1 + reach), len(self.starts) - 1)
        return (t1 - t0) * CALIBRATION_REF_S / statistics.fmean(self.durations[i:j + 1])

    def median_kernel_s(self):
        return statistics.median(self.durations)
