"""The machine's speed around each operation, for speed-normalised times.

On a shared 2-core virtual machine (Intel Xeon, 2.1 GHz) the same code
runs up to 50% slower for minutes at a time (a pure-Python loop's
5-second medians moved between 59 and 102 ms), which no estimator over
a 20-second run can average away.  A run therefore times a fixed probe
-- the mix of scalar Python, small numpy arrays and cKDTree queries that
srklab runs, written apart from it -- between its operations, and
scales each operation's time by ``REFERENCE_PROBE_S`` over the probe
time around it.  The scaled times are seconds on a machine whose probe
takes ``REFERENCE_PROBE_S``; the raw times are printed beside them.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

REFERENCE_PROBE_S = 0.005
PROBE_REPEATS = 9
RECALIBRATE_S = 1.0  # a new probe before an operation when the last is older

_clock = time.perf_counter


def probe_once() -> float:
    """Seconds of a fixed mix: scalar map steps with float formatting, as in
    the orbit scan and the CSV writers, then small-array map steps with a
    proximity query, as in a raster step."""
    t0 = _clock()
    x, y, rows = 0.3, 0.2, []
    for i in range(2000):
        if y <= 0.8666:
            x, y = 0.8 * x, 1.25 * y
        else:
            u = y - 1.0
            x, y = 1.0 - 0.5 * u, x + u * u
        if y > 2.0:
            y = 0.01
        rows.append(f"{i},{x!r},{y!r}")
    rng = np.random.default_rng(0)
    tree = cKDTree(rng.random((200, 2)))
    a, b = rng.random(300), rng.random(300)
    for _ in range(40):
        low = b <= 0.8666
        a, b = np.where(low, 0.8 * a, 1.0 - 0.5 * (b - 1.0)), np.where(low, 1.25 * b, a + (b - 1.0) ** 2)
        b = np.where(b > 2.0, 0.01, b)
        tree.query(np.column_stack((a, b)), k=1, p=np.inf, distance_upper_bound=1e-5)
    return _clock() - t0


def probe() -> float:
    return statistics.median(probe_once() for _ in range(PROBE_REPEATS))


class Speedometer:
    """Probe times through a run, and the scale of an interval within it."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probes: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Probe now, if forced or if the last probe is older than RECALIBRATE_S."""
        if force or not self.times or _clock() - self.times[-1] >= RECALIBRATE_S:
            t0 = _clock()
            p = probe()
            self.times.append((t0 + _clock()) / 2)
            self.probes.append(p)

    def seconds(self, start: float, end: float) -> float:
        """``end - start`` scaled by the probes just before and just after."""
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        local = (self.probes[before] + self.probes[after]) / 2
        return (end - start) * REFERENCE_PROBE_S / local
