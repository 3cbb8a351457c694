"""Machine-speed calibration for the end-to-end timings.

On a shared host the speed of one core drifts by tens of percent within
seconds to minutes, while the program's work does not change.  Timing fixed
kernels right before and right after each seed gives the machine's speed
during that seed, and dividing the seed's wall time by the slowdown gives
*calibrated seconds*: the time the seed would have taken at the reference
speed.  The kernels cover the kinds of work fwlab's iterations are made of,
and the slowdown is the mean of their ratios, so no one kind dominates:
interpreter-bound Python, ufuncs on small arrays, a 2^12-row subset-table
reduction, and numpy scalar ufuncs on row dot products.

Set-up is mostly interpreter start-up and imports, which these kernels do
not track: over eight batches of 20 launches, the kernels left a 14%
interquartile range in the batches' median set-up time.  So each set-up
launch is paired instead with a *baseline* launch beside it, a fresh
interpreter that only imports numpy, and set-up is scaled by the ratio of
the two.  The same batches then varied by 2.5%.
"""

from __future__ import annotations

import time

import numpy as np

_MASKS = (np.arange(4096)[:, None] >> np.arange(12)[None, :]) & 1 == 1
_POINT = np.linspace(0.1, 0.9, 12)
_ROWS = np.linspace(-1.0, 1.0, 600).reshape(100, 6)


def _interpreter():
    s = 0
    for i in range(60_000):
        s += i * i


def _small_arrays():
    a = np.arange(12.0)
    for _ in range(1_000):
        a = np.where(a > 3.0, a, 1.0 - a) * 1.0000001


def _subset_table():
    for _ in range(9):
        np.where(_MASKS, _POINT, 1.0 - _POINT).prod(axis=1)


def _scalar_ufuncs():
    tot = 0.0
    for _ in range(15):
        for row in _ROWS:
            tot += float(np.logaddexp(0.0, -float(row @ _POINT[:6])))


#: (kernel, its wall seconds at the reference speed).  The references are
#: the kernels' medians on a 2-core Intel Xeon VM (Python 3.11, numpy 2.4).
KERNELS = ((_interpreter, 0.0049), (_small_arrays, 0.0056),
           (_subset_table, 0.0043), (_scalar_ufuncs, 0.0057))


def slowdown() -> float:
    """Mean over the kernels of wall time over reference time (about 20 ms)."""
    total = 0.0
    for kernel, reference_s in KERNELS:
        t0 = time.perf_counter()
        kernel()
        total += (time.perf_counter() - t0) / reference_s
    return total / len(KERNELS)


#: The baseline launch (interpreter arguments; it prints the monotonic clock
#: when done) and its median wall seconds on the VM of the references above.
BASELINE_ARGS = ["-c", "import time, numpy; print(time.monotonic())"]
BASELINE_S = 0.15


class CalibratedClock:
    """Scales wall times by the slowdown measured before and after each."""

    def __init__(self):
        self._before = slowdown()

    def calibrated(self, wall: float) -> float:
        """Calibrated seconds of ``wall`` seconds that ended just now and
        began after the previous call."""
        after = slowdown()
        speed = 0.5 * (self._before + after)
        self._before = after
        return wall / speed
