"""Machine-speed probe for calibrating the end-to-end times.

The host this benchmark was built on is shared: the speed of the same
pure-Python code swings by up to 2x over seconds and drifts over minutes.
Raw medians of 30-second runs then differ by 20-40% between runs.  So the benchmark runs this fixed probe (which calls nothing
in the package) before and after every operation, and reports each
operation's wall time rescaled to a reference speed:

    calibrated = wall * REFERENCE_PROBE_S / mean(probe before, probe after)

A change to the package moves the operation's wall time but not the probe,
so it shows in the calibrated time at full size; a slowdown of the machine
moves both and cancels.  Raw wall times are printed next to the calibrated
ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Probe time at the reference speed: about the median probe time on the
# 2-core Intel Xeon host where the benchmark was written (Python 3.11).
REFERENCE_PROBE_S = 0.005
PROBE_REPEATS = 5


class _Pair:
    """A small slotted complex pair, like the package's scalar wrapper."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __mul__(self, other):
        return _Pair(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    def __add__(self, other):
        return _Pair(self.re + other.re, self.im + other.im)


def _kernel() -> None:
    """Object allocation, method dispatch, float and small-Fraction arithmetic:
    the mix the package's float and exact paths spend their time on."""
    a, b = _Pair(0.5, 0.25), _Pair(0.999, 0.001)
    f, g = _Pair(Fraction(1, 3), Fraction(2, 5)), _Pair(Fraction(3, 7), Fraction(-1, 2))
    for _ in range(400):
        a = a * b + a
        a = _Pair(a.re * 1e-3, a.im * 1e-3)
        f * g + f


def probe() -> float:
    """Median seconds of one probe kernel over a few repeats."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for work between two probes."""
    return REFERENCE_PROBE_S / ((before + after) / 2)
