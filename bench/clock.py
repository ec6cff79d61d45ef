"""Wall times scaled to a reference machine speed.

Other tenants of this machine slow a core by up to 1.8x, in phases that last
from a second to minutes.  ``calibrate`` times a fixed loop; a wall time
measured between two calibrations is scaled by CALIBRATION_REFERENCE_S over
their mean, which gives the time it would take at the reference speed.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# The time ``calibrate`` takes on an unloaded core of this machine.
CALIBRATION_REFERENCE_S = 0.0035


def calibrate() -> float:
    """Seconds taken by a fixed loop of Fraction and dict work (the median of
    three runs): the speed of the core right now.

    The loop makes no cyclic garbage and runs with the collector off, so the
    program's heap cannot change its speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            total, table = Fraction(0), {}
            for i in range(1, 700):
                total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
                table[i % 101] = table.get(i % 101, 0) + i
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """A wall time scaled to the reference speed."""
    return seconds * CALIBRATION_REFERENCE_S / ((before + after) / 2)


def timed(fn, *args):
    """Call ``fn`` and return its scaled time in seconds."""
    before = calibrate()
    t0 = time.perf_counter()
    fn(*args)
    return scaled(time.perf_counter() - t0, before, calibrate())
