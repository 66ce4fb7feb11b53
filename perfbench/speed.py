"""Host-speed calibration, so that timings hold still on a shared machine.

The cores of a shared virtual machine change speed for seconds to
minutes at a time: the same code then takes up to twice as long, with
no steal time and no lost time slices.  ``calibrate`` times a fixed loop
of small numpy operations, the same kind of work signalbox does, and
independent of it.  The benchmark runs it before and after every timed
slice and scales the slice's wall time by ``CAL_REFERENCE_S`` over the
calibration time, so that timings read as on a core of reference speed.
A change to signalbox cannot move the calibration, so it moves the
scaled timings exactly as it moves the wall-clock ones.
"""

from __future__ import annotations

import time

import numpy as np

CAL_ITERATIONS = 200
# The calibration's time on a core of reference speed.  It is a fixed
# unit, not a measurement: scaled timings keep their ratios whatever it
# is.  It is about the median calibration time on a 2-core shared VM,
# so that scaled and wall-clock figures are of the same size there.
CAL_REFERENCE_S = 1.5e-3

_START = np.linspace(0.1, 0.9, 4)


def calibrate():
    """Seconds the fixed loop of small numpy operations takes now."""
    start = time.perf_counter()
    x = _START
    for _ in range(CAL_ITERATIONS):
        y = x * np.log(x)
        x = np.abs(np.sin(x + float(y.sum()) * 1e-9)) + 0.01
    return time.perf_counter() - start


def scale(before, after):
    """Factor from wall time to reference time for work timed between two calibrations."""
    return CAL_REFERENCE_S / (0.5 * (before + after))
