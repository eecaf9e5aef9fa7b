"""Machine-speed calibration.

On the reference host, a 2-core Xeon virtual machine whose cores are
shared, the same solve has been measured at 0.31 s and, minutes later, at
0.42 s, and a fixed pure-Python loop at 29 to 45 ms per call within 90
seconds.  So a run times, between its solves, a fixed
piece of pure-Python work in the style of the program (numpy scalar
indexing, tuple-keyed dict updates, function calls), and reports times
rescaled to a reference speed: ``wall * REFERENCE_S / calibration``, with
the calibrations next to each solve.  Starting processes drifts in the
same way, and the calibration loop does not follow it, so set-up time is
rescaled by the start-up of a bare interpreter instead.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.020  # the calibration's typical wall time on the reference host
# Typical wall time of ``python3 -c "import numpy"`` on the reference host;
# set-up probes are rescaled by such a bare process run right after each.
START_REFERENCE_S = 0.19
_REPS = 30000


def _step(a, d, i, s):
    x = a[i & 2047]
    if x > (s & 2047):
        s += int(a[(i * 7) & 2047])
    d[(i & 511, i & 3)] = s
    return s & 0xFFFFFF


def calibrate() -> float:
    """Wall seconds of the fixed calibration work."""
    a = np.arange(2048, dtype=np.int64)
    d: dict = {}
    s = 0
    t0 = time.perf_counter()
    for i in range(_REPS):
        s = _step(a, d, i, s)
    return time.perf_counter() - t0
