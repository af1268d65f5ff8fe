"""Calibrated timing: wall time rescaled to a reference machine speed.

On a shared host the machine's speed drifts by up to 2x within minutes, and
the drift slows every call alike.  A fixed probe (small numpy products and
interpreted Python, about 2 ms) runs before and after every timed call; the
call's raw time is scaled by ``PROBE_REF_S`` over the mean of those two probe
times.  A calibrated second is a wall second whenever the machine runs the
probe in ``PROBE_REF_S``.

The probe is part of the benchmark, never of sympdet, so a change to sympdet
moves calibrated times exactly as it moves raw ones.  On a shared 2-core
x86_64 host, calibration cut the quartile spread (quartile distance / median)
of suite-default pass times from 0.25 to 0.07, and of twelve-pass medians
from 0.10 to 0.02.  It tracks large LU work less closely: sets of ten
certify-large runs spread 0.03 to 0.15.  A probe made of LU-style rank-one
updates did no better there.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's time on the reference machine (2-core x86_64 shared host,
# numpy 2.4 with OpenBLAS, one BLAS thread) when undisturbed.
PROBE_REF_S = 2.0e-3

_X = np.linspace(-1.0, 1.0, 144).reshape(12, 12)


def probe() -> float:
    """Run the fixed probe once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(450):
        y = _X @ _X
        float(np.abs(y).sum())
        [i * i for i in range(40)]
    return time.perf_counter() - t0


class Clock:
    """Turns raw call times into calibrated ones, probing between calls."""

    def __init__(self):
        probe()  # first-call costs
        self._before = probe()

    def begin(self) -> None:
        """Probe afresh, e.g. at the start of a pass after a pause."""
        self._before = probe()

    def calibrate(self, raw_s: float) -> float:
        """Calibrated time of a call that just took ``raw_s`` wall seconds."""
        after = probe()
        scale = 2.0 * PROBE_REF_S / (self._before + after)
        self._before = after
        return raw_s * scale
