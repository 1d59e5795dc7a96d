"""Host-speed calibration for the benchmark's time metrics.

The reference machine is shared, and its speed drifts: the same solve
takes 0.8 s in one minute and 1.4 s a few minutes later.  Such drift is
slower than a run, so more work per run cannot average it out.  A
fixed kernel of the same kind of work as a solver step (FFTs and
elementwise numpy on a 4096-point vector, with the Python call overhead
between them) is therefore timed next to every request and every set-up
probe, and each time metric is reported scaled by REFERENCE_S over the
kernel time measured beside it: in seconds at the reference host speed.

The kernel is benchmark code and calls nothing of convbsde, so a change
to the program cannot change it.  Raw wall times are printed and
recorded alongside.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the reference machine at the seed commit.
REFERENCE_S = 0.035
_X = np.linspace(0.0, 1.0, 4096)


def kernel_seconds(repeats: int = 100) -> float:
    """Wall time of the fixed calibration kernel."""
    started = time.perf_counter()
    for _ in range(repeats):
        spectrum = np.fft.fft(np.exp(-_X) * (_X + 0.5))
        values = np.fft.ifft(spectrum * np.exp(1j * _X)).real
        float(np.max(np.abs(values)))
    return time.perf_counter() - started


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """Scale a wall time measured beside a kernel time to the reference speed."""
    return seconds * REFERENCE_S / kernel_s
