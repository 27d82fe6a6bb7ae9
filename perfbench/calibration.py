"""Rescales measured times to the reference machine's quiet state.

On the shared machine this benchmark was built on, the same computation runs
1.6 to 2.4 times as slow for stretches of a fraction of a second to several
seconds, for reasons outside the process (neither CPU time nor pinning to a
core removes it).  A fixed reference kernel, timed in the same process every
SAMPLE_PERIOD_S through SIGALRM, slows down with the program: their ratio
moves by about a tenth while each moves by up to 2.4x (README).
So every measured interval is rescaled by

    NOMINAL_KERNEL_S / (kernel time in and around that interval)

which gives its duration in seconds of the reference machine when quiet.
The kernel's own time is taken out of the intervals it interrupts.  The
kernel imitates the program's two kinds of inner loop: a Sturm-sequence
recurrence on small numpy arrays and complex scalar arithmetic.
"""

from __future__ import annotations

import bisect
import cmath
import signal
import statistics
import time

import numpy as np

SAMPLE_PERIOD_S = 0.02
# kernel time of the reference machine when quiet (2 cores, Intel Xeon,
# Python 3.11.7, numpy 2.4.6; README)
NOMINAL_KERNEL_S = 2.0e-4
# kernel samples up to this far outside an interval still describe it
WINDOW_S = 0.1
# share of the slowest samples near an interval that its scale leaves out
TRIM = 0.5

_SHIFTS = np.linspace(1.0, 2.0, 4)
_DIAG = np.linspace(3.0, 4.0, 25)
_OFF_SQ = np.linspace(0.1, 0.2, 25)


def kernel() -> complex:
    q = _DIAG[0] - _SHIFTS
    for i in range(1, len(_DIAG)):
        q = np.where(np.abs(q) < 1e-290, 1e-290, q)
        q = _DIAG[i] - _SHIFTS - _OFF_SQ[i - 1] / q
    s = complex(float(q[0]), 0.0)
    z = 0.3 + 0.7j
    for k in range(1, 400):
        s += z / (k + 1.5j) + cmath.log(z + k)
    return s


class Sampler:
    """Times the kernel every SAMPLE_PERIOD_S while started; samples are
    (start, duration) pairs in time.perf_counter seconds."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def quiet_seconds(
    intervals: list[tuple[float, float]], samples: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """(raw, rescaled) duration of each (start, end) interval.

    raw is the wall time minus the kernel runs inside the interval; the scale
    uses the mean of the faster half of the samples within WINDOW_S of it (a
    kernel run that an interrupt lands in, or that starts with the caches
    the program has just filled, says little about the machine's speed).
    Samples are in time order.
    """
    starts = [s for s, _ in samples]
    out = []
    for t0, t1 in intervals:
        lo = bisect.bisect_left(starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(starts, t1 + WINDOW_S)
        if hi == lo:
            raise ValueError(f"no kernel sample within {WINDOW_S} s of an interval")
        inside = sum(d for s, d in samples[lo:hi] if t0 <= s < t1)
        raw = t1 - t0 - inside
        near = sorted(d for _, d in samples[lo:hi])
        local = statistics.fmean(near[: max(1, round(len(near) * (1.0 - TRIM)))])
        out.append((raw, raw * NOMINAL_KERNEL_S / local))
    return out
