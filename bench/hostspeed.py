"""Host-speed adjustment of measured times.

The shared 2-core host the benchmark was built on switches between a fast
and a slow state (up to 1.9x apart) many times a second, because of other
tenants; CPU time drifts with wall time, so no clock hides it.  Raw times of
identical work then spread by 15-30% between runs, which hides any
regression smaller than that.

A fixed calibration kernel, independent of heishardy, slows down with the
host.  While work is measured, a timer signal runs the kernel every
SAMPLE_EVERY_S (about 4% of the time) in the process doing the work.  Time
spent in the kernel is left out of every measured time, and a time measured
over [t0, t1] is reported as

    measured seconds * mean(REF_KERNEL_S / kernel time) over samples in [t0, t1]

that is, in seconds on a host where the kernel takes REF_KERNEL_S (about
this host's full speed).  Identical extremal ratios measured this way spread
by about 3% (raw: 11-21%).  The raw figures stay in each run's detail line.
The kernel mimics the hot path of the package: a small numpy evaluation of
15 points followed by a dot product, in a Python loop.

A child process (the cli workload) samples itself from importing heishardy
on (see clihook.py); its interpreter start-up and numpy import stay raw,
because process start-up slows only about 0.2-0.6x as much as the kernel
does, and adjusting it doubled the spread of start-up times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

KERNEL_ITERATIONS = 500
REF_KERNEL_S = 0.0009
SAMPLE_EVERY_S = 0.025
PAD_S = 0.05  # the host keeps one speed for longer than this

_X = np.linspace(-1.0, 1.0, 15)
_W = np.full(15, 1.0 / 15.0)


def _kernel() -> float:
    acc = 0.0
    for i in range(KERNEL_ITERATIONS):
        acc += float(_W @ np.exp((0.5 + 1e-5 * i) * _X))
    return acc


class HostSpeed:
    """Calibration samples of one process, and the host speed they imply.

    With ``enabled`` false it takes no samples and adjusts nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.starts: list[float] = []  # perf_counter at each kernel start, increasing
        self.kernel_s: list[float] = []
        self.busy = 0.0  # total seconds spent in the kernel

    def sample(self) -> None:
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.kernel_s.append(end - start)
        self.busy += end - start

    def clock(self) -> float:
        """perf_counter without the time spent in the kernel."""
        return time.perf_counter() - self.busy

    def __enter__(self) -> "HostSpeed":
        """Sample on a timer while in this block."""
        if not self.enabled:
            return self
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, t0: float, t1: float) -> float:
        """Mean host speed over [t0, t1] (perf_counter times), 1.0 = reference.

        Samples up to PAD_S outside the interval count too, so that a short
        interval still gets several; without any, the last sample before it
        and the first after it are used.
        """
        if not self.enabled:
            return 1.0
        lo = bisect.bisect_left(self.starts, t0 - PAD_S)
        hi = bisect.bisect_right(self.starts, t1 + PAD_S)
        near = self.kernel_s[lo:hi] or self.kernel_s[max(lo - 1, 0):hi + 1]
        return statistics.fmean(REF_KERNEL_S / k for k in near)

    def summary(self) -> dict:
        if not self.kernel_s:
            return {"kernel_samples": 0}
        return {
            "kernel_samples": len(self.kernel_s),
            "kernel_median_s": statistics.median(self.kernel_s),
            "kernel_min_s": min(self.kernel_s),
            "kernel_max_s": max(self.kernel_s),
        }
