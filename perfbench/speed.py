"""The machine-speed reference that the end-to-end timings are scaled by.

On a shared VM the speed of the machine drifts by tens of percent over
minutes, and the drift moves every CPU-bound timing together: over 150 s
of back-to-back default-config runs, 10-second medians of the run time
spread 23% (quartile distance over median) while the run time divided by
a reference kernel timed between the runs spread 4%.

The reference kernel uses no qolcr code, so a change to qolcr moves the
scaled timings fully. It mixes what a qolcr run spends its time on: FFTs of
a non-power-of-two length, element-wise numpy over a trace-sized array,
and an interpreted loop. The benchmark times it between the workload's
operations (never inside a timed region) and reports each end-to-end time
as it would read at the speed where the kernel takes NOMINAL_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.fft

NOMINAL_S = 0.008


class Speed:
    """Samples of the reference kernel's duration in one benchmark run."""

    def __init__(self):
        self._x = np.random.default_rng(0).standard_normal(60000)
        self.samples = []

    def _kernel(self):
        spec = scipy.fft.rfft(self._x, 120000)
        corr = scipy.fft.irfft(spec * np.conj(spec))
        np.cumsum(np.sin(self._x) * np.cos(corr[:60000]))
        total = 0.0
        for v in range(30000):
            total += v * 0.5
        return total

    def sample(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)

    def scale(self):
        """Factor that turns a time measured in this run into one at the nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)
