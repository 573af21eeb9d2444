"""Machine-speed probe: a fixed piece of reference work timed between jobs.

On the shared machines this benchmark runs on, the same job's wall time drifts
by tens of percent over seconds and minutes while CPU time tracks it (see
README.md, Noise). The probe runs a fixed mix of small dense SVDs and
interpreted Python after every job, on the same CPU as the jobs. A job's time
is reported in reference seconds: its wall time divided by the probe's
slowdown around it, relative to REFERENCE_S. The probe touches nothing of
circulant_ilc, so no change to the program can move it.
"""

import time

import numpy as np

# The probe's time on the uncontended reference machine (2-core VM, Python
# 3.11, OpenBLAS 0.3.31, one BLAS thread): p10 of 591 probes was 0.041 s.
REFERENCE_S = 0.040


class SpeedProbe:
    """Slowdown factors of the machine, measured around each timed interval."""

    def __init__(self):
        self._matrix = np.random.default_rng(0).standard_normal((49, 49))
        self.factors = []
        self._last = self._time()

    def _time(self):
        start = time.perf_counter()
        for _ in range(3):
            for _ in range(20):
                np.linalg.svd(self._matrix)
            acc = 0
            for i in range(60000):
                acc += i * i
        return time.perf_counter() - start

    def normalize(self, elapsed):
        """Reference seconds for `elapsed` wall seconds that ended just now."""
        now = self._time()
        factor = (self._last + now) / (2 * REFERENCE_S)
        self._last = now
        self.factors.append(factor)
        return elapsed / factor
