"""Host-speed calibration for timed figures.

The shared hosts this benchmark runs on change speed by a quarter or
more from one minute to the next, because other tenants share the cores
and the memory bus.  That swamps the differences the benchmark exists to
show.  So after each set-up and each timed op the runner spends ``DUTY``
of that time on fixed reference kernels that do not use the library, and
reports the timed figures scaled to the speed at which each kernel takes its
``REFERENCE`` time.  Those are the kernels' medians on the host the
benchmark was tuned on, a 2-core Intel Xeon VM with OpenBLAS on one
thread.  The kernels cover the three ways the workloads spend time:
interpreter-bound small-array code, memory-bound streaming over arrays
larger than the caches, and compute-bound GEMM.
"""

import statistics
import time

import numpy as np

DUTY = 0.05
# Kernels run in blocks of at least this much time, so that the caches
# they sweep slow few ops: one in a hundred of the shortest.
BLOCK_S = 0.025
REFERENCE = {"interp": 4.7e-4, "stream": 2.0e-3, "gemm": 7.7e-4}


class Calibration:
    """Samples of the reference kernels, taken in turn."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.random((128, 128), dtype=np.float32)
        self._maps = rng.random((10, 24, 14, 14), dtype=np.float32)
        self._big = rng.random(2_000_000, dtype=np.float32)
        self._buf = np.empty_like(self._big)
        self._square = rng.random((320, 320), dtype=np.float32)
        self._kernels = [("interp", self._interp), ("stream", self._stream),
                         ("gemm", self._gemm)]
        self._turn = 0
        self._budget = 0.0
        self.samples = {name: [] for name, _ in self._kernels}

    def _interp(self):
        total = 0.0
        for _ in range(3):
            total += float((self._small @ self._small)[0, 0])
            w = np.maximum(self._maps - 0.5, 0.0)
            total += float((w * w).sum())
            for k in range(300):
                total += k
        return total

    def _stream(self):
        # In place: a fresh array per call would time page faults instead.
        np.subtract(self._big, 0.5, out=self._buf)
        np.maximum(self._buf, 0.0, out=self._buf)
        return float(np.dot(self._buf, self._buf))

    def _gemm(self):
        return float((self._square @ self._square)[0, 0])

    def after_op(self, op_seconds):
        """Once ``DUTY`` of the time accumulated so far amounts to a
        block, run kernels in turn until it is used up."""
        self._budget += DUTY * op_seconds
        if self._budget < BLOCK_S:
            return
        while self._budget > 0.0:
            name, kernel = self._kernels[self._turn]
            self._turn = (self._turn + 1) % len(self._kernels)
            t0 = time.perf_counter()
            kernel()
            spent = time.perf_counter() - t0
            self.samples[name].append(spent)
            self._budget -= spent

    def medians(self):
        return {name: statistics.median(s)
                for name, s in self.samples.items() if s}

    def scale(self):
        """Factor taking this run's times to the reference host speed:
        the geometric mean over kernels of reference / measured median."""
        ratios = [REFERENCE[name] / m for name, m in self.medians().items()]
        if not ratios:
            return 1.0
        return float(np.exp(np.mean(np.log(ratios))))
