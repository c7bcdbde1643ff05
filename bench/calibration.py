"""A fixed kernel that measures the machine's current speed, to calibrate item times.

On a shared machine the same items can take twice as long from one
minute to the next, while the process keeps its CPU: the machine itself
runs slower. A small fixed kernel of numpy calls and Python arithmetic,
timed between items, slows down with it. Over a run, the ratio of the
kernel's time on the reference machine to its mean time in the run is
the run's speed scale. Item times multiplied by it read as times on the
reference machine; on a steady machine the scale stays near 1.

On the reference machine (see README.md), eight runs of 40
varying_forms items spread by 28 % in summed item time and by 3 % in
calibrated time.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.linalg

# Mean time of one kernel call on the reference machine, in seconds:
# right after an item, and when it follows another kernel call (warm
# caches make it faster).
REFERENCE_AFTER_ITEM_S = 1.35e-3
REFERENCE_REPEATED_S = 0.83e-3
# One kernel call per this many seconds of item time, at least one per
# item, so that long items get as many samples as short ones.
KERNEL_EVERY_S = 0.2


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrices = [
            rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(8)
        ]
        self.kernel_s = 0.0
        self.reference_s = 0.0
        self.kernel_calls = 0

    def _kernel(self) -> float:
        total = 0.0
        for m in self._matrices:
            total += np.linalg.svd(m, compute_uv=False)[-1]
            total += np.abs(np.linalg.eigvals(m[:4, :4])).sum()
            total += scipy.linalg.expm(0.1 * m[:4, :4]).real.sum()
            total += sum(float(x) for x in range(50))
        return total

    def after_item(self, item_s: float) -> None:
        """Time the kernel after an item that took ``item_s``."""
        for call in range(max(1, math.ceil(item_s / KERNEL_EVERY_S))):
            start = time.perf_counter()
            self._kernel()
            self.kernel_s += time.perf_counter() - start
            self.reference_s += REFERENCE_REPEATED_S if call else REFERENCE_AFTER_ITEM_S
            self.kernel_calls += 1

    def scale(self) -> float:
        """The kernel's time on the reference machine over its time in this run."""
        return self.reference_s / self.kernel_s
