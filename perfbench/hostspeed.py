"""Host-speed reference for the timed phase.

Shared hosts change speed by tens of percent within a minute while CPU
time keeps tracking wall time. A fixed kernel of the benchmark's own
(it never calls the simulator) is timed between cells at least every
:data:`EVERY_S` seconds, and each cell's host seconds are scaled by
``reference seconds / kernel seconds``: the cell's time on a host that
runs the kernel in its reference time. A change to the simulator moves
the cells and not the kernel, so the scaled time moves with it; a
slower host moves both, and the ratio cancels it. Each workload uses
the kernel that resembles its own host work.
"""

import time

import numpy as np

clock = time.perf_counter

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((64, 64)).astype(np.float32)
_STREAM = _RNG.standard_normal((256, 512)).astype(np.float32)
_WEIGHTS = _RNG.standard_normal(576).astype(np.float32)
_COLUMNS = np.abs(_RNG.standard_normal((576, 256))).astype(np.float32)


def interpreter_kernel() -> None:
    """Dict and list work with a little NumPy: the simulator's mix."""
    table = {}
    for i in range(8000):
        key = (i * 7) % 101
        table[key] = table.get(key, 0) + i
    pairs = [[i, i + 1] for i in range(2500)]
    sum(a * b for a, b in pairs)
    m = _MATRIX
    for _ in range(20):
        m = (_MATRIX @ m) * 0.01 + 1.0
    np.cumsum(_STREAM, axis=0)


def numpy_kernel() -> None:
    """Running partial sums over an operand block, as SNAPEA computes."""
    for _ in range(2):
        psums = 0.1 + np.cumsum(_WEIGHTS[:, None] * _COLUMNS, axis=0)
        below = psums <= 0.0
        below.any(axis=0)
        np.argmax(below, axis=0)


#: kernel -> its seconds on the reference host (2-CPU container,
#: Python 3.11, NumPy 2.4)
KERNELS = {
    "interpreter": (interpreter_kernel, 0.0034),
    "numpy": (numpy_kernel, 0.0022),
}
#: longest gap between two kernel measurements
EVERY_S = 0.25


class HostSpeed:
    """Scale factor of the host's current speed against the reference."""

    def __init__(self, kernel: str = "interpreter") -> None:
        self._kernel, self._reference_s = KERNELS[kernel]
        self.scale = 1.0
        self._measured_at = -float("inf")

    def _kernel_seconds(self) -> float:
        start = clock()
        self._kernel()
        return clock() - start

    def refresh(self, force: bool = False) -> float:
        """Re-measure if the last measurement is stale; the scale factor."""
        if force or clock() - self._measured_at >= EVERY_S:
            # the faster of two runs: one interruption must not count
            fastest = min(self._kernel_seconds(), self._kernel_seconds())
            self.scale = self._reference_s / fastest
            self._measured_at = clock()
        return self.scale
