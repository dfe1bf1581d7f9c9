"""Host-speed calibration of the benchmark's time metrics.

The benchmark runs on shared hosts whose speed drifts. On the 2-vCPU VM it
was built on, one `infer_keypoints` frame took 6.5 ms in one second and
11 ms a few seconds later, whole 20-second runs moved by 20%, and steal
time stayed near zero, so the guest cannot see the cause. Runs that far
apart cannot gate a 25% regression.

So the benchmark times a fixed kernel of its own between the program's ops
and reports every time metric scaled to a host on which that kernel takes
its reference time:

    reported = measured * reference_ms / (median kernel time around it)

"Around it" is the kernel samples taken from WINDOW_S before the interval
starts to WINDOW_S after it ends. The kernel is the benchmark's, never the
program's, so a change to the program moves the reported time, while a
change in host speed moves kernel and program alike and largely cancels.
It does not cancel a slowdown of the whole process that the program itself
causes between ops (a busy background thread, say); the unscaled figures
and the kernel's own times are printed on the line before the result.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

WINDOW_S = 0.2
MIN_SAMPLES = 3


def _fft_state():
    rng = np.random.default_rng(0)
    x = rng.random((64, 64))
    gain = np.exp(-rng.random((64, 33)))
    return x, gain


def fft_kernel(state):
    """Small-array FFT and elementwise work with Python overhead, like one
    batch-1 frame of fusion and inference."""
    x, gain = state
    for _ in range(16):
        x = np.tanh(np.fft.irfft2(np.fft.rfft2(x) * gain, s=x.shape) + 0.5 * x)


def _conv_state():
    rng = np.random.default_rng(0)
    x = rng.random((4, 16, 66, 66), dtype=np.float32)
    w = rng.random((32, 16 * 9), dtype=np.float32)
    return x, w


def conv_kernel(state):
    """A float32 im2col convolution forward and backward, like a training step."""
    x, w = state
    n = x.shape[0]
    cols = np.ascontiguousarray(
        sliding_window_view(x, (3, 3), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)
    ).reshape(n, w.shape[1], -1)
    out = np.matmul(w, cols)
    np.einsum("nol,nkl->ok", out, cols)
    np.matmul(w.T, out)


# name -> (kernel, state factory, reference ms): the kernel's time on a
# quiet moment of the 2-vCPU VM the benchmark was built on
KERNELS = {
    "fft": (fft_kernel, _fft_state, 2.0),
    "conv": (conv_kernel, _conv_state, 25.0),
}


class HostClock:
    """Kernel samples over a run, and the scale they give each interval."""

    def __init__(self, kind: str):
        self.kind = kind
        self._kernel, make_state, self.reference_ms = KERNELS[kind]
        self._state = make_state()
        self.times: list[float] = []   # midpoint of each sample
        self.ms: list[float] = []      # kernel time of each sample
        self._kernel(self._state)      # warm-up, not recorded

    def sample(self, reps: int = 1):
        """Time the kernel reps times, with the garbage collector held off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(reps):
                start = time.perf_counter()
                self._kernel(self._state)
                end = time.perf_counter()
                self.times.append(0.5 * (start + end))
                self.ms.append(1000.0 * (end - start))
        finally:
            if enabled:
                gc.enable()

    def scale(self, start: float, end: float) -> float:
        """reference_ms over the median kernel time around [start, end];
        the nearest MIN_SAMPLES samples when fewer fall in the window."""
        if not self.ms:
            raise RuntimeError("no calibration samples")
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = 0.5 * (start + end)
            near = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            window = [self.ms[i] for i in near[:MIN_SAMPLES]]
        else:
            window = self.ms[lo:hi]
        return self.reference_ms / statistics.median(window)

    def scaled(self, start: float, end: float) -> float:
        """Seconds from start to end, scaled to the reference host."""
        return (end - start) * self.scale(start, end)

    def summary(self) -> dict:
        ms = np.asarray(self.ms)
        return {"kernel": self.kind, "reference_ms": self.reference_ms,
                "samples": int(ms.size), "ms_p10": float(np.percentile(ms, 10)),
                "ms_p50": float(np.percentile(ms, 50)), "ms_p90": float(np.percentile(ms, 90))}


class NullClock:
    """Stands in for HostClock in traced runs, whose times are not scaled."""

    def sample(self, reps: int = 1):
        pass
