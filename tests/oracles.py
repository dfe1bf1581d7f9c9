"""Reference implementations and checkers that the tests compare lusk against."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from lusk.evaluate import _SCALAR_FIELDS, EvalReport
from lusk.fusion import FusionConfig, ibs, log_gabor_gain, minmax_normalize, ssim, ssim_moments
from lusk.tensor import Tensor


def _frequency_grids(rows: int, cols: int):
    u = 2.0 * np.pi * np.fft.fftfreq(rows)
    v = 2.0 * np.pi * np.fft.fftfreq(cols)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    mag = np.hypot(uu, vv)
    return uu, vv, mag


def log_gabor_response(frame: np.ndarray, lambda0: float, sigma0: float) -> np.ndarray:
    uu, vv, mag = _frequency_grids(*frame.shape)
    return np.real(np.fft.ifft2(np.fft.fft2(frame) * log_gabor_gain(mag, lambda0, sigma0)))


def monogenic_direct(frame: np.ndarray, lambda0: float, sigma0: float) -> np.ndarray:
    """O(N^4) direct-DFT oracle for monogenic(): (3, rows, cols) bandpass,
    row Riesz and column Riesz components."""
    rows, cols = frame.shape
    r = np.arange(rows)
    c = np.arange(cols)
    er = np.exp(-2j * np.pi * np.outer(r, r) / rows)
    ec = np.exp(-2j * np.pi * np.outer(c, c) / cols)
    spectrum = er @ frame.astype(np.complex128) @ ec
    uu, vv, mag = _frequency_grids(rows, cols)
    spectrum *= log_gabor_gain(mag, lambda0, sigma0)
    safe = np.where(mag > 0, mag, 1.0)
    ier = np.conj(er) / rows
    iec = np.conj(ec) / cols
    def inv(s):
        return np.real(ier @ s @ iec)
    return np.stack([inv(spectrum), inv(spectrum * (1j * uu / safe)),
                     inv(spectrum * (1j * vv / safe))])


def fuse_composite(frame: np.ndarray, cfg: FusionConfig) -> np.ndarray:
    """float64 fuse(), wavelength by wavelength: a fresh log-Gabor gain,
    three separate inverse FFTs and np.hypot for the odd amplitude."""
    uu, vv, mag = _frequency_grids(*frame.shape)
    safe = np.where(mag > 0, mag, 1.0)
    weight = 1.0 - ibs(frame)
    channels = []
    for lam in cfg.lambdas:
        spectrum = np.fft.fft2(frame) * log_gabor_gain(mag, lam, cfg.sigma0)
        even = np.real(np.fft.ifft2(spectrum))
        m2 = np.real(np.fft.ifft2(spectrum * (1j * uu / safe)))
        m3 = np.real(np.fft.ifft2(spectrum * (1j * vv / safe)))
        odd = np.hypot(m2, m3)
        lp = minmax_normalize(1.0 - np.arctan(odd / (np.abs(even) + cfg.epsilon)))
        den = np.sqrt(even ** 2 + m2 ** 2 + m3 ** 2) + cfg.epsilon
        fs = minmax_normalize(np.maximum(even - odd - cfg.thresh, 0.0) / den)
        channels.append(minmax_normalize(lp * fs * weight))
    return np.stack(channels)


def sample_pairs_naive(videos, cfg, count: int, rng: np.random.Generator) -> list[tuple]:
    """(video, source, target, ssim) as train.sample_pairs draws them, with
    one ssim call per draw and no retry budget."""
    pairs = []
    while len(pairs) < count:
        v = int(rng.integers(len(videos)))
        n = len(videos[v])
        i = int(rng.integers(n))
        j = int(rng.integers(max(0, i - cfg.max_pair_gap), min(n - 1, i + cfg.max_pair_gap) + 1))
        if j == i:
            continue
        s = ssim(ssim_moments(videos[v][i]), ssim_moments(videos[v][j]))
        if cfg.use_ssim_gate and s < cfg.ssim_threshold:
            continue
        pairs.append((v, i, j, s))
    return pairs


@dataclass
class GradcheckReport:
    max_rel_err: float
    tolerance: float
    passed: bool
    checked: int

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"gradcheck {status}: max rel err {self.max_rel_err:.3e} "
                f"(tol {self.tolerance:.1e}, {self.checked} entries)")


def gradcheck(fn, shapes=None, tolerance: float = 1e-4, eps: float = 1e-5,
              seed: int = 0, max_entries: int = 40, inputs=None) -> GradcheckReport:
    """Compare analytic gradients of a scalar-valued fn against central
    differences, at seeded random float64 inputs (or explicit `inputs`).

    Relative error is measured against the largest gradient magnitude of
    each input, so uniformly tiny gradients do not produce spurious
    failures. Failures are reported, never raised.
    """
    rng = np.random.default_rng(seed)
    if inputs is None:
        inputs = [Tensor(rng.standard_normal(s).astype(np.float64), requires_grad=True)
                  for s in shapes]
    else:
        inputs = [Tensor(t.data.astype(np.float64), requires_grad=True) for t in inputs]
    shapes = [t.shape for t in inputs]
    loss = fn(*inputs)
    loss.backward()
    analytic = [np.zeros(s) if t.grad is None else t.grad.copy()
                for s, t in zip(shapes, inputs)]

    def eval_loss():
        return fn(*[Tensor(t.data) for t in inputs]).item()

    max_rel = 0.0
    checked = 0
    for t, a in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        n_entries = flat.size
        idx = np.arange(n_entries)
        if n_entries > max_entries:
            idx = rng.choice(n_entries, size=max_entries, replace=False)
        numeric = np.zeros(len(idx))
        for j, i in enumerate(idx):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = eval_loss()
            flat[i] = orig - eps
            f_minus = eval_loss()
            flat[i] = orig
            numeric[j] = (f_plus - f_minus) / (2.0 * eps)
        a_sel = a.reshape(-1)[idx]
        scale = max(np.abs(a_sel).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
        rel = np.abs(a_sel - numeric) / scale
        max_rel = max(max_rel, float(rel.max(initial=0.0)))
        checked += len(idx)
    return GradcheckReport(max_rel_err=max_rel, tolerance=tolerance,
                           passed=max_rel < tolerance, checked=checked)


class CountingWorker:
    """A one-thread pool standing in for tensor's worker, counting the tasks
    it is handed; shut it down after use."""

    def __init__(self):
        self.pool, self.tasks = ThreadPoolExecutor(1), 0

    def submit(self, fn):
        self.tasks += 1
        return self.pool.submit(fn)


def read_report(path) -> EvalReport:
    """Parse a report written by lusk.evaluate.write_report."""
    report = EvalReport()
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            if key == "jitter":
                report.jitter = [float(v) for v in value.split(",")] if value else []
            elif key in _SCALAR_FIELDS:
                setattr(report, key, _SCALAR_FIELDS[key](value))
            else:
                raise ValueError(f"{path}: unknown report key {key!r}")
    return report
