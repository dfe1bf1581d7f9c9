"""Acoustic feature fusion preprocessing.

Builds the 10-channel per-frame representation used as network input:
log-Gabor bandpass -> monogenic signal -> local phase and phase symmetry,
weighted by the integrated-backscatter map, one channel per wavelength.
Also provides depth-dependent gain attenuation (TGA), the
normalized-grayscale alternative stack, and SSIM for frame-pair gating.

Frames are single-channel float arrays in [0, 1] with row index = depth.
All functions are pure; per-frame parallel extraction is safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft
from scipy.signal import fftconvolve

DEFAULT_LAMBDAS = tuple(float(x) for x in range(3, 31, 3))


def as_float(name: str, value) -> float:
    """value as a finite float; a bool, a value that is no real number, NaN
    or an infinity raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class FusionConfig:
    sigma0: float = 0.55
    lambdas: tuple = DEFAULT_LAMBDAS
    thresh: float = 0.01
    attenuation_a: float = 1.5  # 0 turns the depth attenuation off
    # not fields: epsilon guards the local-phase and phase-symmetry
    # divisions; phase_symmetry always divides by the local amplitude, a
    # rule kept as a name only because perfbench/checks.py reads it
    epsilon = 1e-6
    energy_denominator_mode = "sqrt_energy"

    def __post_init__(self):
        for name in ("sigma0", "thresh", "attenuation_a"):
            object.__setattr__(self, name, as_float(name, getattr(self, name)))
        lam = tuple(as_float("lambdas", x) for x in self.lambdas)
        object.__setattr__(self, "lambdas", lam)
        if not 0.0 < self.sigma0 < 1.0:
            raise ValueError(f"sigma0 must be in (0,1), got {self.sigma0}")
        if any(l2 <= l1 for l1, l2 in zip(lam, lam[1:])):
            raise ValueError(f"lambdas must be strictly increasing, got {lam}")
        if any(l <= 2.0 for l in lam):
            raise ValueError(f"lambdas must all exceed 2 pixels, got {lam}")
        if self.thresh < 0:
            raise ValueError(f"thresh must be >= 0, got {self.thresh}")
        if self.attenuation_a < 0:
            raise ValueError(f"attenuation_a must be >= 0, got {self.attenuation_a}")


@dataclass
class MonogenicTriple:
    """Bandpassed frame plus its two Riesz-transform components."""

    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray

    @functools.cached_property
    def odd(self) -> np.ndarray:
        """Odd amplitude sqrt(m2^2 + m3^2), computed on first use."""
        return np.sqrt(self.m2 ** 2 + self.m3 ** 2)


def minmax_normalize(x: np.ndarray) -> np.ndarray:
    """Scale to [0, 1]; a constant map normalizes to all zeros."""
    lo = x.min()
    span = x.max() - lo
    if span <= 0:
        return np.zeros_like(x)
    return (x - lo) / span


def tga(frame: np.ndarray, a: float) -> np.ndarray:
    """Depth-dependent gain decay: row r is scaled by exp(-a * r/(rows-1))."""
    if a < 0:
        raise ValueError(f"attenuation factor must be >= 0, got {a}")
    rows = frame.shape[0]
    depth = np.linspace(0.0, 1.0, rows) if rows > 1 else np.zeros(1)
    return frame * np.exp(-a * depth)[:, None]


def ibs(frame: np.ndarray) -> np.ndarray:
    """Integrated backscatter: cumulative down-column squared intensity,
    normalized per column so the bottom row is 1. All-zero columns stay 0."""
    energy = np.cumsum(frame.astype(np.float64) ** 2, axis=0)
    total = energy[-1]
    out = np.zeros_like(energy)
    np.divide(energy, total, out=out, where=total > 0)
    return out


def _frequency_grids(rows: int, cols: int):
    u = 2.0 * np.pi * np.fft.fftfreq(rows)
    v = 2.0 * np.pi * np.fft.fftfreq(cols)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    mag = np.hypot(uu, vv)
    return uu, vv, mag


def log_gabor_gain(omega: np.ndarray, lambda0: float, sigma0: float) -> np.ndarray:
    """Radial log-Gabor transfer function with zero DC gain."""
    if lambda0 <= 2.0:
        raise ValueError(f"lambda0 must exceed 2 pixels, got {lambda0}")
    omega0 = 2.0 * np.pi / lambda0
    with np.errstate(divide="ignore"):
        ratio = np.where(omega > 0, omega / omega0, 1.0)
        g = np.exp(-(np.log(ratio) ** 2) / (2.0 * np.log(sigma0) ** 2))
    g[omega == 0] = 0.0
    return g


@functools.lru_cache(maxsize=32)
def _multipliers(shape: tuple, lambda0: float, sigma0: float) -> np.ndarray:
    """Read-only half-plane bank of monogenic() for one frame shape and
    wavelength, complex (3, rows, cols//2 + 1): the log-Gabor gain G and the
    Riesz multipliers G*i*w_r/|w| and G*i*w_c/|w|. On an even size the
    Nyquist row of the w_r plane and the Nyquist column of the w_c plane are
    zero: there the multiplier is not Hermitian, so with a real frame its
    inverse has a purely imaginary part, which the real component drops."""
    rows, cols = shape
    uu, vv, mag = (grid[:, :cols // 2 + 1] for grid in _frequency_grids(rows, cols))
    gain = log_gabor_gain(mag, lambda0, sigma0)
    safe = np.where(mag > 0, mag, 1.0)
    bank = np.stack([gain, 1j * (gain * uu / safe), 1j * (gain * vv / safe)])
    if rows % 2 == 0:
        bank[1, rows // 2, :] = 0.0
    if cols % 2 == 0:
        bank[2, :, cols // 2] = 0.0
    bank.flags.writeable = False
    return bank


def monogenic(spectrum: np.ndarray, shape: tuple, lambda0: float,
              sigma0: float) -> MonogenicTriple:
    """Monogenic signal at one wavelength of a frame of the given shape, from
    its half spectrum rfft2(frame): m1 is the log-Gabor bandpass, m2/m3 the
    Riesz components along rows/columns (multipliers i*w_r/|w| and i*w_c/|w|,
    zero at DC), all three from one half-size inverse transform."""
    return MonogenicTriple(*fft.irfft2(spectrum * _multipliers(shape, lambda0, sigma0), s=shape))


def local_phase_raw(m: MonogenicTriple, epsilon: float) -> np.ndarray:
    """1 - atan(odd / (even + eps)): maximal (= 1) at even, line-like
    structure, falling toward 1 - pi/2 where odd energy dominates."""
    out = np.abs(m.m1)
    out += epsilon
    np.divide(m.odd, out, out=out)
    np.arctan(out, out=out)
    return np.subtract(1.0, out, out=out)


def local_phase(m: MonogenicTriple, epsilon: float) -> np.ndarray:
    """Local phase map, min-max normalized to [0, 1] per frame."""
    return minmax_normalize(local_phase_raw(m, epsilon))


def phase_symmetry(m: MonogenicTriple, thresh: float, epsilon: float) -> np.ndarray:
    """Even-symmetry detector: floor(even - odd - thresh, 0) over the local
    amplitude sqrt(even^2 + odd^2) + eps, min-max normalized to [0, 1].

    The even response is signed (bright-polarity), so dark troughs such as
    the negative sidelobes flanking a bright line do not respond.
    """
    if thresh < 0:
        raise ValueError(f"thresh must be >= 0, got {thresh}")
    num = np.subtract(m.m1, m.odd)
    num -= thresh
    np.maximum(num, 0.0, out=num)
    den = np.square(m.m1)
    den += np.square(m.odd)
    np.sqrt(den, out=den)
    den += epsilon
    num /= den
    return minmax_normalize(num)


def fuse(frame: np.ndarray, cfg: FusionConfig) -> np.ndarray:
    """Fused feature stack: per wavelength, LP * FS * (1 - IBS), each channel
    min-max normalized. Returns (len(lambdas), H, W) in [0, 1]."""
    weight = 1.0 - ibs(frame)
    spectrum = fft.rfft2(frame)
    out = np.empty((len(cfg.lambdas), *frame.shape), dtype=np.float32)
    for c, lam in enumerate(cfg.lambdas):
        m = monogenic(spectrum, frame.shape, lam, cfg.sigma0)
        out[c] = minmax_normalize(local_phase(m, cfg.epsilon)
                                  * phase_symmetry(m, cfg.thresh, cfg.epsilon) * weight)
    return out


def norm_stack(frame: np.ndarray, n_channels: int) -> np.ndarray:
    """Ablation alternative: (frame - mu_i) / 0.5 with mu_i linear in
    [0.3, 0.7] across channels."""
    mus = np.linspace(0.3, 0.7, n_channels)
    return np.stack([(frame - mu) / 0.5 for mu in mus]).astype(np.float32)


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    k = np.outer(g, g)
    return k / k.sum()


SSIM_WINDOW_SIZE = 11
_SSIM_WINDOW = _gaussian_window(SSIM_WINDOW_SIZE, 1.5)
_SSIM_WINDOW.flags.writeable = False


def ssim(frame_a: np.ndarray, frame_b: np.ndarray) -> float:
    """Mean local SSIM over valid positions of frames in [0, 1], with an
    11x11 Gaussian window of sigma 1.5."""
    if frame_a.shape != frame_b.shape:
        raise ValueError(
            f"ssim: frame shapes differ, {frame_a.shape} vs {frame_b.shape}")
    if min(frame_a.shape) < SSIM_WINDOW_SIZE:  # "valid" fftconvolve would swap its inputs
        raise ValueError(f"ssim: {frame_a.shape} frames are smaller than the "
                         f"{SSIM_WINDOW_SIZE}x{SSIM_WINDOW_SIZE} window")
    a = frame_a.astype(np.float64)
    b = frame_b.astype(np.float64)
    c1 = 0.01 ** 2
    c2 = 0.03 ** 2

    def smooth(x):
        return fftconvolve(x, _SSIM_WINDOW, mode="valid")

    mu_a = smooth(a)
    mu_b = smooth(b)
    var_a = smooth(a * a) - mu_a ** 2
    var_b = smooth(b * b) - mu_b ** 2
    cov = smooth(a * b) - mu_a * mu_b
    s = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
    return float(s.mean())


def resize_bilinear(img: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Bilinear resample of a 2-D image (align-corners convention)."""
    h, w = img.shape
    if (h, w) == (rows, cols):
        return img.astype(np.float64, copy=True)
    r = np.linspace(0, h - 1, rows)
    c = np.linspace(0, w - 1, cols)
    r0 = np.clip(np.floor(r).astype(int), 0, h - 2) if h > 1 else np.zeros(rows, int)
    c0 = np.clip(np.floor(c).astype(int), 0, w - 2) if w > 1 else np.zeros(cols, int)
    fr = (r - r0)[:, None]
    fc = (c - c0)[None, :]
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    top = img[np.ix_(r0, c0)] * (1 - fc) + img[np.ix_(r0, c1)] * fc
    bot = img[np.ix_(r1, c0)] * (1 - fc) + img[np.ix_(r1, c1)] * fc
    return top * (1 - fr) + bot * fr


def prepare_frame(frame: np.ndarray, size: int, attenuation_a: float) -> np.ndarray:
    """Resize to the working resolution, then apply TGA (the identity at a=0)."""
    return tga(resize_bilinear(frame, size, size), attenuation_a)
