"""Output checks and the benchmark's own fusion reference.

References are compared within stated tolerances, never by digest, so a
change that only reorders float32 arithmetic passes while dropped or
corrupted work fails.
"""

from __future__ import annotations

import numpy as np

# Largest |program - reference| allowed in a fused stack. Stacks are float32
# in [0, 1]; rounding to float32 alone gives 6e-8.
STACK_TOL = 1e-4
# Desk training must at least halve the mean loss between its first epoch
# and the epoch loss_ratio is taken at (a working run reaches about 0.2).
LOSS_RATIO_MAX = 0.5


def _normalize(x):
    span = x.max() - x.min()
    return (x - x.min()) / span if span > 0 else np.zeros_like(x)


def _dft(n):
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def _angular_freq(n):
    k = np.arange(n)
    return 2.0 * np.pi * np.where(k < (n + 1) // 2, k, k - n) / n


def reference_stack(frame, fusion_cfg, attenuation_a):
    """Fused stack of a frame already at working size, by direct DFT in
    float64: depth attenuation, then per wavelength a log-Gabor bandpass
    and its two Riesz components, local phase times phase symmetry times
    (1 - integrated backscatter), each channel min-max normalized."""
    x = np.asarray(frame, dtype=np.float64)
    rows, cols = x.shape
    if attenuation_a is not None:
        x = x * np.exp(-attenuation_a * np.linspace(0.0, 1.0, rows))[:, None]
    energy = np.cumsum(x * x, axis=0)
    total = energy[-1]
    weight = 1.0 - np.divide(energy, total, out=np.zeros_like(energy), where=total > 0)
    fr, fc = _dft(rows), _dft(cols)
    spectrum = fr @ x @ fc
    uu, vv = np.meshgrid(_angular_freq(rows), _angular_freq(cols), indexing="ij")
    mag = np.hypot(uu, vv)
    safe = np.where(mag > 0, mag, 1.0)

    def inverse(s):
        return np.real(np.conj(fr) @ s @ np.conj(fc)) / (rows * cols)

    eps, sigma0 = fusion_cfg.epsilon, fusion_cfg.sigma0
    channels = []
    for lam in fusion_cfg.lambdas:
        ratio = np.where(mag > 0, mag * lam / (2.0 * np.pi), 1.0)
        gain = np.where(mag > 0, np.exp(-np.log(ratio) ** 2 / (2.0 * np.log(sigma0) ** 2)), 0.0)
        band = spectrum * gain
        m1 = inverse(band)
        m2 = inverse(band * 1j * uu / safe)
        m3 = inverse(band * 1j * vv / safe)
        odd = np.hypot(m2, m3)
        phase = _normalize(1.0 - np.arctan(odd / (np.abs(m1) + eps)))
        amplitude = np.sqrt(m1 ** 2 + m2 ** 2 + m3 ** 2)
        if fusion_cfg.energy_denominator_mode == "squared_energy":
            den = amplitude ** 2 + eps
        else:
            den = amplitude + eps
        symmetry = _normalize(np.maximum(m1 - odd - fusion_cfg.thresh, 0.0) / den)
        channels.append(_normalize(phase * symmetry * weight))
    return np.stack(channels)


def stack_error(stack, frame, fusion_cfg, attenuation_a) -> float:
    """Largest absolute difference from the reference stack (inf on shape mismatch)."""
    ref = reference_stack(frame, fusion_cfg, attenuation_a)
    stack = np.asarray(stack)
    if stack.shape != ref.shape:
        return float("inf")
    return float(np.abs(stack.astype(np.float64) - ref).max())


def keypoints_ok(keypoints, size: int) -> bool:
    """Keypoints are finite (k, 2) pixel coordinates inside a size x size image."""
    kp = np.asarray(keypoints, dtype=np.float64)
    return (kp.ndim == 2 and kp.shape[1] == 2 and bool(np.isfinite(kp).all())
            and bool(((kp >= 0) & (kp <= size - 1)).all()))


def epoch_means(losses, epoch_starts):
    """Mean loss of each whole epoch, given the index of each epoch's first step."""
    bounds = list(epoch_starts) + [len(losses)]
    return [float(np.mean(losses[a:b])) for a, b in zip(bounds, bounds[1:]) if b > a]
