"""Synthetic ultrasound-like video with known landmark ground truth.

Renders an oscillating bright pleural band, dimmer A-line reverberations
at integer multiples of the pleural depth, drifting vertical B-line bands
and multiplicative speckle, all seeded and reproducible. Stands in for
clinical data during training and quantitative evaluation.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .fusion import as_float
from .pgm import DatasetError, read_pgm, write_pgm
from .tensor import atomic_open

# mean of a unit Rayleigh variate, used to normalize speckle to mean 1
_RAYLEIGH_MEAN = np.sqrt(np.pi / 2.0)


@dataclass(frozen=True)
class BLineSpec:
    column: float = 0.7      # lateral position, fraction of width
    drift: float = 0.15      # pixels per frame
    width: float = 2.0       # gaussian sigma, pixels
    brightness: float = 0.8

    def __post_init__(self):
        for name in ("column", "drift", "width", "brightness"):
            object.__setattr__(self, name, as_float(name, getattr(self, name)))


@dataclass(frozen=True)
class SceneSpec:
    frames: int = 40
    size: int = 64
    pleura_depth: float = 0.25       # p0, normalized
    amplitude: float = 0.03          # oscillation, normalized depth
    frequency: float = 0.05          # cycles per frame
    pleura_brightness: float = 1.0
    pleura_thickness: float = 1.5    # gaussian sigma, pixels
    a_line_count: int = 2
    a_line_decay: float = 0.5
    b_lines: tuple = (BLineSpec(),)
    speckle_strength: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name in ("pleura_depth", "amplitude", "frequency", "pleura_brightness",
                     "pleura_thickness", "a_line_decay", "speckle_strength"):
            object.__setattr__(self, name, as_float(name, getattr(self, name)))
        if self.frames < 1 or self.size < 8:
            raise ValueError(f"invalid scene extent: frames={self.frames}, size={self.size}")
        if not 0.15 < self.pleura_depth < 0.4:
            raise ValueError(f"pleura_depth must be in (0.15, 0.4), got {self.pleura_depth}")
        swing = abs(self.amplitude)
        if self.pleura_depth - swing < 0 or self.pleura_depth + swing >= 0.5:
            raise ValueError(f"pleura must stay in the upper half: "
                             f"pleura_depth={self.pleura_depth}, amplitude={self.amplitude}")
        for name, width in (("pleura_thickness", self.pleura_thickness),
                            *(("b_lines width", bl.width) for bl in self.b_lines)):
            # at extreme widths _band's 2*sigma**2 underflows to 0 or overflows
            if not 0.1 <= width <= self.size:
                raise ValueError(f"{name} must be in [0.1, {self.size}] pixels, got {width}")
        for bl in self.b_lines:
            if not 0.0 <= bl.column <= 1.0:
                raise ValueError(f"b_lines column must be in [0, 1], got {bl.column}")
        for name in ("a_line_count", "a_line_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for b in (self.pleura_brightness, *(bl.brightness for bl in self.b_lines)):
            if not 0.0 <= b <= 1.0:
                raise ValueError(f"brightness out of [0,1]: {b}")
        if self.speckle_strength < 0:
            raise ValueError(f"speckle_strength must be >= 0, got {self.speckle_strength}")


@dataclass
class GroundTruth:
    """Per-frame landmark locations in pixels."""

    pleura_rows: list = field(default_factory=list)
    a_line_rows: list = field(default_factory=list)   # list of lists
    b_line_cols: list = field(default_factory=list)   # list of lists

    def __len__(self):
        return len(self.pleura_rows)


def _band(rows: int, center: float, sigma: float) -> np.ndarray:
    r = np.arange(rows, dtype=np.float64)
    return np.exp(-((r - center) ** 2) / (2.0 * sigma ** 2))


def generate(spec: SceneSpec) -> tuple[np.ndarray, GroundTruth]:
    """Render the scene. Returns (frames (T, S, S) in [0,1], truth)."""
    size = spec.size
    truth = GroundTruth()
    video = np.zeros((spec.frames, size, size), dtype=np.float64)
    for t in range(spec.frames):
        p_norm = spec.pleura_depth + spec.amplitude * np.sin(2.0 * np.pi * spec.frequency * t)
        p_row = p_norm * (size - 1)
        base = np.zeros((size, size), dtype=np.float64)
        base += spec.pleura_brightness * _band(size, p_row, spec.pleura_thickness)[:, None]
        a_rows = []
        for m in range(2, spec.a_line_count + 2):
            row = m * p_row
            if row >= size:
                break
            a_rows.append(row)
            gain = spec.pleura_brightness * spec.a_line_decay ** (m - 1)
            base += gain * _band(size, row, spec.pleura_thickness)[:, None]
        b_cols = []
        below = np.arange(size, dtype=np.float64) >= p_row
        for bl in spec.b_lines:
            col = bl.column * (size - 1) + bl.drift * t
            col = float(np.clip(col, 0.0, size - 1))  # drift stops at the frame edge
            b_cols.append(col)
            profile = bl.brightness * _band(size, col, bl.width)
            base += below[:, None] * profile[None, :]
        base = np.clip(base, 0.0, 1.0)
        if spec.speckle_strength > 0:
            rng = np.random.default_rng([spec.seed, t])
            mag = np.hypot(rng.standard_normal((size, size)),
                           rng.standard_normal((size, size))) / _RAYLEIGH_MEAN
            base = base * (1.0 + spec.speckle_strength * (mag - 1.0))
        video[t] = np.clip(base, 0.0, 1.0)
        truth.pleura_rows.append(p_row)
        truth.a_line_rows.append(a_rows)
        truth.b_line_cols.append(b_cols)
    return video, truth


def save_dataset(video: np.ndarray, truth: GroundTruth, directory):
    os.makedirs(directory, exist_ok=True)
    for t, frame in enumerate(video):
        write_pgm(os.path.join(directory, f"frame_{t:05d}.pgm"), frame)
    lines = []
    for p, a_rows, b_cols in zip(truth.pleura_rows, truth.a_line_rows, truth.b_line_cols):
        fields = [repr(float(p)), "A", *(repr(float(r)) for r in a_rows),
                  "B", *(repr(float(c)) for c in b_cols)]
        lines.append(" ".join(fields))
    with atomic_open(os.path.join(directory, "truth.txt")) as f:
        f.write("\n".join(lines) + "\n")


def load_frames(directory) -> np.ndarray:
    names = sorted(n for n in os.listdir(directory)
                   if re.fullmatch(r"frame_\d{5}\.pgm", n))
    if not names:
        raise DatasetError(f"{directory}: no frame_*.pgm files found")
    count = int(names[-1][6:11]) + 1
    frames = []
    for t in range(count):
        path = os.path.join(directory, f"frame_{t:05d}.pgm")
        if not os.path.exists(path):
            raise DatasetError(f"{directory}: missing frame index {t} ({path})")
        frames.append(read_pgm(path))
        if frames[-1].shape != frames[0].shape:
            raise DatasetError(f"{path}: frame is {frames[-1].shape}, "
                               f"but frame 0 is {frames[0].shape}")
    return np.stack(frames)


def finite_float(text: str) -> float:
    """float(text); nan and inf raise ValueError."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def load_truth(path) -> GroundTruth:
    truth = GroundTruth()
    with open(path, "rb") as f:
        lines = f.read().splitlines()  # bytes split as text mode's universal newlines do
    for lineno, line in enumerate(lines, 1):
        try:
            fields = line.decode("utf-8").split()
            if not fields:
                continue
            if fields[1] != "A":  # nothing stands between the pleura row and A
                raise ValueError(f"A expected after the pleura row, got {fields[1]!r}")
            b_at = fields.index("B")
            truth.pleura_rows.append(finite_float(fields[0]))
            truth.a_line_rows.append([finite_float(x) for x in fields[2:b_at]])
            truth.b_line_cols.append([finite_float(x) for x in fields[b_at + 1:]])
        except (ValueError, IndexError) as exc:
            raise DatasetError(f"{path}:{lineno}: malformed truth line") from exc
    return truth
