"""Quantitative evaluation of predicted keypoints against ground truth.

Pleura detection accuracy (a frame counts as correct when any keypoint
row lands within delta pixels of the true pleura row), per-landmark
distance statistics and temporal jitter. All metrics except jitter are
invariant to keypoint slot order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import get_type_hints

import numpy as np

from .tensor import atomic_open

DEFAULT_DELTA = 5.0  # pixels at 64x64; scale proportionally for other sizes


@dataclass
class EvalReport:
    frames_total: int = 0
    frames_pleura_correct: int = 0
    pleura_accuracy: float = 0.0
    delta: float = DEFAULT_DELTA
    pleura_mean_dist: float = float("nan")
    pleura_median_dist: float = float("nan")
    a_line_mean_dist: float = float("nan")
    a_line_median_dist: float = float("nan")
    b_line_mean_dist: float = float("nan")
    b_line_median_dist: float = float("nan")
    jitter: list = field(default_factory=list)  # per keypoint slot


def _nearest_distances(keypoints, truth_values, axis: int):
    """Distance from each truth landmark to its nearest keypoint along one
    axis (0 = rows for horizontal lines, 1 = columns for vertical ones)."""
    dists = []
    for kp, values in zip(keypoints, truth_values):
        for v in values:
            dists.append(float(np.abs(kp[:, axis] - v).min()))
    return dists


def _pleura_distances(keypoints, pleura_rows):
    """Per frame, the row distance from the true pleura to the nearest
    keypoint; a frame is correct when this is at most delta."""
    return _nearest_distances(np.asarray(keypoints, dtype=np.float64),
                              [[row] for row in pleura_rows], 0)


def pleura_accuracy(keypoints, pleura_rows, delta: float) -> tuple[int, int, float]:
    """Returns (correct, total, accuracy). keypoints: (T, k, 2) as (row, col)."""
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    if len(keypoints) != len(pleura_rows):
        raise ValueError(
            f"{len(keypoints)} keypoint sets vs {len(pleura_rows)} truth records")
    correct = sum(d <= delta for d in _pleura_distances(keypoints, pleura_rows))
    total = len(pleura_rows)
    return correct, total, correct / total if total else 0.0


def landmark_distance(keypoints, truth) -> dict[str, dict[str, float]]:
    """Per-landmark nearest-keypoint distance stats (mean/median over frames)."""
    keypoints = np.asarray(keypoints, dtype=np.float64)
    if len(keypoints) != len(truth):
        raise ValueError(
            f"{len(keypoints)} keypoint sets vs {len(truth)} truth records")
    groups = {
        "pleura": _pleura_distances(keypoints, truth.pleura_rows),
        "a_line": _nearest_distances(keypoints, truth.a_line_rows, 0),
        "b_line": _nearest_distances(keypoints, truth.b_line_cols, 1),
    }
    out = {}
    for name, dists in groups.items():
        if dists:
            out[name] = {"mean": float(np.mean(dists)), "median": float(np.median(dists))}
        else:
            out[name] = {"mean": float("nan"), "median": float("nan")}
    return out


def temporal_jitter(keypoints) -> np.ndarray:
    """Mean per-frame Euclidean displacement of each keypoint slot."""
    keypoints = np.asarray(keypoints, dtype=np.float64)
    if len(keypoints) < 2:
        raise ValueError("temporal jitter needs at least 2 frames")
    steps = np.linalg.norm(np.diff(keypoints, axis=0), axis=2)
    return steps.mean(axis=0)


def evaluate(keypoints, truth, delta: float = DEFAULT_DELTA) -> EvalReport:
    correct, total, acc = pleura_accuracy(keypoints, truth.pleura_rows, delta)
    dist = landmark_distance(keypoints, truth)
    jit = temporal_jitter(keypoints) if len(keypoints) >= 2 else np.array([])
    return EvalReport(
        frames_total=total, frames_pleura_correct=correct, pleura_accuracy=acc,
        delta=delta,
        pleura_mean_dist=dist["pleura"]["mean"], pleura_median_dist=dist["pleura"]["median"],
        a_line_mean_dist=dist["a_line"]["mean"], a_line_median_dist=dist["a_line"]["median"],
        b_line_mean_dist=dist["b_line"]["mean"], b_line_median_dist=dist["b_line"]["median"],
        jitter=[float(j) for j in jit])


_SCALAR_FIELDS = {name: hint for name, hint in get_type_hints(EvalReport).items()
                  if hint in (int, float)}

_HEADER = ("# pleura correctness: any keypoint row within delta pixels of the "
           "true pleura row (delta is an engineering default, see below)")


def write_report(path, report: EvalReport):
    with atomic_open(path) as f:
        f.write(_HEADER + "\n")
        for name in _SCALAR_FIELDS:
            f.write(f"{name}={getattr(report, name)!r}\n")
        f.write("jitter=" + ",".join(repr(j) for j in report.jitter) + "\n")


def write_frame_csv(path, keypoints, truth, delta: float):
    """Per-frame detail: pleura distance of the best keypoint and correctness."""
    dists = _pleura_distances(keypoints, truth.pleura_rows)
    with atomic_open(path) as f:
        f.write("frame,pleura_row,best_dist,correct\n")
        for t, (row, d) in enumerate(zip(truth.pleura_rows, dists)):
            f.write(f"{t},{row!r},{d!r},{int(d <= delta)}\n")
