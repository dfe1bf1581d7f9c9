"""Binary PGM (P5, 8-bit) frame I/O, mapped to float frames in [0, 1]."""

from __future__ import annotations

import numpy as np


class DatasetError(ValueError):
    """Missing or corrupt dataset files."""


def write_pgm(path, frame: np.ndarray):
    data = np.clip(np.rint(np.asarray(frame, dtype=np.float64) * 255.0), 0, 255)
    data = data.astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    tokens = []
    i = 0
    while len(tokens) < 4:
        while i < len(blob) and blob[i:i + 1].isspace():
            i += 1
        if i < len(blob) and blob[i:i + 1] == b"#":
            while i < len(blob) and blob[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(blob) and not blob[i:i + 1].isspace():
            i += 1
        if start == i:
            raise DatasetError(f"{path}: truncated PGM header")
        tokens.append(blob[start:i])
    if tokens[0] != b"P5":
        raise DatasetError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    if not all(t.isdigit() for t in tokens[1:]):
        raise DatasetError(f"{path}: malformed PGM header {b' '.join(tokens)!r}")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if w < 1 or h < 1:
        raise DatasetError(f"{path}: PGM has no pixels ({w}x{h})")
    if maxval != 255:
        raise DatasetError(f"{path}: unsupported maxval {maxval}, expected 255")
    i += 1  # single whitespace byte after maxval
    if len(blob) - i < w * h:
        raise DatasetError(f"{path}: truncated pixel data, "
                           f"{max(len(blob) - i, 0)} of {w * h} bytes")
    pixels = np.frombuffer(blob, dtype=np.uint8, count=w * h, offset=i)
    return pixels.reshape(h, w).astype(np.float64) / 255.0
