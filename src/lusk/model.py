"""Transporter keypoint network.

Feature encoder (with optional CBAM attention), keypoint regressor with
spatial soft-argmax, Gaussian heatmap rendering, feature transport
between frame pairs, and a refinement decoder that reconstructs the
10-channel feature stack at input resolution.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from . import fusion
from .tensor import (CheckpointError, Tensor, ShapeError, concat, conv2d,
                     instance_norm, load_tensors, save_tensors, spatial_softmax,
                     stop_gradient, upsample_conv2d)
from .tensor import upsample_nearest2x  # noqa: F401  unused; perfbench/tracing.py times it

CBAM_REDUCTION = 8


@dataclass(frozen=True)
class ModelConfig:
    k: int = 10
    input_size: int = 256
    heatmap_sigma: float = 1.5
    use_cbam: bool = False
    base_channels: int = 32
    input_mode: str = "fused"
    # not fields: the feature stack has 10 channels, and the encoder's two
    # stride-2 stages fix the stride at 4
    input_channels = 10
    feature_stride = 4

    def __post_init__(self):
        sigma = fusion.as_float("heatmap_sigma", self.heatmap_sigma)
        object.__setattr__(self, "heatmap_sigma", sigma)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.base_channels < 1:
            raise ValueError(f"base_channels must be >= 1, got {self.base_channels}")
        if self.input_size <= 0:
            raise ValueError(f"input_size must be > 0, got {self.input_size}")
        if self.input_size % self.feature_stride:
            raise ValueError(
                f"input_size {self.input_size} not divisible by stride {self.feature_stride}")
        if self.heatmap_sigma < 0.1:  # cells; exp(-50) one cell out is a normal float32
            raise ValueError(f"heatmap_sigma must be >= 0.1, got {self.heatmap_sigma}")
        if self.input_mode not in ("fused", "norm_stack"):
            raise ValueError(f"unknown input_mode {self.input_mode!r}")

    @property
    def feature_channels(self) -> int:
        return 2 * self.base_channels


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    data = rng.uniform(-limit, limit, size=shape).astype(np.float32)
    return Tensor(data, requires_grad=True)


def _layers(cfg: ModelConfig):
    """(name, shape, fan_in, fan_out) of each conv weight `name.w`, in draw
    order; each has a bias `name.b` of shape[:1]."""
    c1, c2 = cfg.base_channels, cfg.feature_channels
    convs = [(f"{trunk}.{conv}", c_out, c_in, 3) for trunk in ("encoder", "keynet")
             for conv, c_out, c_in in (("conv1", c1, cfg.input_channels), ("conv2", c2, c1))]
    if cfg.use_cbam:
        for prefix, channels in (("encoder.cbam1", c1), ("encoder.cbam2", c2)):
            hidden = max(channels // CBAM_REDUCTION, 1)
            convs += [(f"{prefix}.ca1", hidden, channels, 1),
                      (f"{prefix}.ca2", channels, hidden, 1), (f"{prefix}.sa", 1, 2, 7)]
    convs += [("keynet.head", cfg.k, c2, 1), ("refine.conv1", c1, c2, 3),
              ("refine.conv2", cfg.input_channels, c1, 3)]
    return [(name, (c_out, c_in, k, k), c_in * k * k, c_out * k * k)
            for name, c_out, c_in, k in convs]


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    for name, shape, fan_in, fan_out in _layers(cfg):
        params[f"{name}.w"] = glorot_uniform(rng, shape, fan_in, fan_out)
        params[f"{name}.b"] = Tensor(np.zeros(shape[0], dtype=np.float32), requires_grad=True)
    return params


def cbam(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """Channel attention (shared MLP, two 1x1 convs, on avg/max pooled
    descriptors) followed by spatial attention (7x7 conv over channel-wise
    avg/max maps)."""

    def mlp(v: Tensor) -> Tensor:
        hid = conv2d(v, params[f"{prefix}.ca1.w"], params[f"{prefix}.ca1.b"]).relu()
        return conv2d(hid, params[f"{prefix}.ca2.w"], params[f"{prefix}.ca2.b"])

    gate = mlp(x.mean(axis=(2, 3), keepdims=True)) + mlp(x.max(axis=(2, 3), keepdims=True))
    x = x * gate.sigmoid()
    desc = concat([x.mean(axis=1, keepdims=True), x.max(axis=1, keepdims=True)], axis=1)
    sgate = conv2d(desc, params[f"{prefix}.sa.w"], params[f"{prefix}.sa.b"],
                   padding=3).sigmoid()
    return x * sgate


def _stage(x, params, name, cfg, cbam_prefix=None):
    """Stride-2 3x3 conv, instance norm, ReLU, then CBAM at cbam_prefix (if enabled)."""
    h = conv2d(x, params[f"{name}.w"], params[f"{name}.b"], stride=2, padding=1)
    h = instance_norm(h)
    h = h.relu()
    if cbam_prefix and cfg.use_cbam:
        h = cbam(h, params, cbam_prefix)
    return h


def encode(stack: Tensor, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Stride-4 convolutional encoder; (N, 10, S, S) -> (N, C, S/4, S/4)."""
    h = _stage(stack, params, "encoder.conv1", cfg, "encoder.cbam1")
    return _stage(h, params, "encoder.conv2", cfg, "encoder.cbam2")


def render_heatmaps(rows: Tensor, cols: Tensor, size: int, sigma: float) -> Tensor:
    """The (N, 1, size, size) map transport reads: peak-1 Gaussians at (N, k)
    cell coordinates, summed over slots (so slot order is irrelevant) and
    clamped to [0, 1]; differentiable in the coordinates."""
    n, k = rows.shape
    grid = np.arange(size, dtype=rows.dtype)
    dr = Tensor(grid.reshape(1, 1, size, 1)) - rows.reshape(n, k, 1, 1)
    dc = Tensor(grid.reshape(1, 1, 1, size)) - cols.reshape(n, k, 1, 1)
    sq = dr * dr + dc * dc
    heat = (sq * (-1.0 / (2.0 * sigma * sigma))).exp()
    return heat.sum(axis=1, keepdims=True).clamp(0.0, 1.0)


def keynet(stack: Tensor, params: dict[str, Tensor], cfg: ModelConfig):
    """Keypoint regression: stride-4 trunk, k logit maps, spatial soft-argmax.

    Returns (rows, cols), each (N, k) in feature-grid cells.
    """
    h = _stage(stack, params, "keynet.conv1", cfg)
    h = _stage(h, params, "keynet.conv2", cfg)
    logits = conv2d(h, params["keynet.head.w"], params["keynet.head.b"])
    prob = spatial_softmax(logits)
    grid = np.arange(logits.shape[2], dtype=stack.dtype)
    rows = (prob * Tensor(grid.reshape(1, 1, -1, 1))).sum(axis=(2, 3))
    cols = (prob * Tensor(grid.reshape(1, 1, 1, -1))).sum(axis=(2, 3))
    return rows, cols


def transport(phi_s: Tensor, phi_t: Tensor, h_s: Tensor, h_t: Tensor) -> Tensor:
    """Transported features: (1-Hs)(1-Ht)*Phi_s + Ht*Phi_t.

    The source branch (Phi_s, Hs) is held constant during backpropagation,
    so the reconstruction loss can only be lowered by placing target
    keypoints on the structures whose features must be pasted; heatmaps
    broadcast across channels.
    """
    if phi_s.shape != phi_t.shape or h_s.shape[2:] != phi_s.shape[2:] \
            or h_t.shape[2:] != phi_s.shape[2:]:
        raise ShapeError("transport", phi_s.shape, phi_t.shape, h_s.shape, h_t.shape)
    h_s = stop_gradient(h_s)
    phi_s = stop_gradient(phi_s)
    return (1.0 - h_s) * (1.0 - h_t) * phi_s + h_t * phi_t


def refine(phi: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Decoder: two nearest-2x upsample + 3x3 conv stages back to input
    resolution (each one upsample_conv2d, which builds no upsampled
    intermediate), instance norm and ReLU between them, sigmoid output in
    [0, 1] with exactly input_channels channels. Encoder pretraining trains
    it too, then discards it."""
    h = upsample_conv2d(phi, params["refine.conv1.w"], params["refine.conv1.b"])
    h = instance_norm(h).relu()
    h = upsample_conv2d(h, params["refine.conv2.w"], params["refine.conv2.b"])
    return h.sigmoid()


def reconstruct(stack_s: Tensor, stack_t: Tensor, params: dict[str, Tensor],
                cfg: ModelConfig) -> Tensor:
    """Full transporter forward pass: encode both frames, locate keypoints,
    transport source features into target keypoint regions, refine.

    transport holds the source branch constant, so it runs on parameter
    views that require no gradient and builds no graph."""
    constant = {name: stop_gradient(p) for name, p in params.items()}
    phi_s = encode(stack_s, constant, cfg)
    phi_t = encode(stack_t, params, cfg)
    rows_s, cols_s = keynet(stack_s, constant, cfg)
    rows_t, cols_t = keynet(stack_t, params, cfg)
    h_s = render_heatmaps(rows_s, cols_s, phi_t.shape[2], cfg.heatmap_sigma)
    h_t = render_heatmaps(rows_t, cols_t, phi_t.shape[2], cfg.heatmap_sigma)
    return refine(transport(phi_s, phi_t, h_s, h_t), params)


def cell_to_pixel(cell: np.ndarray, stride: int) -> np.ndarray:
    """Feature-grid cell coordinate to image pixel, center-of-cell."""
    return cell * stride + stride / 2.0


def preprocess_frame(frame: np.ndarray, cfg: ModelConfig,
                     fusion_cfg: fusion.FusionConfig) -> np.ndarray:
    """Resize + TGA + feature stack, as fed to the network."""
    prepared = fusion.prepare_frame(frame, cfg.input_size, fusion_cfg.attenuation_a)
    if cfg.input_mode == "fused":
        return fusion.fuse(prepared, fusion_cfg)
    return fusion.norm_stack(prepared, cfg.input_channels)


def infer_keypoints(frame: np.ndarray, params: dict[str, Tensor], cfg: ModelConfig,
                    fusion_cfg: fusion.FusionConfig) -> np.ndarray:
    """Keypoints for one frame in its own pixel coordinates, shape (k, 2)."""
    stack = preprocess_frame(frame, cfg, fusion_cfg)
    x = Tensor(stack[None].astype(np.float32))
    rows, cols = keynet(x, params, cfg)
    coords = cell_to_pixel(np.stack([rows.data[0], cols.data[0]], axis=1), cfg.feature_stride)
    # the model sees an input_size square, resized align-corners (pixel j
    # reads source j*(H-1)/(input_size-1)): map each axis back alike
    coords[:, 0] *= (frame.shape[0] - 1) / (cfg.input_size - 1)
    coords[:, 1] *= (frame.shape[1] - 1) / (cfg.input_size - 1)
    return coords


# -- checkpoints ------------------------------------------------------------

_CONFIG_RECORD = "__config__"
# computed once: get_type_hints costs more than the rest of a load
_RECORD_TYPES = {name: hint for section in (ModelConfig, fusion.FusionConfig)
                 for name, hint in get_type_hints(section).items()}


def _has_type(value, hint) -> bool:
    """Whether value is exactly of type hint (5.0 is no int, 1 no bool or float), finite."""
    if hint is tuple:
        return type(value) is tuple and all(_has_type(v, float) for v in value)
    return type(value) is hint and (hint is not float or math.isfinite(value))


def save_model(path, params: dict[str, Tensor], cfg: ModelConfig,
               fusion_cfg: fusion.FusionConfig | None = None):
    """Write params after a config record: a `field=repr(value)` line per
    field of cfg and fusion_cfg (default FusionConfig()), a float32 per byte."""
    sections = (cfg, fusion_cfg or fusion.FusionConfig())
    text = "".join(f"{f}={getattr(c, f)!r}\n" for c in sections for f in c.__dataclass_fields__)
    record = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float32)
    save_tensors(path, {_CONFIG_RECORD: record, **params})


def read_checkpoint(path, required=()) -> tuple[dict[str, Tensor], ModelConfig,
                                                fusion.FusionConfig]:
    """Parameters (requiring no gradient), model and fusion config of a
    checkpoint. Raises CheckpointError on a malformed config record, or
    unless the parameters are finite and are init_params of that config at
    their shapes, less those whose names do not start with `required`."""
    records = load_tensors(path)
    if _CONFIG_RECORD not in records:
        raise CheckpointError(f"{path}: missing config record")
    record = records.pop(_CONFIG_RECORD)
    # NaN fails every comparison, so it is no byte either
    if record.ndim != 1 or not np.all((record >= 0) & (record <= 255) & (record % 1 == 0)):
        raise CheckpointError(f"{path}: config record holds values that are not bytes")
    try:
        text = record.astype(np.uint8).tobytes().decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: config record is not UTF-8 text") from None
    values = {}
    for line in text.splitlines():
        name, _, literal = line.partition("=")
        try:
            value = ast.literal_eval(literal)
        except (SyntaxError, ValueError, TypeError, MemoryError, RecursionError):
            raise CheckpointError(f"{path}: config line {line!r} does not parse") from None
        if name not in _RECORD_TYPES or name in values:
            raise CheckpointError(f"{path}: config line {line!r} names no setting or repeats one")
        if not _has_type(value, _RECORD_TYPES[name]):
            raise CheckpointError(f"{path}: config line {line!r} has the wrong type")
        values[name] = value
    try:
        cfg, fusion_cfg = (section(**{f: values[f] for f in section.__dataclass_fields__})
                           for section in (ModelConfig, fusion.FusionConfig))
    except KeyError as exc:
        raise CheckpointError(f"{path}: config record lacks {exc.args[0]}") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    shapes = {f"{name}.{kind}": dims for name, shape, _, _ in _layers(cfg)
              for kind, dims in (("w", shape), ("b", shape[:1]))}
    for name in sorted(records.keys() | {n for n in shapes if n.startswith(required)}):
        got, want = records[name].shape if name in records else None, shapes.get(name)
        if got != want:
            raise CheckpointError(f"{path}: parameter {name} has shape {got} in the checkpoint "
                                  f"and {want} in the model its config describes")
        if not np.isfinite(records[name]).all():
            raise CheckpointError(f"{path}: parameter {name} holds NaN or an infinity")
    return {name: Tensor(arr) for name, arr in records.items()}, cfg, fusion_cfg


def load_model(path) -> tuple[dict[str, Tensor], ModelConfig]:
    """read_checkpoint without the fusion config."""
    return read_checkpoint(path)[:2]


def check_config_match(loaded, expected, fields=None):
    """Reject checkpoint/config mismatches in the fields of two configs of
    one dataclass (those in `fields`, if given), naming both values."""
    for f in loaded.__dataclass_fields__:
        a, b = getattr(loaded, f), getattr(expected, f)
        if a != b and (fields is None or f in fields):
            raise ValueError(f"checkpoint {f}={a} does not match configured {f}={b}")
