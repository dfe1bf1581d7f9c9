"""Transporter keypoint network.

Feature encoder (with optional CBAM attention), keypoint regressor with
spatial soft-argmax and Gaussian heatmap rendering, feature transport
between frame pairs, and a refinement decoder that reconstructs the
10-channel feature stack at input resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from . import fusion
from .tensor import (CheckpointError, Tensor, ShapeError, concat, conv2d,
                     instance_norm, load_tensors, save_tensors, spatial_softmax,
                     stop_gradient, upsample_nearest2x)

CBAM_REDUCTION = 8
INPUT_MODES = ("fused", "norm_stack")


@dataclass
class ModelConfig:
    k: int = 10
    input_channels: int = 10
    input_size: int = 256
    heatmap_sigma: float = 1.5
    use_cbam: bool = False
    base_channels: int = 32
    use_tga: bool = True
    input_mode: str = "fused"
    # not a field: the encoder's two stride-2 stages fix the stride at 4
    feature_stride = 4

    def validate(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.input_size % self.feature_stride:
            raise ValueError(
                f"input_size {self.input_size} not divisible by stride {self.feature_stride}")
        if self.heatmap_sigma <= 0:
            raise ValueError(f"heatmap_sigma must be > 0, got {self.heatmap_sigma}")
        if self.input_mode not in INPUT_MODES:
            raise ValueError(f"unknown input_mode {self.input_mode!r}")
        return self

    @property
    def feature_size(self) -> int:
        return self.input_size // self.feature_stride

    @property
    def feature_channels(self) -> int:
        return 2 * self.base_channels


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    data = rng.uniform(-limit, limit, size=shape).astype(np.float32)
    return Tensor(data, requires_grad=True)


def _conv_param(rng, params, name, c_out, c_in, k):
    params[f"{name}.w"] = glorot_uniform(rng, (c_out, c_in, k, k),
                                         c_in * k * k, c_out * k * k)
    params[f"{name}.b"] = Tensor(np.zeros(c_out, dtype=np.float32), requires_grad=True)


def _cbam_params(rng, params, prefix, channels):
    hidden = max(channels // CBAM_REDUCTION, 1)
    params[f"{prefix}.ca_w1"] = glorot_uniform(rng, (channels, hidden), channels, hidden)
    params[f"{prefix}.ca_b1"] = Tensor(np.zeros(hidden, dtype=np.float32), requires_grad=True)
    params[f"{prefix}.ca_w2"] = glorot_uniform(rng, (hidden, channels), hidden, channels)
    params[f"{prefix}.ca_b2"] = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True)
    _conv_param(rng, params, f"{prefix}.sa", 1, 2, 7)


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    cfg.validate()
    c1, c2 = cfg.base_channels, cfg.feature_channels
    params: dict[str, Tensor] = {}
    for trunk in ("encoder", "keynet"):
        _conv_param(rng, params, f"{trunk}.conv1", c1, cfg.input_channels, 3)
        _conv_param(rng, params, f"{trunk}.conv2", c2, c1, 3)
    if cfg.use_cbam:
        _cbam_params(rng, params, "encoder.cbam1", c1)
        _cbam_params(rng, params, "encoder.cbam2", c2)
    _conv_param(rng, params, "keynet.head", cfg.k, c2, 1)
    return init_refine_params(cfg, rng, params)


def init_refine_params(cfg: ModelConfig, rng: np.random.Generator,
                       params: dict[str, Tensor] | None = None,
                       prefix: str = "refine") -> dict[str, Tensor]:
    """Add the two decoder convolutions read by refine() under `prefix`."""
    c1, c2 = cfg.base_channels, cfg.feature_channels
    params = {} if params is None else params
    _conv_param(rng, params, f"{prefix}.conv1", c1, c2, 3)
    _conv_param(rng, params, f"{prefix}.conv2", cfg.input_channels, c1, 3)
    return params


def cbam(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """Channel attention (shared MLP on avg/max pooled descriptors) followed
    by spatial attention (7x7 conv over channel-wise avg/max maps)."""
    n, c, h, w = x.shape

    def mlp(v: Tensor) -> Tensor:
        hid = (v @ params[f"{prefix}.ca_w1"] + params[f"{prefix}.ca_b1"]).relu()
        return hid @ params[f"{prefix}.ca_w2"] + params[f"{prefix}.ca_b2"]

    avg = x.mean(axis=(2, 3))
    mx = x.max(axis=(2, 3))
    gate = (mlp(avg) + mlp(mx)).sigmoid().reshape(n, c, 1, 1)
    x = x * gate
    desc = concat([x.mean(axis=1, keepdims=True), x.max(axis=1, keepdims=True)], axis=1)
    sgate = conv2d(desc, params[f"{prefix}.sa.w"], params[f"{prefix}.sa.b"],
                   padding=3).sigmoid()
    return x * sgate


def _stage(x, params, name, cfg, cbam_prefix=None, stride=2):
    """3x3 conv, instance norm, ReLU, then CBAM at cbam_prefix (if enabled)."""
    h = conv2d(x, params[f"{name}.w"], params[f"{name}.b"], stride=stride, padding=1)
    h = instance_norm(h)
    h = h.relu()
    if cbam_prefix and cfg.use_cbam:
        h = cbam(h, params, cbam_prefix)
    return h


def encode(stack: Tensor, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Stride-4 convolutional encoder; (N, 10, S, S) -> (N, C, S/4, S/4)."""
    if stack.ndim != 4 or stack.shape[1] != cfg.input_channels:
        raise ShapeError("encode", stack.shape,
                         (-1, cfg.input_channels, cfg.input_size, cfg.input_size))
    h = _stage(stack, params, "encoder.conv1", cfg, "encoder.cbam1")
    return _stage(h, params, "encoder.conv2", cfg, "encoder.cbam2")


def render_heatmaps(rows: Tensor, cols: Tensor, h: int, w: int, sigma: float,
                    dtype=np.float32):
    """Gaussian heatmaps from (N, k) cell-unit coordinates; peak value 1.

    Returns (heatmaps (N,k,h,w), combined (N,1,h,w)); differentiable in
    the coordinates. The combined map is the clamped sum over slots, so
    it is invariant to keypoint ordering.
    """
    n, k = rows.shape
    grid_r = Tensor(np.arange(h, dtype=dtype).reshape(1, 1, h, 1))
    grid_c = Tensor(np.arange(w, dtype=dtype).reshape(1, 1, 1, w))
    dr = grid_r - rows.reshape(n, k, 1, 1)
    dc = grid_c - cols.reshape(n, k, 1, 1)
    sq = dr * dr + dc * dc
    heat = (sq * (-1.0 / (2.0 * sigma * sigma))).exp()
    combined = heat.sum(axis=1, keepdims=True).clamp(0.0, 1.0)
    return heat, combined


def keynet(stack: Tensor, params: dict[str, Tensor], cfg: ModelConfig):
    """Keypoint regression: stride-4 trunk, k logit maps, spatial soft-argmax,
    then Gaussian heatmap rendering on the feature grid.

    Returns (coords (N,k,2) in cell units, heatmaps, combined).
    """
    if stack.ndim != 4 or stack.shape[1] != cfg.input_channels:
        raise ShapeError("keynet", stack.shape,
                         (-1, cfg.input_channels, cfg.input_size, cfg.input_size))
    h = _stage(stack, params, "keynet.conv1", cfg)
    h = _stage(h, params, "keynet.conv2", cfg)
    logits = conv2d(h, params["keynet.head.w"], params["keynet.head.b"])
    n, k, gh, gw = logits.shape
    prob = spatial_softmax(logits)
    dtype = stack.dtype
    grid_r = Tensor(np.arange(gh, dtype=dtype).reshape(1, 1, gh, 1))
    grid_c = Tensor(np.arange(gw, dtype=dtype).reshape(1, 1, 1, gw))
    rows = (prob * grid_r).sum(axis=(2, 3))
    cols = (prob * grid_c).sum(axis=(2, 3))
    heat, combined = render_heatmaps(rows, cols, gh, gw, cfg.heatmap_sigma, dtype)
    coords = concat([rows.reshape(n, k, 1), cols.reshape(n, k, 1)], axis=2)
    return coords, heat, combined


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


def refine(phi: Tensor, params: dict[str, Tensor], cfg: ModelConfig,
           prefix: str = "refine") -> Tensor:
    """Decoder: two upsample-2x stages back to input resolution, sigmoid
    output in [0, 1] with exactly input_channels channels. Pretraining
    runs the same decoder on its own parameters under another prefix."""
    if phi.ndim != 4 or phi.shape[1] != cfg.feature_channels:
        raise ShapeError("refine", phi.shape, (-1, cfg.feature_channels, -1, -1))
    h = upsample_nearest2x(phi)
    h = _stage(h, params, f"{prefix}.conv1", cfg, stride=1)
    h = upsample_nearest2x(h)
    h = conv2d(h, params[f"{prefix}.conv2.w"], params[f"{prefix}.conv2.b"], padding=1)
    return h.sigmoid()


def reconstruct(stack_s: Tensor, stack_t: Tensor, params: dict[str, Tensor],
                cfg: ModelConfig) -> Tensor:
    """Full transporter forward pass: encode both frames, locate keypoints,
    transport source features into target keypoint regions, refine."""
    phi_s = encode(stack_s, params, cfg)
    phi_t = encode(stack_t, params, cfg)
    _, _, comb_s = keynet(stack_s, params, cfg)
    _, _, comb_t = keynet(stack_t, params, cfg)
    return refine(transport(phi_s, phi_t, comb_s, comb_t), params, cfg)


def cell_to_pixel(cell: np.ndarray, stride: int) -> np.ndarray:
    """Feature-grid cell coordinate to image pixel, center-of-cell."""
    return cell * stride + stride / 2.0


def preprocess_frame(frame: np.ndarray, cfg: ModelConfig,
                     fusion_cfg: fusion.FusionConfig) -> np.ndarray:
    """Resize + optional TGA + feature stack, as fed to the network."""
    a = fusion_cfg.attenuation_a if cfg.use_tga else None
    prepared = fusion.prepare_frame(frame, cfg.input_size, a)
    if cfg.input_mode == "fused":
        return fusion.fuse(prepared, fusion_cfg)
    return fusion.norm_stack(prepared, cfg.input_channels)


def infer_keypoints(frame: np.ndarray, params: dict[str, Tensor], cfg: ModelConfig,
                    fusion_cfg: fusion.FusionConfig) -> np.ndarray:
    """Keypoints for one frame in image pixel coordinates, shape (k, 2)."""
    stack = preprocess_frame(frame, cfg, fusion_cfg)
    x = Tensor(stack[None].astype(np.float32))
    coords, _, _ = keynet(x, params, cfg)
    return cell_to_pixel(coords.data[0], cfg.feature_stride)


# -- checkpoints ------------------------------------------------------------

_CONFIG_RECORD = "__model_config__"
# v1 checkpoints end after `normalize`, so later slots load as defaults;
# `feature_stride` is written but not read; `normalize` is written as 1 and
# must read 1, because every stage runs instance norm; `input_mode` is its
# INPUT_MODES index
_CONFIG_FIELDS = ("k", "input_channels", "input_size", "feature_stride",
                  "heatmap_sigma", "use_cbam", "base_channels", "normalize",
                  "use_tga", "input_mode")


def save_model(path, params: dict[str, Tensor], cfg: ModelConfig):
    values = [True if f == "normalize" else getattr(cfg, f) for f in _CONFIG_FIELDS]
    header = np.array([INPUT_MODES.index(v) if isinstance(v, str) else float(v)
                       for v in values], dtype=np.float32)
    records = {_CONFIG_RECORD: header}
    records.update(params)
    save_tensors(path, records)


def load_model(path) -> tuple[dict[str, Tensor], ModelConfig]:
    """Parameters and config of a checkpoint; a malformed config record
    raises CheckpointError."""
    records = load_tensors(path)
    if _CONFIG_RECORD not in records:
        raise CheckpointError(f"{path}: missing model config record")
    vals = records.pop(_CONFIG_RECORD)
    if vals.shape not in ((8,), (len(_CONFIG_FIELDS),)):
        raise CheckpointError(f"{path}: model config record has shape {vals.shape}, "
                              f"expected 8 or {len(_CONFIG_FIELDS)} slots")
    types = get_type_hints(ModelConfig)
    kwargs = {}
    for name, v in zip(_CONFIG_FIELDS, vals):
        if name == "normalize" and v != 1:
            raise CheckpointError(f"{path}: checkpoint normalize slot {v} is not 1; "
                                  f"this model ran without instance norm")
        if name not in types:
            continue
        if not np.isfinite(v) or (types[name] is str and v not in range(len(INPUT_MODES))):
            raise CheckpointError(f"{path}: checkpoint {name} slot {v} is out of range")
        kwargs[name] = INPUT_MODES[int(v)] if types[name] is str else types[name](v)
    try:
        cfg = ModelConfig(**kwargs).validate()
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    params = {name: Tensor(arr, requires_grad=True) for name, arr in records.items()}
    return params, cfg


def check_keynet_params(params: dict[str, Tensor], cfg: ModelConfig, path):
    """Raise CheckpointError unless params holds every parameter keynet()
    reads, at the shape cfg gives it; a pretrained encoder holds none."""
    for name, p in init_params(cfg, np.random.default_rng(0)).items():
        if name.startswith("keynet.") and getattr(params.get(name), "shape", None) != p.shape:
            raise CheckpointError(f"{path}: no keynet parameter {name} of shape {p.shape}")


def check_config_match(loaded: ModelConfig, expected: ModelConfig,
                       fields=("k", "input_channels", "input_size", "use_tga", "input_mode")):
    """Reject checkpoint/config mismatches in `fields`, naming both values."""
    for f in fields:
        a, b = getattr(loaded, f), getattr(expected, f)
        if a != b:
            raise ValueError(f"checkpoint {f}={a} does not match configured {f}={b}")
