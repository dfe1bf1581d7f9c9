"""Plain-text key=value run configuration.

One key per line, `#` comments, unknown keys rejected with file/line
diagnostics. Command-line overrides are applied after the file, later
wins. parse -> serialize -> parse is a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields

from .evaluate import DEFAULT_DELTA
from .fusion import FusionConfig
from .model import ModelConfig
from .synth import BLineSpec, SceneSpec
from .train import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    fusion: FusionConfig = field(default_factory=FusionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    scene: SceneSpec = field(default_factory=SceneSpec)
    seed: int = 0
    pair_count: int = 200
    delta: float = DEFAULT_DELTA

    def validate(self):
        try:
            self.fusion.validate()
            self.model.validate()
            self.train.validate()
            self.scene.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.pair_count < 1:
            raise ConfigError(f"pair_count must be >= 1, got {self.pair_count}")
        # one global seed drives every seeded stage
        self.train.seed = self.seed
        self.scene.seed = self.seed
        self.model.cbam_enabled = self.train.use_cbam
        return self


def _parse_bool(v: str) -> bool:
    lv = v.lower()
    if lv in ("true", "1", "yes", "on"):
        return True
    if lv in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _parse_lambdas(v: str):
    return tuple(float(x) for x in v.split(","))


def _format_lambdas(lam) -> str:
    return ",".join(repr(float(x)) for x in lam)


def _parse_b_lines(v: str):
    if not v.strip():
        return ()
    specs = []
    for part in v.split(";"):
        vals = [float(x) for x in part.split(":")]
        if len(vals) != 4:
            raise ValueError(f"b_line entry needs col:drift:width:brightness, got {part!r}")
        specs.append(BLineSpec(*vals))
    return tuple(specs)


def _format_b_lines(b_lines) -> str:
    return ";".join(f"{b.column!r}:{b.drift!r}:{b.width!r}:{b.brightness!r}"
                    for b in b_lines)


# key -> (section attr or None for top level, field, parse, format)
_KEYS = {
    # fusion
    "sigma0": ("fusion", "sigma0", float, repr),
    "lambdas": ("fusion", "lambdas", _parse_lambdas, _format_lambdas),
    "thresh": ("fusion", "thresh", float, repr),
    "epsilon": ("fusion", "epsilon", float, repr),
    "attenuation_a": ("fusion", "attenuation_a", float, repr),
    "energy_denominator_mode": ("fusion", "energy_denominator_mode", str, str),
    # model
    "k": ("model", "k", int, repr),
    "input_size": ("model", "input_size", int, repr),
    "feature_stride": ("model", "feature_stride", int, repr),
    "heatmap_sigma": ("model", "heatmap_sigma", float, repr),
    "base_channels": ("model", "base_channels", int, repr),
    # train
    "epochs": ("train", "epochs", int, repr),
    "batch_size": ("train", "batch_size", int, repr),
    "lr0": ("train", "lr0", float, repr),
    "lr_decay": ("train", "lr_decay", float, repr),
    "lr_interval": ("train", "lr_interval", int, repr),
    "ssim_threshold": ("train", "ssim_threshold", float, repr),
    "max_pair_gap": ("train", "max_pair_gap", int, repr),
    "use_tga": ("train", "use_tga", _parse_bool, lambda b: str(bool(b)).lower()),
    "use_ssim_gate": ("train", "use_ssim_gate", _parse_bool, lambda b: str(bool(b)).lower()),
    "use_cbam": ("train", "use_cbam", _parse_bool, lambda b: str(bool(b)).lower()),
    "input_mode": ("train", "input_mode", str, str),
    "pair_retry_factor": ("train", "pair_retry_factor", int, repr),
    "pretrain_epochs": ("train", "pretrain_epochs", int, repr),
    "checkpoint_every": ("train", "checkpoint_every", int, repr),
    # scene
    "frames": ("scene", "frames", int, repr),
    "size": ("scene", "size", int, repr),
    "pleura_depth": ("scene", "pleura_depth", float, repr),
    "amplitude": ("scene", "amplitude", float, repr),
    "frequency": ("scene", "frequency", float, repr),
    "pleura_brightness": ("scene", "pleura_brightness", float, repr),
    "pleura_thickness": ("scene", "pleura_thickness", float, repr),
    "a_line_count": ("scene", "a_line_count", int, repr),
    "a_line_decay": ("scene", "a_line_decay", float, repr),
    "speckle_strength": ("scene", "speckle_strength", float, repr),
    "b_lines": ("scene", "b_lines", _parse_b_lines, _format_b_lines),
    "b_line_wrap": ("scene", "b_line_wrap", _parse_bool, lambda b: str(bool(b)).lower()),
    # top level
    "seed": (None, "seed", int, repr),
    "pair_count": (None, "pair_count", int, repr),
    "delta": (None, "delta", float, repr),
}


def apply_setting(cfg: RunConfig, key: str, value: str, where: str = "<override>"):
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    section, fname, parse, _ = _KEYS[key]
    try:
        parsed = parse(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
    target = cfg if section is None else getattr(cfg, section)
    setattr(target, fname, parsed)


def parse_config(text: str, source: str = "<config>",
                 cfg: RunConfig | None = None) -> RunConfig:
    if cfg is None:
        cfg = RunConfig()
    unknown = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key not in _KEYS:
            unknown.append(f"{key!r} (line {lineno})")
            continue
        apply_setting(cfg, key, value.strip(), f"{source}:{lineno}")
    if unknown:
        raise ConfigError(f"{source}: unknown config keys: " + ", ".join(unknown))
    return cfg


def load_config(path=None, overrides=()) -> RunConfig:
    """Defaults, then the file at `path` (if any), then key=value overrides."""
    cfg = RunConfig()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        cfg = parse_config(text, source=str(path))
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override must be key=value, got {item!r}")
        apply_setting(cfg, key.strip(), value.strip())
    return cfg.validate()


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for key, (section, fname, _, fmt) in _KEYS.items():
        target = cfg if section is None else getattr(cfg, section)
        lines.append(f"{key}={fmt(getattr(target, fname))}")
    return "\n".join(lines) + "\n"
