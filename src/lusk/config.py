"""Plain-text key=value run configuration.

One key per line, `#` comments, unknown keys rejected with file/line
diagnostics. Command-line overrides are applied after the file, later
wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass
from typing import get_type_hints

from .fusion import FusionConfig
from .model import ModelConfig
from .synth import BLineSpec, SceneSpec, finite_float
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
        if len(self.fusion.lambdas) != self.model.input_channels:
            raise ConfigError(f"lambdas has {len(self.fusion.lambdas)} wavelengths, but "
                              f"the network takes {self.model.input_channels} channels")
        # one global seed drives every seeded stage
        self.train.seed = self.seed
        self.scene.seed = self.seed
        return self


def _parse_bool(v: str) -> bool:
    lv = v.lower()
    if lv in ("true", "1", "yes", "on"):
        return True
    if lv in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _parse_lambdas(v: str):
    return tuple(finite_float(x) for x in v.split(","))


def _parse_b_lines(v: str):
    if not v.strip():
        return ()
    specs = []
    for part in v.split(";"):
        vals = [finite_float(x) for x in part.split(":")]
        if len(vals) != 4:
            raise ValueError(f"b_line entry needs col:drift:width:brightness, got {part!r}")
        specs.append(BLineSpec(*vals))
    return tuple(specs)


_PARSERS = {int: int, float: finite_float, str: str, bool: _parse_bool}
# tuple fields each have their own parser
_FIELD_PARSERS = {"lambdas": _parse_lambdas, "b_lines": _parse_b_lines}

# Section fields the program sets itself, never read from a config:
_INTERNAL = {"seed"}  # copied from the top-level seed by RunConfig.validate


def _build_keys():
    """key -> (section attr or None for top level, parse). Each key is
    named after its dataclass field and parsed by the field's annotation."""
    entries = []
    for name, hint in get_type_hints(RunConfig).items():
        if is_dataclass(hint):
            entries += [(key, name, h) for key, h in get_type_hints(hint).items()
                        if key not in _INTERNAL]
        else:
            entries.append((name, None, hint))
    keys = {key: (section, _FIELD_PARSERS.get(key) or _PARSERS[hint])
            for key, section, hint in entries}
    if len(keys) != len(entries):
        raise TypeError("a config key is declared in two sections")
    return keys


_KEYS = _build_keys()


def apply_setting(cfg: RunConfig, key: str, value: str, where: str = "<override>"):
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    section, parse = _KEYS[key]
    try:
        parsed = parse(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
    setattr(cfg if section is None else getattr(cfg, section), key, parsed)


def parse_config(text: str, source: str = "<config>") -> RunConfig:
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
