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


@dataclass(frozen=True)
class RunConfig:
    fusion: FusionConfig = field(default_factory=FusionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    scene: SceneSpec = field(default_factory=SceneSpec)
    pair_count: int = 200

    def __post_init__(self):
        if self.pair_count < 1:
            raise ConfigError(f"pair_count must be >= 1, got {self.pair_count}")
        if len(self.fusion.lambdas) != self.model.input_channels:
            raise ConfigError(f"lambdas has {len(self.fusion.lambdas)} wavelengths, but "
                              f"the network takes {self.model.input_channels} channels")


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

# section attr -> its dataclass, in RunConfig field order
_SECTIONS = {name: hint for name, hint in get_type_hints(RunConfig).items() if is_dataclass(hint)}
# the one key that more than one section declares: it sets each of them
_SHARED = {"seed"}


def _build_keys():
    """key -> (the RunConfig section attrs it sets, None meaning the top
    level; its parser). Each key is named after its dataclass field and
    parsed by the field's annotation."""
    keys = {}
    for name, hint in get_type_hints(RunConfig).items():
        section = name if name in _SECTIONS else None
        for key, h in (get_type_hints(hint) if section else {name: hint}).items():
            if key in keys and key not in _SHARED:
                raise TypeError(f"config key {key!r} is declared in two sections")
            sections = keys[key][0] if key in keys else ()
            keys[key] = ((*sections, section), _FIELD_PARSERS.get(key) or _PARSERS[h])
    return keys


_KEYS = _build_keys()


def parse_setting(key: str, value: str, where: str = "<override>"):
    """The value of one key=value setting, parsed by its key's parser."""
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    try:
        return _KEYS[key][1](value)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc


def parse_config(text: str, source: str = "<config>") -> dict:
    """key -> parsed value of each setting in `text`, later lines winning."""
    values = {}
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
        values[key] = parse_setting(key, value.strip(), f"{source}:{lineno}")
    if unknown:
        raise ConfigError(f"{source}: unknown config keys: " + ", ".join(unknown))
    return values


def load_config(path=None, overrides=()) -> RunConfig:
    """Defaults, then the file at `path` (if any), then key=value overrides,
    built into one RunConfig; each section checks itself as it is built."""
    values = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        values = parse_config(text, source=str(path))
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override must be key=value, got {item!r}")
        values[key.strip()] = parse_setting(key.strip(), value.strip())
    grouped = {name: {} for name in (*_SECTIONS, None)}
    for key, value in values.items():
        for section in _KEYS[key][0]:
            grouped[section][key] = value
    top = grouped.pop(None)
    try:
        sections = {name: section(**grouped[name]) for name, section in _SECTIONS.items()}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(**sections, **top)
