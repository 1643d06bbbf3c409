"""Default tracking parameters and the JSON config file loader.

Defaults are per class. The score threshold additionally depends on the
tracking mode (vehicles use a lower threshold in image space than in world
space); everything else is mode-independent. A config file may override any
subset of fields; unknown keys are rejected rather than ignored so typos
fail loudly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigError
from .kalman import Noise2D, Noise3D
from .types import ClassConfig, Mode, ObjectClass

_CLASS_DEFAULTS: dict[ObjectClass, dict[str, float]] = {
    ObjectClass.PEDESTRIAN: dict(
        t_a=0.15,
        max_iou_dist_front=0.95,
        max_iou_dist_front_lr=0.97,
        max_iou_dist_side=0.99,
        sigma=1.5,
        max_center_dist=0.7,
    ),
    ObjectClass.VEHICLE: dict(
        t_a=0.06,
        max_iou_dist_front=0.90,
        max_iou_dist_front_lr=0.93,
        max_iou_dist_side=0.95,
        sigma=5.0,
        max_center_dist=0.5,
    ),
    ObjectClass.CYCLIST: dict(
        t_a=0.15,
        max_iou_dist_front=0.95,
        max_iou_dist_front_lr=0.97,
        max_iou_dist_side=0.99,
        sigma=3.0,
        max_center_dist=0.9,
    ),
}

_T_S_2D = {
    ObjectClass.PEDESTRIAN: 0.5,
    ObjectClass.VEHICLE: 0.4,
    ObjectClass.CYCLIST: 0.5,
}
_T_S_3D = {
    ObjectClass.PEDESTRIAN: 0.5,
    ObjectClass.VEHICLE: 0.5,
    ObjectClass.CYCLIST: 0.5,
}

def default_class_configs(mode: Mode | str = Mode.D2) -> dict[ObjectClass, ClassConfig]:
    """Fully populated per-class defaults for the given mode."""
    mode = Mode(mode)
    t_s = _T_S_2D if mode is Mode.D2 else _T_S_3D
    return {
        cls: ClassConfig(t_s=t_s[cls], **params)
        for cls, params in _CLASS_DEFAULTS.items()
    }


@dataclass(frozen=True)
class TrackerConfig:
    """Everything the pipeline needs: mode, per-class parameters, filter noise."""

    mode: Mode
    class_configs: dict[ObjectClass, ClassConfig]
    noise_2d: Noise2D
    noise_3d: Noise3D


def _require_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def coerce_scalar(value: Any, path: str, kind: type = float) -> Any:
    """Check one decoded JSON scalar against ``kind`` (float, int, bool or str).

    Booleans never pass as numbers, and floats must be finite (JSON
    decoders accept NaN and Infinity). Errors name ``path``.
    """
    if kind is bool or kind is str:
        if not isinstance(value, kind):
            name = "a boolean" if kind is bool else "a string"
            raise ConfigError(f"{path}: expected {name}, got {value!r}")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


# Annotations are strings under ``from __future__ import annotations``.
_SCALAR_KINDS = {"int": int, "bool": bool, "float": float, "str": str}


def scalar_fields(cls: type) -> dict[str, type]:
    """Kind (int, bool, float or str) of each field of the dataclass ``cls``
    annotated as one of those types, by field name, for :func:`coerce_scalar`."""
    return {f.name: _SCALAR_KINDS[f.type]
            for f in dataclasses.fields(cls) if f.type in _SCALAR_KINDS}


def _merge_dataclass(base: Any, overrides: Mapping[str, Any], path: str) -> Any:
    """``base`` with the fields named in ``overrides`` replaced, each value
    checked by :func:`coerce_scalar`."""
    kinds = scalar_fields(type(base))
    updates = {}
    for key, value in _require_mapping(overrides, path).items():
        if key not in kinds:
            raise ConfigError(f"{path}: unknown key {key!r}")
        updates[key] = coerce_scalar(value, f"{path}.{key}", kinds[key])
    try:
        return dataclasses.replace(base, **updates)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def parse_config(data: Mapping[str, Any], mode: Mode | str | None = None) -> TrackerConfig:
    """Build a TrackerConfig from decoded JSON, filling gaps with defaults.

    ``mode`` supplies the tracking mode when the file does not name one; if
    both are present they must agree.
    """
    _require_mapping(data, "config")
    allowed = {"mode", "classes", "kalman"}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"config: unknown key {key!r}")

    file_mode: Mode | None = None
    if "mode" in data:
        try:
            file_mode = Mode(data["mode"])
        except ValueError:
            raise ConfigError(f"config.mode: expected '2d' or '3d', got {data['mode']!r}") from None
    if mode is not None:
        mode = Mode(mode)
        if file_mode is not None and file_mode is not mode:
            raise ConfigError(
                f"config.mode {file_mode.value!r} contradicts requested mode {mode.value!r}"
            )
    resolved_mode = mode or file_mode
    if resolved_mode is None:
        raise ConfigError("config: no mode given (set 'mode' in the file or pass one)")

    class_configs = default_class_configs(resolved_mode)
    class_blocks = _require_mapping(data.get("classes", {}), "config.classes")
    for name, block in class_blocks.items():
        try:
            cls = ObjectClass(name)
        except ValueError:
            raise ConfigError(f"config.classes: unknown class {name!r}") from None
        class_configs[cls] = _merge_dataclass(
            class_configs[cls], block, f"config.classes.{name}"
        )

    noise_2d = Noise2D()
    noise_3d = Noise3D()
    kalman_block = _require_mapping(data.get("kalman", {}), "config.kalman")
    for key in kalman_block:
        if key not in ("noise_2d", "noise_3d"):
            raise ConfigError(f"config.kalman: unknown key {key!r}")
    if "noise_2d" in kalman_block:
        noise_2d = _merge_dataclass(noise_2d, kalman_block["noise_2d"], "config.kalman.noise_2d")
    if "noise_3d" in kalman_block:
        noise_3d = _merge_dataclass(noise_3d, kalman_block["noise_3d"], "config.kalman.noise_3d")

    return TrackerConfig(resolved_mode, class_configs, noise_2d, noise_3d)


def load_config(path: str | Path | None, mode: Mode | str | None = None) -> TrackerConfig:
    """Read a JSON config file; ``path=None`` means all defaults."""
    if path is None:
        return parse_config({}, mode=mode)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(data, mode=mode)
