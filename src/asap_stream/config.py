"""Flat dotted-key configuration: defaults, file parsing, and builders.

A config is a flat mapping of dotted keys to values; config files use
one ``key = value`` pair per line with ``#`` comments. Precedence is
command-line flag > config-file key > built-in default. Apart from the
``source.*`` keys, each key, default and type is declared once, as a
field of a settings dataclass (:class:`PipelineConfig` and the sections
it holds); the keys and the builder are derived from those fields.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass
from decimal import Decimal, InvalidOperation
from typing import Any, Callable, Mapping

from .errors import ConfigurationError
from .events import (ConstantRateSource, RampRateSource, SensorGeometry,
                     StreamSource, read_event_file)
from .pipeline import PipelineConfig

#: Keys whose names differ from the dotted paths of their fields.
_KEY_NAMES = {"gamma.a_evps": "gamma.a", "gamma.gamma_min": "gamma.min",
              "input_buffer_capacity": "pipeline.input_buffer_capacity"}


def _settings(value_of: Callable[[str, Any], Any], cls: type = PipelineConfig,
              prefix: str = "") -> Any:
    """``cls`` built from ``value_of(key, field default)`` for each of its
    fields, keyed by the field's dotted path (or its ``_KEY_NAMES``
    name); a field holding a settings dataclass is built the same way
    from the keys under its name."""
    values = {}
    for f in fields(cls):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        path = prefix + f.name
        values[f.name] = (_settings(value_of, type(default), path + ".")
                          if is_dataclass(default)
                          else value_of(_KEY_NAMES.get(path, path), default))
    return cls(**values)


#: Every config key and its default: the ``source.*`` keys, then one per
#: settings field. A value parses to the type of its key's default.
DEFAULTS: dict[str, Any] = {
    "source.kind": "constant",          # constant | ramp | file
    "source.rate_evps": 1e6,
    "source.rate_start_evps": 1e5,
    "source.rate_end_evps": 1e7,
    "source.duration_s": 1.0,
    "source.path": "",
    "source.chunk_events": 65536,
}
_settings(DEFAULTS.setdefault)

#: Bundled scenarios: named key overlays at config-file precedence.
SCENARIOS: dict[str, dict[str, Any]] = {
    # abrupt-motion analogue: ramping rate that crosses the discard bound
    "fig3": {
        "source.kind": "ramp",
        "source.rate_start_evps": 1e5,
        "source.rate_end_evps": 1e7,
        "source.duration_s": 5.0,
        "consumer.o_us": 1000.0,
        "consumer.c_ns": 100.0,
    },
    # steady-flight analogue: constant rate below the bound, lag stays negative
    "fig4": {
        "source.kind": "constant",
        "source.rate_evps": 1e6,
        "source.duration_s": 2.0,
        "consumer.o_us": 10_000.0,
        "consumer.c_ns": 100.0,
        # timeout must exceed the synchronization span (~12 ms here),
        # otherwise every package is a premature timeout cut
        "packager.timeout_us": 50_000,
    },
    "constant": {},
    "ramp": {
        "source.kind": "ramp",
        "source.duration_s": 5.0,
    },
}


#: Bounds of an integer key: those of an int64 event timestamp.
_INT_MIN, _INT_MAX = -2**63, 2**63 - 1


def _integer(key: str, raw: str) -> int:
    """``raw`` as a whole number within the int64 bounds, written as
    digits or in decimal or exponent form (``1e3``); parsed exactly, so
    a fraction is rejected rather than truncated."""
    try:
        value = Decimal(raw)
    except InvalidOperation:
        raise ValueError(raw) from None
    if not value.is_finite() or value != value.to_integral_value():
        raise ConfigurationError(
            f"{key} must be an integer, got {raw!r}", key=key)
    if not _INT_MIN <= value <= _INT_MAX:
        raise ConfigurationError(
            f"{key} must lie in [{_INT_MIN}, {_INT_MAX}], got {raw!r}",
            key=key)
    return int(value)


def _coerce(key: str, raw: str) -> Any:
    """Parse a raw string into the type implied by the key's default."""
    default = DEFAULTS[key]
    try:
        if isinstance(default, int):
            return _integer(key, raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError:
        raise ConfigurationError(
            f"invalid value for {key}: {raw!r}", key=key) from None


def parse_overrides(pairs: Mapping[str, str] | list[str]) -> dict[str, Any]:
    """Parse ``key=value`` strings (or a mapping of raw strings)."""
    items = (pairs.items() if isinstance(pairs, Mapping)
             else (p.split("=", 1) for p in pairs))
    out: dict[str, Any] = {}
    for entry in items:
        if len(entry) != 2:
            raise ConfigurationError(
                f"override must be key=value, got {'='.join(entry)!r}")
        key, raw = entry[0].strip(), entry[1].strip()
        if key not in DEFAULTS:
            raise ConfigurationError(f"unknown config key: {key}", key=key)
        out[key] = _coerce(key, raw)
    return out


def parse_config_file(path) -> dict[str, Any]:
    """Parse a flat ``key = value`` config file."""
    out: dict[str, Any] = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigurationError(
            f"cannot read config file {path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigurationError(
                f"{path}:{lineno}: unknown config key: {key}", key=key)
        out[key] = _coerce(key, value)
    return out


def merge(*layers: Mapping[str, Any]) -> dict[str, Any]:
    """Overlay config layers, later layers winning, over the defaults."""
    cfg = dict(DEFAULTS)
    for layer in layers:
        cfg.update(layer)
    return cfg


def build_pipeline_config(cfg: Mapping[str, Any]) -> PipelineConfig:
    pc = _settings(lambda key, default: (
        int(cfg[key]) if isinstance(default, int) else cfg[key]))
    pc.validate()
    return pc


def build_source(cfg: Mapping[str, Any]) -> StreamSource:
    geometry = SensorGeometry(width=int(cfg["geometry.width"]),
                              height=int(cfg["geometry.height"]))
    kind = cfg["source.kind"]
    seed = int(cfg["seed"])
    chunk = int(cfg["source.chunk_events"])
    if kind == "constant":
        return ConstantRateSource(cfg["source.rate_evps"],
                                  cfg["source.duration_s"], geometry, seed, chunk)
    if kind == "ramp":
        return RampRateSource(cfg["source.rate_start_evps"],
                              cfg["source.rate_end_evps"],
                              cfg["source.duration_s"], geometry, seed, chunk)
    if kind == "file":
        path = cfg["source.path"]
        if not path:
            raise ConfigurationError(
                "source.path is required for source.kind=file",
                key="source.path")
        try:
            return read_event_file(path, geometry, chunk)
        except OSError as exc:
            reason = exc.strerror or str(exc)
        except UnicodeDecodeError:
            reason = "not UTF-8 text"
        raise ConfigurationError(f"cannot read event file {path}: {reason}",
                                 key="source.path")
    raise ConfigurationError(
        f"source.kind must be constant, ramp, or file, got {kind!r}",
        key="source.kind")
