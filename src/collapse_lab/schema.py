"""Typed field readers for JSON config objects.

The CLI handlers and CollapseConfig.from_json read their fields through
these, so one rule holds everywhere: a number is a finite int or float, an
integer is an int, and a bool is neither.  A field of the wrong kind raises
ConfigError naming the key, and so does a key the reader does not know.
"""

from __future__ import annotations

import math

from .errors import ConfigError

_REQUIRED = object()


def _default(key: str, default):
    if default is _REQUIRED:
        raise ConfigError(f"missing config key {key!r}")
    return default


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def check_keys(cfg: dict, allowed) -> None:
    """Reject keys outside the allowed set, naming them: a misspelled key
    would otherwise be ignored and its default used silently."""
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError("unknown config key " +
                          ", ".join(map(repr, unknown)))


def read_number(cfg: dict, key: str, default=_REQUIRED) -> float:
    if key not in cfg:
        return _default(key, default)
    v = cfg[key]
    if not (is_int(v) or isinstance(v, float)):
        raise ConfigError(f"config key {key!r} must be a number")
    try:
        x = float(v)
    except OverflowError:           # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"config key {key!r} must be finite")
    return x


def read_int(cfg: dict, key: str, default=_REQUIRED) -> int:
    if key not in cfg:
        return _default(key, default)
    if not is_int(cfg[key]):
        raise ConfigError(f"config key {key!r} must be an integer")
    return cfg[key]


def read_str(cfg: dict, key: str, default=_REQUIRED) -> str:
    if key not in cfg:
        return _default(key, default)
    if not isinstance(cfg[key], str):
        raise ConfigError(f"config key {key!r} must be a string")
    return cfg[key]
