"""Typed field readers for JSON config objects.

The CLI handlers and CollapseConfig.from_json read their fields through
these, so one rule holds everywhere: a number is a finite int or float, an
integer is an int, and a bool is neither.  A field of the wrong kind raises
ConfigError naming the key, and so does a key the reader does not know.
read_rows, the reader of number tables, passes entries beyond the float
range on as inf, for the geometry checks to reject.
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


def _to_float(v) -> float:
    try:
        return float(v)
    except OverflowError:           # an int beyond the float range
        return math.inf


def read_number(cfg: dict, key: str, default=_REQUIRED) -> float:
    if key not in cfg:
        return _default(key, default)
    v = cfg[key]
    if not (is_int(v) or isinstance(v, float)):
        raise ConfigError(f"config key {key!r} must be a number")
    x = _to_float(v)
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


def read_rows(cfg: dict, key: str) -> list:
    """A non-empty list of non-empty rows of numbers, all of one length, as
    nested lists of floats.  An entry beyond the float range (1e400, or an
    int too large) becomes inf and is left to the caller's checks."""
    if key not in cfg:
        return _default(key, _REQUIRED)
    rows = cfg[key]
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) and row for row in rows)
            and len({len(row) for row in rows}) == 1
            and all(is_int(v) or isinstance(v, float)
                    for row in rows for v in row)):
        raise ConfigError(f"config key {key!r} must be a non-empty list of "
                          f"equal-length rows of numbers")
    return [[_to_float(v) for v in row] for row in rows]
