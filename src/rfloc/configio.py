"""Flat key = value configuration files, plus typed conversion into the
package's config dataclasses.

Format: one "key = value" per line, '#' starts a comment, blank lines are
ignored. Values are parsed according to the type of the dataclass field's
default, the types rfloc's configs have: int, float, a comma-separated
tuple of floats ("5.0,9.0"), or a semicolon-separated tuple of such pairs
("0,8;6.5,17.5"). A field of any other type, bool and str included, has
no parser.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import ConfigError


def read_kv(path) -> dict[str, str]:
    """The key = value pairs of a UTF-8 text file, read past a leading
    byte-order mark; an unreadable file, bytes that are not UTF-8 or a line
    without '=' raise ConfigError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot open config file {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from None
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        kv[key.strip()] = value.strip()
    return kv


def write_kv(path, mapping: dict, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for key, value in mapping.items():
            fh.write(f"{key} = {value}\n")


def parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def parse_float(text: str) -> float:
    """A finite float. NaN and infinity are refused here, because range
    checks such as `lr <= 0` are false for NaN and let it through."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def parse_float_tuple(text: str) -> tuple[float, ...]:
    try:
        return tuple(parse_float(part) for part in text.split(","))
    except ConfigError:
        raise ConfigError(f"expected comma-separated finite numbers, got {text!r}") from None


def parse_pair_tuple(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(parse_float_tuple(part) for part in text.split(";") if part.strip())


def _parser_for(default):
    # Exact types: a bool is an int too, and must not parse as one.
    if type(default) is tuple:
        return parse_pair_tuple if default and isinstance(default[0], tuple) else parse_float_tuple
    parser = {int: parse_int, float: parse_float}.get(type(default))
    if parser is None:
        raise ConfigError(f"no parser for config value of type {type(default).__name__}")
    return parser


def value_to_str(value) -> str:
    """Round-trippable textual form for manifests and config snapshots."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ";".join(",".join(repr(float(x)) for x in pair) for pair in value)
        return ",".join(repr(float(x)) for x in value)
    return str(value)


def kv_to_dataclass(cls, kv: dict[str, str]):
    """Build a config dataclass from string values, rejecting unknown keys."""
    defaults = cls()
    values = {}
    names = {f.name for f in dataclasses.fields(cls)}
    for key, text in kv.items():
        if key not in names:
            raise ConfigError(f"unknown config key {key!r} for {cls.__name__}")
        parser = _parser_for(getattr(defaults, key))
        try:
            values[key] = parser(text)
        except ConfigError as e:
            raise ConfigError(f"config key {key!r}: {e}") from None
    return dataclasses.replace(defaults, **values)


def dataclass_to_kv(cfg) -> dict[str, str]:
    return {
        f.name: value_to_str(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)
    }
