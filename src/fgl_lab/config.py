"""Configuration parsing for the command-line interface.

Config files are flat ``key = value`` text with one section per module
(INI syntax, ``#``/``;`` comments).  Every section and key must be known:
a typo is a hard error, never silently ignored.  Command-line overrides
use dotted keys (``--grid.points 2048``) and win over file values.
"""

from __future__ import annotations

import configparser
import math
import os
from typing import Any, Mapping

from .errors import ConfigError

__all__ = [
    "SCHEMA",
    "COMMAND_SECTIONS",
    "coerce_value",
    "load_config",
    "parse_overrides",
    "resolve",
]


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_float_list(text: str) -> tuple:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise ValueError("empty list")
    return tuple(_parse_float(p) for p in parts)


def _parse_choice(*choices: str):
    def parse(text: str) -> str:
        low = text.strip().lower()
        if low not in choices:
            raise ValueError(f"expected one of {choices}, got {text!r}")
        return low

    return parse


# section -> key -> (parser, default)
SCHEMA: dict[str, dict[str, tuple[Any, Any]]] = {
    "grid": {
        "half_length": (_parse_float, 50.0),
        "points": (int, 1024),
    },
    "weights": {
        "exponent": (_parse_float, 1.0),
        "scale": (_parse_float, 1.0),
    },
    "evolution": {
        "p": (_parse_float, 2.0),
        "profile": (_parse_choice("gaussian", "constant"), "gaussian"),
        "amplitude": (_parse_float, 2.0),
        "width": (_parse_float, 1.0),
        "t_max": (_parse_float, 5.0),
        "dt_max": (_parse_float, 0.05),
    },
    "ode": {
        "c1": (_parse_float, 1.0),
        "c2": (_parse_float, 1.0),
        "q": (_parse_float, 2.0),
        "f0": (_parse_float, 2.0),
    },
    "kernel": {
        "num_nodes": (int, 12800),
    },
    "sweep": {
        "r_values": (_parse_float_list, (1.0, 2.0, 4.0, 8.0)),
    },
}

# Sections each command consumes (and therefore materializes).
COMMAND_SECTIONS: dict[str, tuple[str, ...]] = {
    "simulate": ("grid", "weights", "evolution"),
    "sweep": ("grid", "evolution", "sweep"),
    "ode": ("ode",),
    "commutator": ("grid", "weights"),
    "kernel": ("kernel",),
    "threshold": ("grid", "weights", "evolution"),
    "bounds": ("grid", "weights", "evolution"),
}


def coerce_value(section: str, key: str, text: str):
    """Parse a raw string according to the schema, with a precise error."""
    try:
        parser, _ = SCHEMA[section][key]
    except KeyError:
        raise ConfigError(f"unknown config key [{section}] {key}") from None
    try:
        return parser(str(text).strip())
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}") from None


def load_config(path: str | None) -> dict[str, dict[str, Any]]:
    """Read a config file into {section: {key: typed value}}.

    A missing file, an unknown section, or an unknown key is a hard
    ConfigError naming the offender.  ``path=None`` means no file.
    """
    if path is None:
        return {}
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        interpolation=None,
        delimiters=("=",),
        inline_comment_prefixes=("#", ";"),
    )
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"config file {path} does not parse: {exc}") from None
    if parser.defaults():
        raise ConfigError(
            f"config file {path} has keys outside any section "
            "(or a [DEFAULT] section); every key needs a module section"
        )
    out: dict[str, dict[str, Any]] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}] in {path}")
        for key, raw in parser.items(section):
            out.setdefault(section, {})[key] = coerce_value(section, key, raw)
    return out


def parse_overrides(tokens: list[str]) -> dict[str, dict[str, Any]]:
    """Parse ``--section.key value`` pairs left over from the flag parser."""
    out: dict[str, dict[str, Any]] = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--") or "." not in tok:
            raise ConfigError(
                f"unrecognized argument {tok!r}; overrides look like "
                "--section.key value"
            )
        if i + 1 >= len(tokens):
            raise ConfigError(f"override {tok!r} is missing a value")
        section, _, key = tok[2:].partition(".")
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        out.setdefault(section, {})[key] = coerce_value(section, key, tokens[i + 1])
        i += 2
    return out


def resolve(
    command: str,
    file_values: Mapping[str, Mapping[str, Any]],
    overrides: Mapping[str, Mapping[str, Any]],
) -> dict[str, dict[str, Any]]:
    """Merge defaults <- file <- overrides for the command's sections."""
    if command not in COMMAND_SECTIONS:
        raise ConfigError(f"unknown command {command!r}")
    sections: dict[str, dict[str, Any]] = {}
    for section in COMMAND_SECTIONS[command]:
        merged = {key: default for key, (_, default) in SCHEMA[section].items()}
        merged.update(file_values.get(section, {}))
        merged.update(overrides.get(section, {}))
        sections[section] = merged
    for section in overrides:
        if section not in COMMAND_SECTIONS[command]:
            raise ConfigError(
                f"section [{section}] is not used by command {command!r}"
            )
    return sections
