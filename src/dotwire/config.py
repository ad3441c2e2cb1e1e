"""Command options and the INI configuration for the command-line interface.

OPTIONS declares every option of every command once: its underscored key,
its kind, its default and its help text. The parser's flags, the INI
schema and the defaults all come from it.

A config file provides per-command defaults; command-line flags override it.
Sections are command names, keys are the underscored option names. Unknown
sections or keys are rejected rather than ignored, so typos fail loudly:

    [spectrum]
    kd = 0.7853981633974483, 1.1780972450961724
    n_points = 601

    [storage]
    pulse_ratio = 5, 10, 20, 50
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

__all__ = ["Option", "OPTIONS", "load_config"]


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _float_list(text: str) -> list[float]:
    items = [p for chunk in text.split(",") for p in chunk.split()]
    if not items:
        raise ConfigError("expected at least one number")
    return [_float(p) for p in items]


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


_PARSERS = {"float": _float, "int": _int, "floats": _float_list, "flag": _bool}


@dataclass(frozen=True)
class Option:
    """One command option, --key-with-dashes on the command line.

    kind is "float", "int", "floats" (a list; the flag repeats), "flag" (a
    bare flag sets True) or "choice" (one of choices).
    """

    key: str
    kind: str
    default: object
    help: str | None = None
    choices: tuple[str, ...] = ()

    def parse(self, text: str) -> object:
        """Parse an INI value; ConfigError when it is malformed."""
        if self.kind != "choice":
            return _PARSERS[self.kind](text)
        if text not in self.choices:
            raise ConfigError(
                f"expected one of {', '.join(self.choices)}, got {text!r}"
            )
        return text


OPTIONS: dict[str, tuple[Option, ...]] = {
    "spectrum": (
        Option("kd", "floats", (0.25 * math.pi, 2.0 * math.pi),
               "emitter spacing phase; repeatable"),
        Option("gamma0", "float", 0.025,
               "free-space radiative rate of each emitter"),
        Option("gamma_nr", "floats", (0.025, 0.125, 0.5),
               "non-radiative rate; repeatable (one file per value)"),
        Option("sr", "choice", "on", "include the collective emission term",
               choices=("off", "on", "both")),
        Option("single_dot", "flag", False,
               "emit only the single-emitter reference spectrum"),
        Option("gamma_prime", "float", 0.05,
               "total loss rate for the single-emitter reference"),
        Option("delta_min", "float", -3.0),
        Option("delta_max", "float", 3.0),
        Option("n_points", "int", 601),
    ),
    "peaks": (
        Option("kd_min", "float", 0.55 * math.pi),
        Option("kd_max", "float", 1.45 * math.pi),
        Option("n_kd", "int", 46),
        Option("gamma0", "float", 0.025),
        Option("gamma_nr", "float", 0.025),
        Option("bracket_lo", "float", -3.0),
        Option("bracket_hi", "float", 3.0),
    ),
    "concurrence-map": (
        Option("kd_min", "float", 0.6 * math.pi),
        Option("kd_max", "float", 2.4 * math.pi),
        Option("n_kd", "int", 91),
        Option("delta_min", "float", -2.0),
        Option("delta_max", "float", 2.0),
        Option("n_delta", "int", 81),
        Option("gamma_nr", "float", 0.0,
               "whole loss rate of each emitter (the map has no collective "
               "term)"),
    ),
    "phase": (
        Option("gamma_prime", "floats", (0.0, 0.025, 0.125),
               "total loss rate; repeatable"),
        Option("delta_min", "float", -2.0),
        Option("delta_max", "float", 2.0),
        Option("n_points", "int", 401),
        Option("kd_policy", "choice", "even", choices=("even", "odd")),
    ),
    "oracle-verify": (
        Option("quick", "flag", False,
               "three spot points instead of the full matrix"),
        Option("tolerance", "float", 1e-3),
        Option("sigma_k", "float", 0.02, "probe packet spectral width"),
    ),
    "storage": (
        Option("pulse_ratio", "floats", (5.0, 10.0, 20.0, 50.0),
               "P, the bright excited state's decay rate into the guide "
               "over its decay rate outside it (P > 1); repeatable"),
        Option("sigma_t", "float", 10.0),
    ),
}


def load_config(path: str | Path) -> dict[str, dict[str, object]]:
    """Parse an INI config file against OPTIONS.

    Returns {section: {key: parsed value}}. Raises ConfigError for a
    missing file, unknown section, unknown key, or malformed value.
    """
    import configparser  # only a config file needs it, not start-up
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        default_section="\x00disabled\x00", interpolation=None
    )
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    result: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in OPTIONS:
            raise ConfigError(
                f"unknown config section [{section}] (known: "
                f"{', '.join(sorted(OPTIONS))})"
            )
        schema = {option.key: option for option in OPTIONS[section]}
        parsed: dict[str, object] = {}
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}] (known: "
                    f"{', '.join(sorted(schema))})"
                )
            try:
                parsed[key] = schema[key].parse(raw)
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
        result[section] = parsed
    return result
