"""Flat key-value configuration with validated defaults.

The file format is one ``key = value`` per line with ``#`` comments, in
UTF-8 with or without a byte-order mark. Every key has a default, so an
empty file is a valid configuration. Rate-like entries are in 2*pi MHz,
durations in microseconds, distances in km and losses in dB.
The keys are the fields of the parameter records, in record order, then
the chain's ``fidelity_target``; ``Config`` is built from those fields, so
each key's type and default live in the record alone, and the target's
default in ``chain.FIDELITY_TARGET``. Per-query values (the chain's
stations and length, FC) are arguments, not keys. ``records`` fills the
records, which check the ranges.
"""

from __future__ import annotations

from dataclasses import fields, make_dataclass

from .chain import FIDELITY_TARGET, check_fidelity_target
from .link import CavityParams, LinkParams
from .noise import GateNoiseParams
from .schedule import OperationTimings
from .states import check_finite

_RECORDS = (CavityParams, LinkParams, GateNoiseParams, OperationTimings)


class ConfigError(ValueError):
    """Configuration parse or validation failure."""


# the keys in echo order: every record's fields, then the chain's target
_KEYS = [(f.name, f.type, f.default) for record in _RECORDS for f in fields(record)]
Config = make_dataclass(
    "Config",
    [*_KEYS, ("fidelity_target", "float", FIDELITY_TARGET)],
    frozen=True,
    namespace={"__module__": __name__},  # make_dataclass's module argument needs Python 3.12
)

_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _convert(key: str, raw: str, line_no: int):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: cannot parse {key} = {raw!r}") from exc


def parse_config(text: str) -> Config:
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"line {line_no}: empty value for {key!r}")
        values[key] = _convert(key, raw, line_no)
    config = Config(**values)
    validate_config(config)
    return config


def load_config(path: str | None) -> Config:
    if path is None:
        return parse_config("")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)


def validate_config(config: Config) -> None:
    """Re-run every module-level invariant on the resolved values."""
    try:
        check_finite(config)
        records(config)
        check_fidelity_target(config.fidelity_target)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def records(config: Config) -> tuple[CavityParams, LinkParams, GateNoiseParams, OperationTimings]:
    """The parameter records, each field set from the config key of its name.

    Every record field is a key; FC, like the link length a query uses, is
    an argument of the link functions, not a field.
    """
    keys = vars(config)
    return tuple(record(**{f.name: keys[f.name] for f in fields(record)}) for record in _RECORDS)
