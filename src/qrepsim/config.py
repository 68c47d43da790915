"""Flat key-value configuration with validated defaults.

The file format is one ``key = value`` per line with ``#`` comments. Every
key has a default, so an empty file is a valid configuration. Rate-like
entries are in 2*pi MHz, durations in microseconds, distances in km and
losses in dB.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .link import CavityParams, LinkParams
from .noise import GateNoiseParams
from .schedule import OperationTimings
from .states import check_finite


class ConfigError(ValueError):
    """Configuration parse or validation failure."""


@dataclass(frozen=True)
class Config:
    # cavity
    g_mhz: float = 7.6
    kappa_mhz: float = 4.0
    kappa0_mhz: float = 0.2
    gamma_mhz: float = 3.0
    # link
    length_km: float = 0.1
    fiber_db_per_km: float = 3.0
    fiber_db_per_km_fc: float = 0.19
    circulator_loss_db: float = 1.0
    n_circulators: int = 2
    detector_efficiency: float = 0.75
    eta_fc: float = 0.6
    fiber_index: float = 1.5
    pulse_factor: float = 20.0
    technical_fidelity: float = 0.96
    herald_mode: str = "serial"
    esta_convention: str = "text"
    cz_accounting: str = "paper"
    # local operations
    f_op: float = 0.995
    eta_meas: float = 0.99
    f_move: float = 0.96
    # timings
    t_swap_us: float = 2.0
    t_move_us: float = 20.0
    t_proj_us: float = 200.0
    p_move: float = 0.9
    move_accounting: str = "averaged"
    parallel_links: int = 1
    # chain
    fidelity_target: float = 0.99


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _convert(key: str, raw: str, line_no: int):
    kind = _FIELD_TYPES[key]
    try:
        if kind in ("int", int):
            return int(raw)
        if kind in ("float", float):
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
        config = Config()
        validate_config(config)
        return config
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)


def validate_config(config: Config) -> None:
    """Re-run every module-level invariant on the resolved values."""
    try:
        check_finite(config)
        cavity_params(config)
        link_params(config)
        noise_params(config)
        timings(config, t_esta_us=1.0)
        if not 0 <= config.fidelity_target < 1:
            raise ValueError("fidelity_target must lie in [0, 1)")
        if not 0.25 < config.f_move <= 1:
            raise ValueError("f_move must lie in (0.25, 1]")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cavity_params(config: Config) -> CavityParams:
    return CavityParams(
        g_mhz=config.g_mhz,
        kappa_mhz=config.kappa_mhz,
        kappa0_mhz=config.kappa0_mhz,
        gamma_mhz=config.gamma_mhz,
    )


def link_params(
    config: Config, length_km: float | None = None, fc_enabled: bool = False
) -> LinkParams:
    return LinkParams(
        length_km=config.length_km if length_km is None else length_km,
        attenuation_db_per_km=config.fiber_db_per_km,
        attenuation_db_per_km_fc=config.fiber_db_per_km_fc,
        circulator_loss_db=config.circulator_loss_db,
        n_circulators=config.n_circulators,
        detector_efficiency=config.detector_efficiency,
        fc_enabled=fc_enabled,
        eta_fc=config.eta_fc,
        fiber_index=config.fiber_index,
        pulse_factor=config.pulse_factor,
        technical_fidelity=config.technical_fidelity,
        herald_mode=config.herald_mode,
        esta_convention=config.esta_convention,
        cz_accounting=config.cz_accounting,
    )


def noise_params(config: Config) -> GateNoiseParams:
    return GateNoiseParams(f_op=config.f_op, eta_meas=config.eta_meas)


def timings(config: Config, t_esta_us: float, l_km: float | None = None) -> OperationTimings:
    return OperationTimings(
        t_esta_us=t_esta_us,
        t_swap_us=config.t_swap_us,
        t_move_us=config.t_move_us,
        t_proj_us=config.t_proj_us,
        p_move=config.p_move,
        l_km=config.length_km if l_km is None else l_km,
        move_accounting=config.move_accounting,
        parallel_links=config.parallel_links,
    )
