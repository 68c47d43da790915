"""Command line interface: link, purify, chain and sweep reports.

Output is deterministic CSV (or JSON with --format json) with the fully
resolved configuration echoed in the header, so every emitted number is
reproducible from the file alone. Floats carry 9 significant digits.

Exit codes: 0 success, 2 configuration error, 3 infeasible fidelity target
(single-point chain command only).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import config as cfgmod
from .chain import ChainParams, optimize_plan, rate_vs_distance
from .config import Config, ConfigError, load_config
from .link import link_budget
from .noise import IDEAL_OPS
# purify_n_rounds: unused, but bench/test_spans.py checks it is bound here
from .purify import purify_n_rounds  # noqa: F401
from .schedule import rate_fidelity_curve
from .states import BellDiagonalState


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


# _format_value's result for each exact built-in type, looked up once per CSV cell
_CELL_FORMATS = {bool: ("false", "true").__getitem__, int: str, float: "{:.9g}".format, str: str}


def _config_echo(config: Config) -> list[str]:
    from dataclasses import fields

    return [
        f"# {f.name} = {_format_value(getattr(config, f.name))}" for f in fields(config)
    ]


def emit(out, fmt: str, columns, rows, config: Config) -> None:
    """Write rows to a path or '-' for stdout."""
    if fmt == "csv":
        lines = _config_echo(config)
        lines.append(",".join(columns))
        cell = _CELL_FORMATS.get
        for row in rows:
            values = [row[c] for c in columns]
            lines.append(",".join([cell(type(v), _format_value)(v) for v in values]))
        text = "\n".join(lines) + "\n"
    else:
        from dataclasses import fields

        payload = {
            "config": {f.name: getattr(config, f.name) for f in fields(Config)},
            "columns": list(columns),
            "rows": [
                {
                    c: (
                        float(format(row[c], ".9g"))
                        if isinstance(row[c], (float, np.floating))
                        else row[c]
                    )
                    for c in columns
                }
                for row in rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_link(config: Config, args) -> int:
    budget = link_budget(cfgmod.cavity_params(config), cfgmod.link_params(config))
    row = {
        "r_uncoupled": budget.r_uncoupled.real,
        "r_coupled": budget.r_coupled.real,
        "p_cz": budget.p_cz,
        "p_succ": budget.p_succ,
        "t_attempt_us": budget.t_attempt_us,
        "t_esta_us": budget.t_esta_us,
        "rate_khz": 1e3 / budget.t_esta_us,
        "heralded_fidelity": config.technical_fidelity,
    }
    emit(args.out, args.format, list(row), [row], config)
    return 0


def cmd_purify(config: Config, args) -> int:
    cavity = cfgmod.cavity_params(config)
    link = cfgmod.link_params(config)
    noisy = cfgmod.noise_params(config)
    rows = []
    for ops_label, noise in (("noisy", noisy), ("ideal", IDEAL_OPS)):
        for f0 in (0.91, 0.8):
            curve = rate_fidelity_curve(
                args.n_max,
                cavity,
                link,
                noise,
                timings=cfgmod.timings(config, t_esta_us=1.0),
                initial_state=BellDiagonalState.werner(f0),
                f_move=config.f_move,
            )
            for result in curve:
                rows.append(
                    {
                        "ops": ops_label,
                        "f0": f0,
                        "n": result.n_rounds,
                        "fidelity": result.final_fidelity,
                        "p_puri": result.p_puri,
                        "t_eg_us": result.t_eg_us,
                        "rate_hz": result.effective_rate_hz,
                    }
                )
    emit(args.out, args.format, list(rows[0]), rows, config)
    return 0


def _plan_row(plan) -> dict:
    return {
        "total_length_km": plan.total_length_km,
        "m_stations": plan.m_stations,
        "fc": 1 if plan.fc_enabled else 0,
        "target": plan.fidelity_target,
        "n1": plan.n1,
        "n2": plan.n2,
        "f_m": plan.f_m,
        "t_qr_us": plan.t_qr_us,
        "rate_hz": plan.rate_hz,
        "feasible": plan.feasible,
    }


def cmd_chain(config: Config, args) -> int:
    target = config.fidelity_target if args.target is None else args.target
    chain = ChainParams(
        m_stations=args.stations,
        total_length_km=args.distance_km,
        fidelity_target=target,
        fc_enabled=args.fc,
    )
    plan = optimize_plan(
        chain,
        cfgmod.cavity_params(config),
        cfgmod.link_params(config),
        cfgmod.noise_params(config),
        cfgmod.timings(config, t_esta_us=1.0),
        f_move=config.f_move,
    )
    row = _plan_row(plan)
    emit(args.out, args.format, list(row), [row], config)
    return 0 if plan.feasible else 3


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _parse_distances(text: str):
    try:
        grid, _, scale = text.partition(",")
        scale = scale or "log"
        lo, hi, points = grid.split(":")
        lo, hi, points = float(lo), float(hi), int(points)
        if not (0 < lo <= hi < math.inf) or points < 1:
            raise ValueError
        if scale == "log":
            return list(np.geomspace(lo, hi, points))
        if scale == "lin":
            return list(np.linspace(lo, hi, points))
        raise ValueError
    except ValueError:
        raise ConfigError(
            f"bad --distances {text!r}; expected lo:hi:points[,log|lin]"
        ) from None


def cmd_sweep(config: Config, args) -> int:
    # a repeated station count or distance would repeat its rows
    stations = list(dict.fromkeys(int(s) for s in args.stations.split(",")))
    fc_modes = {"both": (False, True), "on": (True,), "off": (False,)}[args.fc]
    plans = rate_vs_distance(
        list(dict.fromkeys(_parse_distances(args.distances))),
        stations,
        fc_modes,
        cfgmod.cavity_params(config),
        cfgmod.link_params(config),
        cfgmod.noise_params(config),
        cfgmod.timings(config, t_esta_us=1.0),
        fidelity_target=config.fidelity_target,
        f_move=config.f_move,
    )
    rows = [_plan_row(p) for p in plans]
    emit(args.out, args.format, list(rows[0]), rows, config)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrepsim",
        description="Quantum repeater link/purification/chain design calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_link = sub.add_parser("link", help="heralded-link budget at the configured length")
    common(p_link)

    p_puri = sub.add_parser("purify", help="fidelity/rate vs purification rounds")
    p_puri.add_argument("--n-max", type=int, default=6)
    common(p_puri)

    p_chain = sub.add_parser("chain", help="optimized repeater-chain plan")
    p_chain.add_argument("--stations", type=int, required=True)
    p_chain.add_argument("--distance-km", type=_finite_float, required=True)
    p_chain.add_argument("--fc", action="store_true", help="enable frequency conversion")
    p_chain.add_argument("--target", type=_finite_float, default=None)
    common(p_chain)

    p_sweep = sub.add_parser("sweep", help="rate vs distance/station grid")
    p_sweep.add_argument("--stations", default="2,5,17")
    p_sweep.add_argument("--distances", default="1:500:40,log")
    p_sweep.add_argument("--fc", choices=("both", "on", "off"), default="both")
    common(p_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "link": cmd_link,
        "purify": cmd_purify,
        "chain": cmd_chain,
        "sweep": cmd_sweep,
    }
    try:
        config = load_config(args.config)
        return handlers[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
