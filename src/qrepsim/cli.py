"""Command line interface: link, purify, chain and sweep reports.

Output is deterministic CSV (or JSON with --format json) with the fully
resolved configuration echoed in the header, so every emitted number is
reproducible from the file alone. Floats carry 9 significant digits.

Exit codes: 0 success, 2 configuration error or unwritable output file,
3 infeasible fidelity target (single-point chain command only).

``COMMANDS`` defines the subcommands. A call builds only its subcommand's
parser; the full parser, built from the same table, serves -h and argument errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .chain import optimize_plan, plan_rows
from .config import Config, ConfigError, load_config, records
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


# _format_value's result for each exact built-in type, for the cells of a column without a spec
_CELL_FORMATS = {bool: ("false", "true").__getitem__, int: str, float: "{:.9g}".format, str: str}
# printf spec of a CSV column by the set of its cells' exact types
_COLUMN_SPECS = {frozenset({float}): "%.9g", frozenset({np.float64}): "%.9g",
                 frozenset({float, np.float64}): "%.9g",
                 frozenset({int}): "%d", frozenset({str}): "%s"}


def _config_echo(config: Config) -> list[str]:
    return [f"# {key} = {_format_value(value)}" for key, value in vars(config).items()]


def emit(out, fmt: str, columns, rows, config: Config) -> None:
    """Write rows, tuples in column order, to a path or '-' for stdout.

    A CSV is formatted by one printf template, chosen per column from the
    exact types of its cells: floats (``float``, ``np.float64``) as %.9g,
    ``int`` as %d, ``str`` as %s. Any other column (bools, numpy integers,
    mixed types) is formatted cell by cell by ``_format_value``'s rules.
    """
    if fmt == "csv":
        lines = _config_echo(config)
        lines.append(",".join(columns))
        cells, specs = list(zip(*rows)), []
        for j, column in enumerate(cells):
            spec = _COLUMN_SPECS.get(frozenset(map(type, column)))
            if spec is None:
                cell = _CELL_FORMATS.get
                cells[j] = [cell(type(v), _format_value)(v) for v in column]
            specs.append(spec or "%s")
        template = ",".join(specs)
        lines += [template % row for row in zip(*cells)]
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "config": vars(config),
            "columns": list(columns),
            "rows": [
                {
                    c: float(format(v, ".9g")) if isinstance(v, (float, np.floating)) else v
                    for c, v in zip(columns, row)
                }
                for row in rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output file {out!r}: {exc.strerror}") from exc


def cmd_link(config: Config, args) -> int:
    cavity, link, _, _ = records(config)
    budget = link_budget(cavity, link)
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
    emit(args.out, args.format, list(row), [tuple(row.values())], config)
    return 0


def cmd_purify(config: Config, args) -> int:
    cavity, link, noisy, timings = records(config)
    rows = []
    for ops_label, noise in (("noisy", noisy), ("ideal", IDEAL_OPS)):
        for f0 in (0.91, 0.8):
            curve = rate_fidelity_curve(
                args.n_max,
                cavity,
                link,
                noise,
                timings,
                initial_state=BellDiagonalState.werner(f0),
            )
            rows += [(ops_label, f0, r.n_rounds, r.final_fidelity, r.p_puri, r.t_eg_us,
                      r.effective_rate_hz) for r in curve]
    columns = ("ops", "f0", "n", "fidelity", "p_puri", "t_eg_us", "rate_hz")
    emit(args.out, args.format, columns, rows, config)
    return 0


_PLAN_COLUMNS = ("total_length_km", "m_stations", "fc", "target", "n1", "n2", "f_m", "t_qr_us",
                 "rate_hz", "feasible")


def _plan_row(plan: tuple) -> tuple:
    """A plan in ``ChainPlan`` field order, in ``_PLAN_COLUMNS`` order with FC as 1/0."""
    m_stations, length, fc, *rest = plan
    return (length, m_stations, 1 if fc else 0, *rest)


def cmd_chain(config: Config, args) -> int:
    target = config.fidelity_target if args.target is None else args.target
    plan = optimize_plan(
        args.stations, args.distance_km, *records(config), fc=args.fc, fidelity_target=target
    )
    fields = tuple(vars(plan).values())  # in ChainPlan field order; astuple deep-copies
    emit(args.out, args.format, _PLAN_COLUMNS, [_plan_row(fields)], config)
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


def _parse_stations(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad --stations {text!r}; expected comma-separated integers") from None


def cmd_sweep(config: Config, args) -> int:
    # a repeated station count or distance would repeat its rows
    stations = list(dict.fromkeys(_parse_stations(args.stations)))
    fc_modes = {"both": (False, True), "on": (True,), "off": (False,)}[args.fc]
    plans = plan_rows(
        list(dict.fromkeys(_parse_distances(args.distances))),
        stations,
        fc_modes,
        *records(config),
        fidelity_target=config.fidelity_target,
    )
    emit(args.out, args.format, _PLAN_COLUMNS, list(map(_plan_row, plans)), config)
    return 0


def _chain_options(parser) -> None:
    parser.add_argument("--stations", type=int, required=True)
    parser.add_argument("--distance-km", type=_finite_float, required=True)
    parser.add_argument("--fc", action="store_true", help="enable frequency conversion")
    parser.add_argument("--target", type=_finite_float, default=None)


def _sweep_options(parser) -> None:
    parser.add_argument("--stations", default="2,5,17")
    parser.add_argument("--distances", default="1:500:40,log")
    parser.add_argument("--fc", choices=("both", "on", "off"), default="both")


# name -> (handler, help line, function that adds the subcommand's own options)
COMMANDS = {
    "link": (cmd_link, "heralded-link budget at the configured length", lambda parser: None),
    "purify": (
        cmd_purify,
        "fidelity/rate vs purification rounds",
        lambda parser: parser.add_argument("--n-max", type=int, default=6),
    ),
    "chain": (cmd_chain, "optimized repeater-chain plan", _chain_options),
    "sweep": (cmd_sweep, "rate vs distance/station grid", _sweep_options),
}


def _add_options(parser, add_own) -> argparse.ArgumentParser:
    add_own(parser)  # then the options every subcommand shares
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrepsim",
        description="Quantum repeater link/purification/chain design calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, add_own) in COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_line), add_own)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name in COMMANDS:  # parse with that subcommand's parser alone
        parser = _add_options(argparse.ArgumentParser(prog=f"qrepsim {name}"), COMMANDS[name][2])
        args, extra = parser.parse_known_args(argv[1:], argparse.Namespace(command=name))
    if name not in COMMANDS or extra:
        # no subcommand, -h, or arguments the subcommand does not know: help or error, exit
        args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return COMMANDS[args.command][0](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
