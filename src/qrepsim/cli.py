"""Command line interface: link, purify, chain and sweep reports.

Output is deterministic CSV (or JSON with --format json) with the fully
resolved configuration echoed in the header, so every emitted number is
reproducible from the file alone. Floats carry 9 significant digits.

Exit codes: 0 success, 2 configuration error or unwritable output file,
3 infeasible target (chain only; stderr names the best cell it reached).

``COMMANDS`` defines the subcommands. A call builds only its subcommand's
parser; the full parser, built from the same table, serves -h and argument errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .chain import N_MAX, plan_columns, plan_rows
from .config import Config, ConfigError, load_config, records
from .link import link_budget
from .noise import IDEAL_OPS
# purify_n_rounds: unused, but bench/test_spans.py checks it is bound here
from .purify import purify_n_rounds  # noqa: F401
from .schedule import rate_fidelity_curve
from .states import BellDiagonalState, check_positive


_FLOAT = "%.9g"  # a float cell's printf spec


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _FLOAT % float(value)
    return str(value)


# _format_value's result for each exact built-in type, its fast path for a row's cells
_CELL_FORMATS = {bool: ("false", "true").__getitem__, int: str, float: _FLOAT.__mod__, str: str}


def emit(out, fmt: str, columns, rows, config: Config) -> None:
    """Write rows in column order to a path or '-' for stdout.

    ``rows`` is a list of tuples, whose CSV cells are formatted one by one,
    or the ``_Plans`` of a chain or a sweep, which formats its own CSV lines.
    """
    if fmt == "csv":
        lines = [f"# {key} = {_format_value(value)}" for key, value in vars(config).items()]
        lines.append(",".join(columns))
        if isinstance(rows, _Plans):
            lines += rows.csv_lines()
        else:
            cell = _CELL_FORMATS.get
            lines += [",".join([cell(type(v), _format_value)(v) for v in row]) for row in rows]
        lines.append("")  # the final newline
        text = "\n".join(lines)
    else:
        rows = [{c: float(format(v, ".9g")) if isinstance(v, (float, np.floating)) else v
                 for c, v in zip(columns, row)} for row in rows]
        payload = {"config": vars(config), "columns": list(columns), "rows": rows}
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
    check_positive("rate_khz", row["rate_khz"])
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


class _Plans:
    """Plans of a chain or a sweep: ``plan_columns``'s lengths and entries, each with its target."""

    def __init__(self, lengths, entries):
        self.lengths, self.entries = lengths, entries

    def __iter__(self):  # rows in _PLAN_COLUMNS order (FC as 1/0), by length, then entry
        for m_stations, length, fc, *rest in plan_rows(self.lengths, self.entries):
            yield (length, m_stations, int(fc), *rest)

    def csv_lines(self) -> list[str]:
        """One group of lines per length, from entry templates that hold M, FC, target and
        feasible as text; each length and cell's "n1,n2,f_m" is formatted once."""
        lengths = [_FLOAT % length for length in self.lengths]
        templates, arguments = [], []
        for m_stations, fc, target, feasible, cells, best, t_qr, rate in self.entries:
            head = ",".join(map(_format_value, (m_stations, int(fc), target)))
            templates.append(f"%s,{head},%s,{_FLOAT},{_FLOAT},{_format_value(feasible)}")
            texts = [f"%d,%d,{_FLOAT}" % cell for cell in cells]  # (N1, N2, f_m)
            arguments += (lengths, map(texts.__getitem__, best), t_qr, rate)
        template = "\n".join(templates)
        return [template % group for group in zip(*arguments)]


def cmd_chain(config: Config, args) -> int:
    target = config.fidelity_target if args.target is None else args.target
    plans = plan_columns([args.distance_km], [args.stations], [args.fc], *records(config),
                         fidelity_target=target)
    emit(args.out, args.format, _PLAN_COLUMNS, _Plans(*plans), config)
    ((_, _, target, feasible, cells, _, _, _),) = plans[1]  # the one entry, at the one length
    if not feasible:
        ((n1, n2, f_m),) = cells  # an infeasible entry's one cell
        print(f"infeasible: no plan with N1, N2 <= {N_MAX} reaches target {_format_value(target)}; "
              f"best f_m {_FLOAT % f_m} at N1={n1}, N2={n2}", file=sys.stderr)
    return 0 if feasible else 3


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
        grid, comma, scale = text.partition(",")
        scale = scale if comma else "log"
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
    lengths = list(dict.fromkeys(_parse_distances(args.distances)))
    plans = plan_columns(lengths, stations, fc_modes, *records(config),
                         fidelity_target=config.fidelity_target)
    emit(args.out, args.format, _PLAN_COLUMNS, _Plans(*plans), config)
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
