"""Seeded workloads for the qrepsim benchmark, and the checks on their output.

An operation is one or more in-process calls of ``qrepsim.cli.main(argv)``
that share one generated configuration file. Operation ``i`` of a workload
is a pure function of ``(workload, seed, i)``, so a run can stop after any
number of operations and the same seed always gives the same inputs.

Workloads (why each exists is in README.md):

- ``point_queries``: one ``qrepsim chain`` query per operation.
- ``distance_sweep``: one ``qrepsim sweep`` over 1500 distances per operation.
- ``node_pair``: ``qrepsim link`` then ``qrepsim purify --n-max k``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Each operation draws its configuration from these ranges (uniform).
CONFIG_RANGES = {
    "f_op": (0.99, 0.999),
    "eta_meas": (0.98, 0.999),
    "f_move": (0.93, 0.99),
    "technical_fidelity": (0.93, 0.99),
    "t_proj_us": (100.0, 300.0),
    "fidelity_target": (0.95, 0.995),
}

STATIONS = (2, 3, 5, 9, 17, 33)
MAX_LENGTH_KM = 2000.0
DEFECT_FREE_KM = 1000.0
SWEEP_STATIONS = "5,17"
SWEEP_POINTS = 1500
SWEEP_DISTANCES = f"1:{MAX_LENGTH_KM:g}:{SWEEP_POINTS},log"
PURIFY_ROUNDS = range(6, 11)
FORMATS = ("csv", "json")

# Columns that hold a fidelity or a probability and so must lie in [0, 1].
UNIT_INTERVAL_COLUMNS = ("f_m", "fidelity", "p_puri", "p_succ", "p_cz", "heralded_fidelity")


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``--config <file>`` is appended when it runs."""

    argv: tuple
    fmt: str
    rows: int  # rows the output must hold


@dataclass(frozen=True)
class Op:
    index: int
    label: str
    config: str  # text of the configuration file
    calls: tuple


@dataclass
class CallResult:
    rc: int | None
    out: str
    err: str
    exc: BaseException | None


def _strata(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one in each of n equal strata, in random order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


def _designs(rng: random.Random, n: int, choices: list) -> list:
    """n picks from ``choices``, each used equally often, in random order."""
    picks = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(picks)
    return picks


def _configs(rng: random.Random, n: int) -> list[str]:
    """n configuration files; each field covers its range as a Latin hypercube."""
    columns = {key: [lo + (hi - lo) * u for u in _strata(rng, n)] for key, (lo, hi) in CONFIG_RANGES.items()}
    return ["".join(f"{key} = {columns[key][i]!r}\n" for key in CONFIG_RANGES) for i in range(n)]


def point_queries(rng: random.Random, n: int) -> list[Op]:
    combos = _designs(rng, n, [(m, fc) for m in STATIONS for fc in (False, True)])
    ops = []
    for i, (config, (m, fc), u) in enumerate(zip(_configs(rng, n), combos, _strata(rng, n))):
        # Log-uniform length. M = 2 without FC stops at DEFECT_FREE_KM, below the
        # known defect (see known_defect), so that no query of the workload fails.
        top = MAX_LENGTH_KM if m > 2 or fc else DEFECT_FREE_KM
        length = math.exp(u * math.log(top))
        argv = ("chain", "--stations", str(m), "--distance-km", repr(length))
        if fc:
            argv += ("--fc",)
        label = f"chain M={m} L={length:.6g} km fc={'on' if fc else 'off'}"
        ops.append(Op(i, label, config, (Call(argv, "csv", 1),)))
    return ops


def distance_sweep(rng: random.Random, n: int) -> list[Op]:
    argv = ("sweep", "--stations", SWEEP_STATIONS, "--distances", SWEEP_DISTANCES, "--fc", "both")
    rows = len(SWEEP_STATIONS.split(",")) * SWEEP_POINTS * 2
    label = f"sweep M={SWEEP_STATIONS} {SWEEP_DISTANCES}"
    return [Op(i, label, config, (Call(argv, "csv", rows),)) for i, config in enumerate(_configs(rng, n))]


def node_pair(rng: random.Random, n: int) -> list[Op]:
    combos = _designs(rng, n, [(k, fmt) for k in PURIFY_ROUNDS for fmt in FORMATS])
    ops = []
    for i, (config, (n_max, fmt)) in enumerate(zip(_configs(rng, n), combos)):
        calls = (
            Call(("link", "--format", fmt), fmt, 1),
            # noisy and ideal ops, two initial fidelities, rounds 0..n_max
            Call(("purify", "--n-max", str(n_max), "--format", fmt), fmt, 4 * (n_max + 1)),
        )
        ops.append(Op(i, f"link + purify --n-max {n_max} ({fmt})", config, calls))
    return ops


# Workload name -> (builder, operations per seed). A run repeats the same
# operations round after round: a 40 s run holds four or more complete rounds
# of point queries and node pairs, whose counts balance the discrete choices
# (6 M x FC, 5 k x format), and one round of sweeps. A sweep's time depends on
# its configuration (by up to 1.6x within one seed), so a round holds ten,
# enough that the mix of configurations moves a run's median little.
WORKLOADS = {
    "point_queries": (point_queries, 12),
    "distance_sweep": (distance_sweep, 10),
    "node_pair": (node_pair, 10),
}


def operations(workload: str, seed: int) -> list[Op]:
    """The operations of one workload and seed: the same seed, the same list."""
    build, n = WORKLOADS[workload]
    return build(random.Random(f"{workload}/{seed}"), n)


def fresh_import():
    """Drop every qrepsim module and import the CLI again.

    Each operation then starts from the state a new ``qrepsim`` process has,
    so no cache of the program carries work from one operation, or one
    repeat of it, to the next.
    """
    for name in [name for name in sys.modules if name == "qrepsim" or name.startswith("qrepsim.")]:
        del sys.modules[name]
    return importlib.import_module("qrepsim.cli")


def invoke(argv, config_path: str) -> CallResult:
    """Run the public CLI entry point in-process, capturing its output."""
    from qrepsim import cli

    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([*argv, "--config", config_path])
        except SystemExit as stop:  # argparse rejects the arguments
            rc = stop.code if isinstance(stop.code, int) else 2
        except Exception as raised:  # a crash is a failed operation, kept with its cause
            rc, exc = None, raised
    return CallResult(rc, out.getvalue(), err.getvalue(), exc)


def digest(results) -> str:
    """Fingerprint of an operation's exit codes, exceptions and output bytes."""
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.rc}|{type(r.exc).__name__ if r.exc else ''}\n".encode())
        h.update(r.out.encode())
    return h.hexdigest()[:16]


def _parse_value(text: str):
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_rows(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["rows"]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        return []
    columns = lines[0].split(",")
    return [dict(zip(columns, map(_parse_value, line.split(",")))) for line in lines[1:]]


def _innermost(exc: BaseException) -> str:
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return f"{Path(tb.tb_frame.f_code.co_filename).stem}.{tb.tb_frame.f_code.co_name}"


def known_defect(exc: BaseException) -> bool:
    """The ZeroDivisionError once herald success underflows to 0.

    ``link.expected_esta`` divides by ``herald_success``, which is 0.0 once the
    fiber loss passes about 3080 dB (M = 2 without FC above about 1026 km).
    """
    return isinstance(exc, ZeroDivisionError) and _innermost(exc) == "link.expected_esta"


def check_call(call: Call, result: CallResult) -> tuple[list[str], int]:
    """Problems with one call's result, and the number of rows it emitted."""
    if result.exc is not None:
        cause = f"{type(result.exc).__name__} in {_innermost(result.exc)}: {result.exc}"
        if known_defect(result.exc):
            cause = "known defect: " + cause
        return [cause], 0
    if result.rc not in (0, 3):
        return [f"exit code {result.rc}: {result.err.strip()[:200]}"], 0
    try:
        rows = parse_rows(result.out, call.fmt)
    except (ValueError, KeyError) as bad:
        return [f"unparseable {call.fmt} output: {bad}"], 0
    problems = []
    if len(rows) != call.rows:
        problems.append(f"{len(rows)} rows, expected {call.rows}")
    command = call.argv[0]
    for n, row in enumerate(rows):
        for column, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"row {n}: {column} = {value}")
        for column in UNIT_INTERVAL_COLUMNS:
            if column in row and not 0.0 <= row[column] <= 1.0:
                problems.append(f"row {n}: {column} = {row[column]} outside [0, 1]")
        if command in ("chain", "sweep") and row.get("feasible"):
            if not row["f_m"] >= row["target"] - 1e-12:
                problems.append(f"row {n}: feasible but f_m {row['f_m']} < target {row['target']}")
            if not row["rate_hz"] > 0:
                problems.append(f"row {n}: feasible but rate_hz = {row['rate_hz']}")
    if command == "chain" and rows:
        expected_rc = 0 if rows[0]["feasible"] else 3
        if result.rc != expected_rc:
            problems.append(f"exit code {result.rc} for feasible={rows[0]['feasible']}")
    elif result.rc != 0:
        problems.append(f"exit code {result.rc} from {command}")
    return problems[:5], len(rows)


def run_op(op: Op, config_path: Path, clock):
    """Write the op's config, time its calls, then check them (untimed).

    Returns (seconds, results, problems, rows emitted).
    """
    config_path.write_text(op.config, encoding="utf-8")
    path = str(config_path)
    t0 = clock()
    results = [invoke(call.argv, path) for call in op.calls]
    elapsed = clock() - t0
    problems, rows = [], 0
    for call, result in zip(op.calls, results):
        found, emitted = check_call(call, result)
        problems += found
        rows += emitted
    return elapsed, results, problems, rows


def ensure_src_on_path() -> None:
    """Import qrepsim from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "qrepsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qrepsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qrepsim

    if Path(qrepsim.__file__).resolve().parent != (SRC / "qrepsim").resolve():
        raise ImportError(f"qrepsim imported from {qrepsim.__file__}, not {SRC}")
