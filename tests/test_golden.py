"""Golden CLI outputs: the current code must reproduce them byte for byte.

The files under ``tests/golden/`` hold the CSV and JSON output of each case
below, and ``cli_messages.json`` the exit code, stdout and stderr of each
help and argument-error case in ``MESSAGE_CASES``. To record the files that
do not exist yet, or again the named cases (only when an output change is
intended; ``cli_messages`` names the message cases):

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from qrepsim.cli import main
from qrepsim.config import Config, parse_config

GOLDEN = Path(__file__).parent / "golden"

# every config key, each set away from its default
EVERY_KEY = (
    "g_mhz = 7.8\n"
    "kappa_mhz = 4.2\n"
    "kappa0_mhz = 0.25\n"
    "gamma_mhz = 2.9\n"
    "length_km = 0.2\n"
    "fiber_db_per_km = 2.5\n"
    "fiber_db_per_km_fc = 0.2\n"
    "circulator_loss_db = 0.8\n"
    "n_circulators = 3\n"
    "detector_efficiency = 0.8\n"
    "eta_fc = 0.65\n"
    "fiber_index = 1.46\n"
    "pulse_factor = 18.0\n"
    "technical_fidelity = 0.97\n"
    "herald_mode = pipelined\n"
    "esta_convention = table\n"
    "cz_accounting = per_cavity\n"
    "f_op = 0.998\n"
    "eta_meas = 0.992\n"
    "f_move = 0.97\n"
    "t_swap_us = 2.5\n"
    "t_move_us = 25.0\n"
    "t_proj_us = 180.0\n"
    "p_move = 0.85\n"
    "move_accounting = explicit\n"
    "parallel_links = 2\n"
    "fidelity_target = 0.985\n"
)

# name -> (argv, config file text, exit code)
CASES = {
    "link": (["link"], "", 0),
    "purify": (["purify", "--n-max", "10"], "", 0),
    "chain_m3_25km": (["chain", "--stations", "3", "--distance-km", "25"], "", 0),
    "chain_m5_25km": (["chain", "--stations", "5", "--distance-km", "25"], "", 0),
    "chain_m17_500km_fc_pipelined": (
        ["chain", "--stations", "17", "--distance-km", "500", "--fc"],
        "herald_mode = pipelined\n",
        0,
    ),
    # five swap levels; the plateau after them lies below the target
    "chain_m33_250km_fc": (
        ["chain", "--stations", "33", "--distance-km", "250", "--fc"], "", 3
    ),
    "chain_infeasible_0995": (
        ["chain", "--stations", "5", "--distance-km", "25", "--target", "0.995"],
        "",
        3,
    ),
    "sweep": (["sweep"], "", 0),
    # M = 2 and 3 meet the target, M = 33 does not: feasible and infeasible rows in one output
    "sweep_mixed_0995_lin_fc_on": (
        ["sweep", "--stations", "2,33", "--distances", "1:100:3,lin", "--fc", "on"],
        "fidelity_target = 0.995\nf_op = 0.999\n",
        0,
    ),
    "sweep_mixed_0995_log_fc_off": (
        ["sweep", "--stations", "2,3,33", "--distances", "0.1:250:4,log", "--fc", "off"],
        "fidelity_target = 0.995\nf_op = 0.999\n",
        0,
    ),
    "link_every_key": (["link"], EVERY_KEY, 0),
    "chain_every_key": (
        ["chain", "--stations", "5", "--distance-km", "25", "--fc"], EVERY_KEY, 0
    ),
    # pipelined, table, per_cavity and explicit: every link-budget branch over a column of lengths
    "sweep_every_key": (
        ["sweep", "--stations", "2,5,17", "--distances", "1:500:7,log", "--fc", "both"],
        EVERY_KEY,
        0,
    ),
}
FORMATS = ("csv", "json")

MESSAGES = "cli_messages"
# argv of each help and argument-error case; the last one abbreviates valid options
MESSAGE_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "chain"],
    ["bogus"],
    ["link", "-h"],
    ["purify", "-h"],
    ["chain", "-h"],
    ["sweep", "-h"],
    ["chain"],
    ["chain", "--stations", "3"],
    ["chain", "--stations", "x", "--distance-km", "1"],
    ["chain", "--stations", "3", "--distance-km", "nan"],
    ["chain", "--stations", "3", "--distance-km", "10", "--bogus"],
    ["link", "--bogus", "1"],
    ["link", "extra"],
    ["purify", "--n-max"],
    ["sweep", "--fc", "maybe"],
    ["link", "--format", "xml"],
    ["chain", "--stat", "3", "--dist", "10"],
]


def _run(name: str, fmt: str, workdir: Path) -> tuple[int, bytes]:
    argv, config_text, _ = CASES[name]
    config = workdir / f"{name}.cfg"
    config.write_text(config_text, encoding="utf-8")
    out = workdir / f"{name}.{fmt}"
    rc = main([*argv, "--config", str(config), "--format", fmt, "--out", str(out)])
    return rc, out.read_bytes()


def _message(argv) -> dict:
    """Exit code, stdout and stderr of one in-process call; argparse exits by SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as stop:
            rc = stop.code
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _messages() -> dict:
    return {" ".join(["qrepsim", *argv]): _message(argv) for argv in MESSAGE_CASES}


def test_every_key_case_sets_every_key_away_from_its_default():
    config, default = parse_config(EVERY_KEY), Config()
    assert all(getattr(config, key) != getattr(default, key) for key in vars(default))
    assert len(EVERY_KEY.splitlines()) == len(vars(default))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name, fmt, tmp_path):
    rc, produced = _run(name, fmt, tmp_path)
    assert rc == CASES[name][2]
    assert produced == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("argv", MESSAGE_CASES, ids=" ".join)
def test_cli_messages_match_golden(argv):
    golden = json.loads((GOLDEN / f"{MESSAGES}.json").read_text(encoding="utf-8"))
    assert _message(argv) == golden[" ".join(["qrepsim", *argv])]


if __name__ == "__main__":
    import sys
    import tempfile

    import conftest  # noqa: F401  (fixes the help width, as under pytest)

    names = sys.argv[1:]
    unknown = [name for name in names if name not in CASES and name != MESSAGES]
    if unknown:
        raise SystemExit(
            f"unknown case {unknown[0]!r}, expected one of {sorted(CASES) + [MESSAGES]}"
        )
    # named cases are recorded again; without names, only files that are missing
    messages = GOLDEN / f"{MESSAGES}.json"
    record_messages = MESSAGES in names if names else not messages.exists()
    files = [(name, fmt) for name in names or CASES if name != MESSAGES for fmt in FORMATS]
    if not names:
        files = [(name, fmt) for name, fmt in files if not (GOLDEN / f"{name}.{fmt}").exists()]
    GOLDEN.mkdir(exist_ok=True)
    if record_messages:
        messages.write_text(json.dumps(_messages(), indent=2) + "\n", encoding="utf-8")
        print(f"recorded {messages.name} ({len(MESSAGE_CASES)} cases)")
    with tempfile.TemporaryDirectory() as work:
        for name, fmt in files:
            rc, produced = _run(name, fmt, Path(work))
            if rc != CASES[name][2]:
                raise SystemExit(f"{name}: exit code {rc}, expected {CASES[name][2]}")
            (GOLDEN / f"{name}.{fmt}").write_bytes(produced)
            print(f"recorded {name}.{fmt} ({len(produced)} bytes)")
    if not files and not record_messages:
        print("every golden file exists; name the cases to record again")
