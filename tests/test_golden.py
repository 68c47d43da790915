"""Golden CLI outputs: the current code must reproduce them byte for byte.

The files under ``tests/golden/`` hold the CSV and JSON output of each case
below. To record the files that do not exist yet, or again the named cases
(only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""

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
    "link_every_key": (["link"], EVERY_KEY, 0),
    "chain_every_key": (
        ["chain", "--stations", "5", "--distance-km", "25", "--fc"], EVERY_KEY, 0
    ),
}
FORMATS = ("csv", "json")


def _run(name: str, fmt: str, workdir: Path) -> tuple[int, bytes]:
    argv, config_text, _ = CASES[name]
    config = workdir / f"{name}.cfg"
    config.write_text(config_text, encoding="utf-8")
    out = workdir / f"{name}.{fmt}"
    rc = main([*argv, "--config", str(config), "--format", fmt, "--out", str(out)])
    return rc, out.read_bytes()


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


if __name__ == "__main__":
    import sys
    import tempfile

    names = sys.argv[1:]
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise SystemExit(f"unknown case {unknown[0]!r}, expected one of {sorted(CASES)}")
    # named cases are recorded again; without names, only files that are missing
    files = [(name, fmt) for name in names or CASES for fmt in FORMATS]
    if not names:
        files = [(name, fmt) for name, fmt in files if not (GOLDEN / f"{name}.{fmt}").exists()]
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, fmt in files:
            rc, produced = _run(name, fmt, Path(work))
            if rc != CASES[name][2]:
                raise SystemExit(f"{name}: exit code {rc}, expected {CASES[name][2]}")
            (GOLDEN / f"{name}.{fmt}").write_bytes(produced)
            print(f"recorded {name}.{fmt} ({len(produced)} bytes)")
    if not files:
        print("every golden file exists; name the cases to record again")
