"""Golden CLI outputs: the current code must reproduce them byte for byte.

The files under ``tests/golden/`` hold the CSV and JSON output of each case
below. To record the files that do not exist yet, or again the named cases
(only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""

from pathlib import Path

import pytest

from qrepsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

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
}
FORMATS = ("csv", "json")


def _run(name: str, fmt: str, workdir: Path) -> tuple[int, bytes]:
    argv, config_text, _ = CASES[name]
    config = workdir / f"{name}.cfg"
    config.write_text(config_text, encoding="utf-8")
    out = workdir / f"{name}.{fmt}"
    rc = main([*argv, "--config", str(config), "--format", fmt, "--out", str(out)])
    return rc, out.read_bytes()


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
