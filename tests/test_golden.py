"""Golden CLI outputs: the current code must reproduce them byte for byte.

The files under ``tests/golden/`` hold the CSV and JSON output of each case
below. To record them again (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from qrepsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, config file text, exit code)
CASES = {
    "link": (["link"], "", 0),
    "purify": (["purify", "--n-max", "10"], "", 0),
    "chain_m5_25km": (["chain", "--stations", "5", "--distance-km", "25"], "", 0),
    "chain_m17_500km_fc_pipelined": (
        ["chain", "--stations", "17", "--distance-km", "500", "--fc"],
        "herald_mode = pipelined\n",
        0,
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
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name in CASES:
            for fmt in FORMATS:
                rc, produced = _run(name, fmt, Path(work))
                if rc != CASES[name][2]:
                    raise SystemExit(f"{name}: exit code {rc}, expected {CASES[name][2]}")
                (GOLDEN / f"{name}.{fmt}").write_bytes(produced)
                print(f"recorded {name}.{fmt} ({len(produced)} bytes)")
