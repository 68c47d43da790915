"""``tests/digests.py``: the benchmark's recorded seed-0 outputs, and its comparison mode.

The script runs in its own interpreter, because it imports qrepsim afresh
for every operation.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("point_queries", "distance_sweep", "node_pair")


def _digests(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tests" / "digests.py"), "--seeds", "0", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )


def _reference(workloads) -> dict:
    recorded = json.loads((ROOT / "bench" / "reference.json").read_text(encoding="utf-8"))
    assert recorded["seed"] == 0
    return {
        f"{name}/0/{i}": digest
        for name in workloads
        for i, digest in enumerate(recorded["ops"][name])
    }


def test_seed_0_digests_equal_the_benchmark_reference():
    run = _digests("--workloads", *WORKLOADS)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == _reference(WORKLOADS)


def test_compare_lists_each_differing_operation(tmp_path):
    other = _reference(["node_pair"])
    other["node_pair/0/3"] = "0" * 16
    other["node_pair/0/99"] = "1" * 16
    path = tmp_path / "other.json"
    path.write_text(json.dumps(other), encoding="utf-8")
    run = _digests("--workloads", "node_pair", "--compare", str(path))
    assert run.returncode == 1, run.stderr
    lines = run.stdout.splitlines()
    assert lines[:2] == [
        f"node_pair/0/3: {'0' * 16} -> {_reference(['node_pair'])['node_pair/0/3']}",
        f"node_pair/0/99: {'1' * 16} -> -",
    ]
    assert lines[2:] == ["2 of 11 operations differ"]
