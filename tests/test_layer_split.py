"""``tests/layer_split.py``: one operation of each workload, split by layer.

The script runs in its own interpreter, because it imports qrepsim afresh
for every operation.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = [
    "cli.load_config",
    "chain._rows",
    "chain._search",
    "chain.chain_fidelity_table",
    "cli.emit",
    "cli.rate_fidelity_curve",
]


def test_one_operation_per_workload_splits_into_its_layers():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "layer_split.py"), "--ops", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    found = json.loads(run.stdout)
    assert list(found) == ["point_queries", "distance_sweep", "node_pair"]
    for workload, times in found.items():
        assert list(times) == [*LAYERS, "operation"], workload
        assert all(ms >= 0 for ms in times.values()), workload
        assert sum(times[layer] for layer in LAYERS) <= times["operation"], workload
    # each workload runs the layers its command calls
    assert found["point_queries"]["chain._search"] > 0
    assert found["distance_sweep"]["chain._rows"] > 0
    assert found["node_pair"]["cli.rate_fidelity_curve"] > 0
    assert found["node_pair"]["chain._search"] == 0
