"""``tests/design_metrics.py``: the package's size counts, as JSON.

The script runs in its own interpreter, so that the modules this test
session imported do not add names to the package.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_design_metrics_counts_the_package():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "design_metrics.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    found = json.loads(run.stdout)
    assert list(found) == ["src_lines", "public_names", "noqa_markers"]
    assert all(isinstance(count, int) and count > 0 for count in found.values())
    # bench/test_spans.py pins three unused imports, each kept by a noqa marker
    assert found["noqa_markers"] >= 3
