"""The benchmark's 6000-row sweep peaks under 3 MB of traced heap.

``tracemalloc`` traces the whole of one ``distance_sweep`` operation of
``bench/workloads.py``: a fresh import of the package, then ``cli.main``
with stdout captured. Work done at import time or written out after the
call cannot escape the measure, and the captured text must carry the
operation's recorded digest, so the whole sweep ran inside it. On CPython
3.11 with numpy 2 the operation peaks at about 2.0 MB, import included.
"""

import contextlib
import io
import json
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads as wl  # noqa: E402

PEAK_LIMIT_BYTES = 3_000_000


def _qrepsim_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "qrepsim" or name.startswith("qrepsim.")}


def test_the_benchmark_sweep_peaks_under_3_mb(tmp_path):
    op = wl.operations("distance_sweep", 0)[0]
    (call,) = op.calls
    config = tmp_path / "op.cfg"
    config.write_text(op.config, encoding="utf-8")
    saved = _qrepsim_modules()
    wl.fresh_import()  # numpy and the standard library modules load outside the measure
    out, err = io.StringIO(), io.StringIO()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = wl.fresh_import().main([*call.argv, "--config", str(config)])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
        for name in _qrepsim_modules():  # the modules the rest of the suite imported
            del sys.modules[name]
        sys.modules.update(saved)
    recorded = json.loads((ROOT / "bench" / "reference.json").read_text(encoding="utf-8"))
    result = wl.CallResult(rc, out.getvalue(), err.getvalue(), None)
    assert wl.digest([result]) == recorded["ops"]["distance_sweep"][0]
    assert peak < PEAK_LIMIT_BYTES, f"peak {peak / 1e6:.2f} MB"
