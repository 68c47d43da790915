#!/usr/bin/env python3
"""Record the output digests that run.py compares against for the shipped seed.

    python3 bench/record_reference.py

Runs every operation of every workload for ``SEED`` once and writes one
digest per operation to reference.json. The digests pin the bytes emitted
at the commit where this was run, so a later change that moves any digit
of any output shows as a failed operation. Other seeds are checked for
invariants only.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl

SEED = 0


def main() -> int:
    wl.ensure_src_on_path()
    from run import REFERENCE, commit

    recorded = {"seed": SEED, "commit": commit(), "ops": {}}
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=wl.ROOT) as work:
        config_path = Path(work) / "op.cfg"
        for name in wl.WORKLOADS:
            digests = []
            for op in wl.operations(name, SEED):
                wl.fresh_import()
                _, results, _, _ = wl.run_op(op, config_path, time.perf_counter)
                digests.append(wl.digest(results))
            recorded["ops"][name] = digests
            print(f"{name}: {len(digests)} operations", file=sys.stderr)
    REFERENCE.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
