#!/usr/bin/env python3
"""Output digests of every benchmark operation, for a differential check.

    python tests/digests.py [--seeds 0 1 2 3] [--workloads NAME ...] [--compare FILE]

Runs each operation of each named workload (default: all of
``bench/workloads.py``) for each seed once, on freshly imported qrepsim
modules from this checkout's ``src``, and prints ``{"workload/seed/op":
digest}`` as JSON. A digest covers the operation's exit codes, exceptions
and output bytes (``workloads.digest``). With ``--compare FILE``, a JSON
file printed by an earlier run, for instance at another commit, it instead
lists the operations whose digests differ or that only one side ran, and
exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads as wl  # noqa: E402


def digests(workloads, seeds) -> dict[str, str]:
    wl.ensure_src_on_path()
    found = {}
    with tempfile.TemporaryDirectory() as work:
        config_path = Path(work) / "op.cfg"
        for name in workloads:
            for seed in seeds:
                for op in wl.operations(name, seed):
                    wl.fresh_import()
                    _, results, _, _ = wl.run_op(op, config_path, time.perf_counter)
                    found[f"{name}/{seed}/{op.index}"] = wl.digest(results)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument(
        "--workloads", nargs="+", choices=sorted(wl.WORKLOADS), default=list(wl.WORKLOADS)
    )
    parser.add_argument("--compare", type=Path, help="digests printed by an earlier run")
    args = parser.parse_args(argv)
    found = digests(args.workloads, args.seeds)
    if args.compare is None:
        print(json.dumps(found, indent=1))
        return 0
    other = json.loads(args.compare.read_text(encoding="utf-8"))
    keys = found.keys() | other.keys()
    differing = sorted(key for key in keys if found.get(key) != other.get(key))
    for key in differing:
        print(f"{key}: {other.get(key, '-')} -> {found.get(key, '-')}")
    print(f"{len(differing)} of {len(keys)} operations differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
