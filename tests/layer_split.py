#!/usr/bin/env python3
"""Median time per operation of each named layer of the benchmark workloads.

    python tests/layer_split.py [--seeds 0] [--workloads NAME ...] [--ops N] [--repeats R]

Runs the first ``--ops`` operations (default: all) of each named workload
of ``bench/workloads.py`` for each seed, ``--repeats`` times each. Before
every run it imports qrepsim afresh from this checkout's ``src`` and rebinds
each name in ``LAYERS`` from outside to a wrapper that adds up its time;
the program's own code is not changed. The layers do not call each other,
so their times add up to no more than the operation's. Prints
``{workload: {name: median ms per operation}}`` as JSON, with the whole
operation under ``"operation"``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads as wl  # noqa: E402

# (module, name): each is looked up in that module's globals when it is called
LAYERS = (
    ("cli", "_read_args"),
    ("cli", "load_config"),
    ("chain", "_rows"),
    ("chain", "_search"),
    ("chain", "chain_fidelity_table"),
    ("cli", "emit"),
    ("cli", "rate_fidelity_curve"),
)
NAMES = tuple(f"{module}.{name}" for module, name in LAYERS)
OPERATION = "operation"


def _timed(fn, spent: dict, name: str):
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += clock() - start

    return wrapper


def split(op, config_path: Path) -> dict[str, float]:
    """Seconds of one run of ``op`` and of each layer in it, on fresh modules."""
    wl.fresh_import()
    spent = dict.fromkeys(NAMES, 0.0)
    for (module_name, attr), name in zip(LAYERS, NAMES):
        module = importlib.import_module(f"qrepsim.{module_name}")
        setattr(module, attr, _timed(getattr(module, attr), spent, name))
    spent[OPERATION], _, problems, _ = wl.run_op(op, config_path, time.perf_counter)
    if problems:
        raise RuntimeError(f"{op.label}: {problems[0]}")
    return spent


def layer_split(workloads, seeds, ops: int | None, repeats: int) -> dict:
    wl.ensure_src_on_path()
    found = {}
    with tempfile.TemporaryDirectory() as work:
        config_path = Path(work) / "op.cfg"
        for workload in workloads:
            runs = [
                split(op, config_path)
                for seed in seeds
                for op in wl.operations(workload, seed)[:ops]
                for _ in range(repeats)
            ]
            found[workload] = {
                name: round(statistics.median(run[name] for run in runs) * 1e3, 4)
                for name in (*NAMES, OPERATION)
            }
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument(
        "--workloads", nargs="+", choices=sorted(wl.WORKLOADS), default=list(wl.WORKLOADS)
    )
    parser.add_argument("--ops", type=int, default=None, help="operations per workload and seed")
    parser.add_argument("--repeats", type=int, default=1, help="runs of each operation")
    args = parser.parse_args(argv)
    print(json.dumps(layer_split(args.workloads, args.seeds, args.ops, args.repeats), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
