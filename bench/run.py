#!/usr/bin/env python3
"""qrepsim benchmark: one seeded workload through ``qrepsim.cli.main``.

    python3 bench/run.py --workload point_queries --seed 0 --seconds 40 --trace 0

One client runs a closed loop in this process: the next operation starts
when the previous one has returned and its output has been checked, and
each operation runs on freshly imported qrepsim modules. The seed fixes a
list of operations (workloads.operations). With ``--trace 0`` the run goes
round the list for ``--seconds`` and reports the end-to-end metrics over
the complete rounds, each time scaled to a reference host speed by probes
taken while it ran (hostspeed.py); with ``--trace 1`` it runs each operation
once unwrapped and once with every layer wrapped (see spans.py), and
reports the per-layer metrics and the tracing overhead. The metric names
printed are those listed in BENCHMARK.json. The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import os

# One BLAS / OpenMP thread, set before numpy loads: the program runs on one
# core, and a shared machine gives threaded kernels unstable timings.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402
from hostspeed import PROBE_REF_S, HostClock  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPEATS = 9
MIN_REPEATS = 1  # complete rounds of the operations, at the least
SETUP_CODE = "import qrepsim.cli as cli; cli.load_config(None)"
# Not timed: lets lazy imports and first-call set-up finish before the loop.
WARM_UP = (("link",), ("chain", "--stations", "3", "--distance-km", "10"))
# Run once, untimed and outside the workloads: reports whether the known
# defect (workloads.known_defect) is still there.
DEFECT_ARGV = ("chain", "--stations", "2", "--distance-km", "1100")
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit() -> str | None:
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((wl.SRC / "qrepsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "note": "shared machine: other tenants' load adds run-to-run noise",
    }


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until qrepsim.cli is
    imported and the default config is resolved."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=str(wl.SRC)),
        cwd=wl.ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )  # no timeout: with one, wait() polls in steps of up to 50 ms
    return time.perf_counter() - t0


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile, n).

    Below 4 * TAIL_BEYOND samples, a quarter of them must lie above it, so
    the tail is never below the upper quartile and never a lone maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 1 - min(TAIL_BEYOND, n // 4)
    return ordered[rank], 100.0 * (rank + 1) / n, n


class Loop:
    """Runs operations one after another and keeps what the metrics need."""

    def __init__(self, config_path: Path, reference: list):
        self.config_path = config_path
        self.reference = reference
        self.times = []  # every run, failed or not
        self.rows = {}  # op index -> rows its calls emitted
        self.digests = {}  # op index -> digest of its first run
        self.failures = []  # (op, problems)
        self.plans = 0
        self.bytes = 0

    def run(self, op, tracer=None, clock=time.perf_counter) -> tuple[float, bool]:
        """Runs ``op`` once: (seconds it took, whether it ran without a problem)."""
        wl.fresh_import()
        with tracer or contextlib.nullcontext():
            if tracer:
                tracer.begin_op()
            elapsed, results, problems, rows = wl.run_op(op, self.config_path, clock)
        digest = wl.digest(results)
        if op.index < len(self.reference) and digest != self.reference[op.index]:
            problems.append(f"output digest {digest} differs from reference {self.reference[op.index]}")
        first = self.digests.setdefault(op.index, digest)
        if digest != first:
            problems.append(f"output digest {digest} differs from its first run's {first}")
        self.times.append(elapsed)
        self.rows[op.index] = rows
        self.bytes += sum(len(r.out.encode()) for r in results)
        if op.calls[0].argv[0] in ("chain", "sweep"):
            self.plans += rows
        if problems:
            self.failures.append((op, problems))
        return elapsed, not problems

    def report(self) -> None:
        attempted, failed = len(self.times), len(self.failures)
        print(f"runs: {attempted} attempted, {failed} failed "
              f"(failed_frac = {failed}/{attempted} = {failed / attempted:.4f})")
        for op, problems in self.failures:
            print(f"  failed op {op.index} [{op.label}]: {'; '.join(problems)}")


def run_timed(loop: Loop, ops: list, seconds: float) -> dict:
    """Rounds over ``ops`` until ``seconds`` have passed and MIN_REPEATS rounds are done.

    The metrics pool the runs of the complete rounds, so every operation of
    the list weighs the same in every run. The set-ups are spread evenly
    over the run, between operations. Every time is scaled to the reference
    machine's speed by the probes that ran while it was taken (hostspeed).
    """
    setup, raw_setup = [], []
    good = {}  # op index -> (scaled, unscaled) times of its runs without a problem
    start = time.perf_counter()
    runs = 0
    with HostClock() as host:

        def time_setup() -> None:
            since = len(host.probes)
            raw_setup.append(measure_setup())  # wall time: the probes do not hold up the child
            setup.append(raw_setup[-1] * host.scale(since))

        while runs < MIN_REPEATS * len(ops) or time.perf_counter() - start < seconds:
            if len(setup) < SETUP_REPEATS and time.perf_counter() - start >= len(setup) * seconds / SETUP_REPEATS:
                time_setup()
            else:
                op = ops[runs % len(ops)]
                since = len(host.probes)
                elapsed, ok = loop.run(op, clock=host.now)
                if ok:
                    good.setdefault(op.index, []).append((elapsed * host.scale(since), elapsed))
                runs += 1
        while len(setup) < SETUP_REPEATS:
            time_setup()
    rounds = runs // len(ops)
    pooled = {op.index: good.get(op.index, [])[:rounds] for op in ops}
    samples = [t for times in pooled.values() for t, _ in times] or loop.times
    raw = [t for times in pooled.values() for _, t in times] or loop.times
    rows = sum(loop.rows[i] * len(times) for i, times in pooled.items())
    tail_value, tail_pct, n = tail(samples)
    print(f"host: {len(host.probes)} probes, median {statistics.median(host.probes) * 1e3:.3f} ms "
          f"(reference {PROBE_REF_S * 1e3:g} ms), quartiles "
          f"{', '.join(f'{q * 1e3:.3f}' for q in statistics.quantiles(host.probes, n=4))} ms; "
          f"{host.spent:.2f} s probing, left out of the times; the times below are scaled to the reference")
    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup)} "
          f"(unscaled median {statistics.median(raw_setup):.4f})")
    print(f"{runs} runs of {len(ops)} operations; the metrics pool the {rounds} complete rounds")
    for op in ops:
        print(f"  op {op.index} [{op.label}] runs, ms: {', '.join(f'{t * 1e3:.1f}' for t, _ in pooled[op.index])}")
    print(f"latency_p50_ms unscaled: {statistics.median(raw) * 1e3:.1f}")
    print(f"latency_tail_ms: p{tail_pct:.1f} of {n} runs ({n - round(tail_pct * n / 100.0)} beyond it)")
    print(f"plans_per_s: {rows} rows in {sum(samples):.3f} s of {n} runs ({sum(raw):.3f} s unscaled)")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "plans_per_s": (rows / sum(samples), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(loop: Loop, ops: list) -> dict:
    from spans import NAMES, Tracer

    # Each operation runs once without wrappers and at once again with them,
    # each time on freshly imported modules: the pairs see the same host
    # speed, which gives the tracing overhead, and their bytes must be identical.
    plain = Loop(loop.config_path, loop.reference)
    # Shared, so a traced run whose bytes differ from the untraced run fails.
    loop.digests = plain.digests
    tracer = Tracer()
    for op in ops:
        plain.run(op)
        loop.run(op, tracer)
    traced_s = sum(loop.times)
    untraced_s = sum(plain.times)

    metrics = {}
    for name, (calls, total, own) in tracer.totals().items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.total_s"] = (total, "s")
        metrics[f"{name}.self_s"] = (own, "s")
        metrics[f"{name}.share"] = (total / traced_s, "ratio")
    metrics["purify.purify_n_rounds.rounds"] = (tracer.ladder_rounds, "count")
    metrics["purify.purify_n_rounds.dup_frac"] = (
        tracer.ladder_repeats / tracer.ladders if tracer.ladders else 0.0, "ratio")
    tables = metrics["chain.chain_fidelity_table.calls"][0]
    metrics["chain.chain_fidelity_table.per_plan"] = (tables / loop.plans if loop.plans else 0.0, "ratio")
    search = tracer.time_outside(
        "chain.optimize_plan", ("chain.chain_fidelity_table", "link.qc_zone_state"))
    metrics["chain.optimize_plan.search_share"] = (search / traced_s, "ratio")
    metrics["cli.emit.bytes"] = (loop.bytes, "count")
    metrics["trace.op_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    print(f"traced {len(ops)} operations: {traced_s:.3f} s traced, {untraced_s:.3f} s untraced, "
          f"{len(tracer.start)} spans")
    print(f"ladders: {tracer.ladders} ({tracer.ladder_repeats} repeats), "
          f"tables: {tables} for {loop.plans} plans")
    for name in NAMES:
        calls, total, own = (metrics[f"{name}.{key}"][0] for key in ("calls", "total_s", "self_s"))
        print(f"  {name:32s} calls {calls:8d}  total {total:9.4f} s  self {own:9.4f} s  "
              f"share {total / traced_s:7.2%}")
    return metrics


def wanted_metrics(trace: int) -> dict:
    """{name: unit} of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl.ensure_src_on_path()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = wanted_metrics(args.trace)
    reference = []
    if REFERENCE.is_file():
        recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
        if recorded["seed"] == args.seed:
            reference = recorded["ops"][args.workload]

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(json.dumps({"env": environment(args.seed)}, sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=wl.ROOT) as work:
        config_path = Path(work) / "op.cfg"
        config_path.write_text("", encoding="utf-8")
        for argv_ in WARM_UP:
            wl.invoke(argv_, str(config_path))
        defect = wl.invoke(DEFECT_ARGV, str(config_path))
        state = "present" if defect.exc and wl.known_defect(defect.exc) else f"absent (exit code {defect.rc})"
        print(f"known defect, checked outside the workload: qrepsim {' '.join(DEFECT_ARGV)}: {state}")
        loop = Loop(config_path, reference)
        ops = wl.operations(args.workload, args.seed)
        if args.trace:
            metrics = run_traced(loop, ops)
        else:
            metrics = run_timed(loop, ops, args.seconds)
    loop.report()
    wrong = [name for name, unit in names.items() if metrics.get(name, (0, None))[1] != unit]
    if wrong:
        print(f"error: metrics not measured in the unit BENCHMARK.json gives: {wrong}", file=sys.stderr)
        return 1
    result = {
        "correct": not loop.failures,
        "attempted": len(loop.times),
        "failed": len(loop.failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
