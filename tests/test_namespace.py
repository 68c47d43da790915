"""The package namespace is the engine; the dense reference has one import path.

``import qrepsim`` binds the Bell-weight engine and its parameter records.
The dense circuits (density matrices, Kraus channels, the 16-dimensional
purification round) are imported from ``qrepsim.states``, ``qrepsim.noise``
and ``qrepsim.purify`` only, and production modules take nothing from them
but engine names and the two names the benchmark's tracer test pins.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENGINE = {
    "states": {"BELL_LABELS", "BellDiagonalState"},
    "noise": {"GateNoiseParams", "IDEAL_OPS"},
    "link": {
        "CavityParams",
        "LinkBudget",
        "LinkParams",
        "classical_delay_us",
        "expected_esta",
        "herald_success",
        "heralded_state",
        "link_budget",
        "link_transmission",
        "qc_zone_state",
        "reflection_amplitude",
    },
    "purify": {
        "PurificationError",
        "fixed_point_fidelity",
        "purify_ladder_weights",
        "purify_round_weights",
    },
    "schedule": {
        "OperationTimings",
        "ScheduleResult",
        "calibrate_t_proj",
        "rate_fidelity_curve",
        "t_eg",
        "t_puri",
    },
    "chain": {
        "ChainPlan",
        "bell_measurement",
        "optimize_plan",
        "rate_vs_distance",
        "t_repe",
    },
    "config": {"Config", "ConfigError", "load_config", "parse_config"},
}
# dense, but bench/test_spans.py checks that these are bound in the modules that import them
PINNED = {"purify_n_rounds", "expand_operator"}
# the records' range checks, which live beside BellDiagonalState
CHECKS = {"check_finite", "check_positive"}


def test_package_binds_the_engine_and_its_submodules_only():
    # a fresh interpreter, so modules this session imported add no names
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import json, qrepsim; "
        "print(json.dumps(sorted(n for n in dir(qrepsim) if not n.startswith('_'))))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    engine = set().union(*ENGINE.values()) | {"purify_n_rounds"}
    assert len(engine) == 35
    # the keys of ENGINE are the 7 submodules the package imports
    assert set(json.loads(run.stdout)) == engine | set(ENGINE)


def test_production_modules_import_no_dense_name():
    allowed = set().union(ENGINE["states"], ENGINE["noise"], ENGINE["purify"]) | PINNED | CHECKS
    seen = set()
    for module in ("link", "schedule", "chain", "cli", "config"):
        tree = ast.parse((SRC / "qrepsim" / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in (
                "states",
                "noise",
                "purify",
            ):
                names = {alias.name for alias in node.names}
                assert names <= allowed, (module, node.module, names - allowed)
                seen |= names
    assert {"BellDiagonalState", "GateNoiseParams", "purify_ladder_weights"} <= seen
