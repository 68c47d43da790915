"""Tests of the benchmark's tracer.

    PYTHONPATH=src python -m pytest bench/test_spans.py -q
"""

from __future__ import annotations

import sys

import pytest

import workloads as wl

wl.ensure_src_on_path()

from qrepsim import cli, noise, states  # noqa: E402
from spans import LAYERS, NAMES, Tracer  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every qrepsim module and traced class, by identity."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "qrepsim" or name.startswith("qrepsim."):
            for attr, value in vars(module).items():
                found[(name, attr)] = value
    for owner in (states.DensityMatrix, states.KrausChannel):
        for attr, value in vars(owner).items():
            found[(owner.__qualname__, attr)] = value
    return found


def test_install_rebinds_every_import_and_uninstall_restores_it():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        during = _bindings()
        wrapped = {key for key, value in during.items() if hasattr(value, "bench_layer")}
        # names imported into other modules are rebound, not just the defining one
        for module, attr in [
            ("qrepsim.states", "expand_operator"),
            ("qrepsim.noise", "expand_operator"),
            ("qrepsim.chain", "expand_operator"),
            ("qrepsim.chain", "purify_n_rounds"),
            ("qrepsim.schedule", "purify_n_rounds"),
            ("qrepsim.cli", "purify_n_rounds"),
            ("qrepsim", "purify_n_rounds"),
            ("qrepsim.cli", "emit"),
            ("qrepsim.cli", "load_config"),
            ("DensityMatrix", "validate"),
            ("KrausChannel", "validate"),
        ]:
            assert (module, attr) in wrapped
        assert {during[key].bench_layer for key in wrapped} == set(NAMES)
        # every rebound name held the function that was traced under it
        for key in wrapped:
            assert before[key] is during[key].__wrapped__
        noise.noisy_two_qubit_gate(states.werner(0.9), "cnot", (0, 1), noise.IDEAL_OPS)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert len(wrapped) > len(LAYERS)
    assert tracer.totals()["noise.noisy_two_qubit_gate"][0] == 1


def test_uninstall_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            cli.main(["chain", "--stations", "2", "--distance-km", "1100"])
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_traced_output_is_byte_identical_and_self_times_add_up(tmp_path):
    config = tmp_path / "op.cfg"
    config.write_text("", encoding="utf-8")
    argv = ("chain", "--stations", "3", "--distance-km", "40", "--format", "json")
    plain = wl.invoke(argv, str(config))
    tracer = Tracer()
    with tracer:
        traced = wl.invoke(argv, str(config))
    assert plain.rc == traced.rc == 0
    assert traced.out == plain.out
    totals = tracer.totals()
    roots = [i for i in range(len(tracer.start)) if tracer.parent[i] < 0]
    root_time = sum(tracer.end[i] - tracer.start[i] for i in roots)
    assert sum(own for _, _, own in totals.values()) == pytest.approx(root_time, rel=1e-9)
    assert totals["chain.chain_fidelity_table"][0] == 1
    assert totals["chain.bell_measurement"][0] == 9  # one swap level per pre-swap state


def test_operations_repeat_for_a_seed_and_cover_each_design_equally():
    for name in wl.WORKLOADS:
        assert wl.operations(name, 5) == wl.operations(name, 5)
        assert wl.operations(name, 5) != wl.operations(name, 6)
    queries = wl.operations("point_queries", 5)
    combos = {(int(op.calls[0].argv[2]), "--fc" in op.calls[0].argv) for op in queries}
    assert combos == {(m, fc) for m in wl.STATIONS for fc in (False, True)}
    assert len(queries) == len(combos)


def test_fresh_import_replaces_every_qrepsim_module():
    def loaded():
        return {name: module for name, module in sys.modules.items() if name.split(".")[0] == "qrepsim"}

    before = loaded()
    cli_module = wl.fresh_import()
    after = loaded()
    assert cli_module is after["qrepsim.cli"]
    assert set(before) <= set(after)
    assert all(after[name] is not module for name, module in before.items())
