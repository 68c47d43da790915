"""The array (N1, N2) plan search equals the scalar search, field by field.

``scalar_search`` holds the cell-by-cell loop that the package replaced.
On generated chains, options and targets, ``optimize_plan`` and
``rate_vs_distance`` must return the same ``ChainPlan`` values as that loop,
compared with ``==`` and by type, or raise the same error. The one intended
difference: where the loop reports a feasible plan whose T_QR overflowed to
infinity, the package raises ``ValueError``. Hand-built tables reach the
package by patching ``chain.chain_fidelity_table`` for the call, cut to the
search bound, and the loop uncut by its ``table`` argument with that bound,
so cutting a table equals bounding its search. A larger search bound never
loses a plan.
Generation is derandomized so the suite is repeatable.
"""

import contextlib
import io
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_search
from qrepsim import (
    CavityParams,
    GateNoiseParams,
    LinkParams,
    OperationTimings,
    chain,
    optimize_plan,
    qc_zone_state,
    rate_vs_distance,
)
from qrepsim.chain import ChainFidelityTable, chain_fidelity_table, check_stations
from qrepsim.cli import main

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
OVERFLOW = (ValueError, "t_qr_us must be finite, got inf")
SRC = Path(__file__).resolve().parents[1] / "src"
DEFAULTS = (LinkParams(), GateNoiseParams(), OperationTimings())

stations = st.sampled_from([2, 3, 5, 9, 17, 33])
# up to 1012 km: past the T_QR overflow of M = 2 without FC, short of the link budget's own
lengths = st.one_of(
    st.sampled_from([0.1, 25.0, 1000.0, 1005.0, 1010.0, 1012.0]), st.floats(0.01, 1012.0)
)
fc_modes = st.sampled_from([(False,), (True,), (False, True), (True, False)])
# a plain target, or ("cell", i): the i-th smallest end fidelity of the table, met exactly
targets = st.one_of(
    st.sampled_from([0.0, 0.9, 0.99, 0.995, 0.999]),
    st.floats(0.0, 0.9999),
    st.integers(0, 80).map(lambda i: ("cell", i)),
)


@st.composite
def designs(draw):
    link = LinkParams(
        herald_mode=draw(st.sampled_from(["serial", "pipelined"])),
        esta_convention=draw(st.sampled_from(["text", "table"])),
        cz_accounting=draw(st.sampled_from(["paper", "per_cavity"])),
        technical_fidelity=draw(st.floats(0.9, 1.0)),
    )
    noise = GateNoiseParams(
        f_op=draw(st.one_of(st.just(1.0), st.floats(0.97, 1.0))),
        eta_meas=draw(st.one_of(st.just(1.0), st.floats(0.95, 1.0))),
    )
    timings = OperationTimings(
        t_proj_us=draw(st.floats(50.0, 400.0)),
        move_accounting=draw(st.sampled_from(["averaged", "explicit"])),
        parallel_links=draw(st.integers(1, 4)),
    )
    return link, replace(noise, f_move=draw(st.floats(0.9, 1.0))), timings


def _target(spec, link, noise, m_stations, n_max):
    if not isinstance(spec, tuple):
        return spec
    table = chain_fidelity_table(
        qc_zone_state(link, noise), check_stations(m_stations), noise, n_max
    )
    cells = sorted(f for row in table.end_fidelities[: n_max + 1] for f in row[: n_max + 1])
    return cells[spec[1] % len(cells)]


def _cut(table, n):
    """The first n rounds of ``table``: the package searches every round of its tables."""
    return ChainFidelityTable(
        table.pre_swap_fidelities[: n + 1],
        table.pre_swap_p[:n],
        tuple(row[: n + 1] for row in table.end_fidelities[: n + 1]),
        tuple(row[:n] for row in table.end_p[: n + 1]),
    )


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _fields(plan):
    return [(name, type(value), value) for name, value in vars(plan).items()]


def _expected(reference):
    """The scalar outcome, with an overflowed feasible T_QR turned into the package's error."""
    if isinstance(reference, tuple):
        return reference
    plans = reference if isinstance(reference, list) else [reference]
    if any(p.feasible and not np.isfinite(p.t_qr_us) for p in plans):
        return OVERFLOW
    return [_fields(p) for p in plans] if isinstance(reference, list) else _fields(reference)


def _observed(outcome):
    if isinstance(outcome, tuple):
        return outcome
    return [_fields(p) for p in outcome] if isinstance(outcome, list) else _fields(outcome)


@PROPERTY
@given(
    design=designs(),
    distances=st.lists(lengths, max_size=4),
    station_list=st.lists(stations, min_size=1, max_size=3),
    fc=fc_modes,
    target=targets,
    n_max=st.integers(0, 8),
)
# at the defaults T_QR overflows at 1010 km (M = 2, no FC), and only there
@example(DEFAULTS, [1010.0, 1000.0, 1010.0], [2, 5], (True, False), 0.99, 8)
@example(DEFAULTS, [1000.0, 1000.0], [2, 2], (False,), 0.99, 8)
def test_rate_vs_distance_equals_scalar_search(design, distances, station_list, fc, target, n_max):
    link, noise, timings = design
    target = _target(target, link, noise, station_list[0], n_max)
    args = (distances, station_list, fc, CavityParams(), link, noise, timings)
    kwargs = dict(fidelity_target=target, n_max=n_max)
    reference = _outcome(scalar_search.rate_vs_distance, *args, **kwargs)
    assert _observed(_outcome(rate_vs_distance, *args, **kwargs)) == _expected(reference)


# Values a row can fail on: a length that is zero, negative or not finite; a
# subnormal length whose link length underflows to 0; and M = 2 without FC
# past the link budget's limits (T_esta overflows near 1015 km; herald
# success underflows to 0, a ZeroDivisionError for a Python float, past 1026 km).
bad_lengths = st.sampled_from([0.0, -5.0, math.nan, math.inf, -math.inf, 5e-324, 1015.0, 1100.0])
bad_targets = st.sampled_from([1.0, 1.5, math.nan])
TIMES = ("t_qr_us", "rate_hz")


@PROPERTY
@given(
    design=designs(),
    distances=st.lists(st.one_of(lengths, bad_lengths), max_size=4),
    # the CLI's distances are numpy floats, which overflow instead of raising
    numpy_lengths=st.booleans(),
    station_list=st.lists(st.one_of(stations, st.sampled_from([1, 4])), max_size=3),
    fc=st.one_of(fc_modes, st.just(())),
    target=st.one_of(targets.filter(lambda t: not isinstance(t, tuple)), bad_targets),
    n_max=st.integers(0, 8),
)
@example(DEFAULTS, [1100.0], False, [2], (False,), 0.99, 8)
@example(DEFAULTS, [1100.0], True, [2], (False,), 0.99, 8)
@example(DEFAULTS, [1100.0, math.nan], False, [5, 2], (True, False), 0.99, 8)
@example(DEFAULTS, [math.nan, 1100.0], False, [5, 2], (True, False), 0.99, 8)
@example(DEFAULTS, [-5.0], False, [5], (False,), 1.5, 8)
@example(DEFAULTS, [-5.0], False, [5], (False,), math.nan, 8)
@example(DEFAULTS, [], False, [5], (False,), 1.5, 8)
@example(DEFAULTS, [1.0, 5e-324], False, [3], (True,), 0.99, 8)
@example(DEFAULTS, [math.nan], False, [4, 2], (True,), 0.99, 8)
@example(DEFAULTS, [5.0], False, [2, 4, 1], (True,), 0.99, 8)
@example(DEFAULTS, [1.0, math.inf], False, [5], (True,), 0.99, 8)
# a failing length deep in a list of good ones: T_esta overflows, or herald success underflows
@example(DEFAULTS, [*map(float, range(1, 11)), 1015.0, *map(float, range(11, 21))], True, [2],
         (False, True), 0.99, 8)
@example(DEFAULTS, [*map(float, range(1, 11)), 1100.0, *map(float, range(11, 21))], False,
         [5, 2], (False,), 0.99, 8)
# a failure only at a later length, then only in a later (M, fc) column: M = 3's link underflows
@example(DEFAULTS, [10.0, 1100.0], False, [5, 2], (True, False), 0.99, 8)
@example(DEFAULTS, [1.0, 5e-324], False, [3, 2], (False, True), 0.99, 8)
# a length whose power of ten would overflow; NaN leaves it after a good first length
@example(DEFAULTS, [-5000.0], False, [2], (False,), 0.99, 8)
@example(DEFAULTS, [-5000.0], True, [2], (False,), 0.99, 8)
@example(DEFAULTS, [5.0, math.nan, -5000.0], False, [2], (False,), 0.99, 8)
@example(DEFAULTS, [5.0, math.nan, -5000.0], True, [2], (False,), 0.99, 8)
def test_rate_vs_distance_raises_the_first_failing_rows_error(
    design, distances, numpy_lengths, station_list, fc, target, n_max
):
    link, noise, timings = design
    if numpy_lengths:
        distances = [np.float64(d) for d in distances]
    args = (distances, station_list, fc, CavityParams(), link, noise, timings)
    kwargs = dict(fidelity_target=target, n_max=n_max)
    # the reference's own numpy overflow warnings; the package must raise none
    with np.errstate(over="ignore", divide="ignore"):
        expected = _expected(_outcome(scalar_search.rate_vs_distance, *args, **kwargs))
    if numpy_lengths and isinstance(expected, list):
        # the loop's scalar max keeps a numpy T_QR and rate; the array search gives Python floats
        expected = [
            [(name, float if name in TIMES else kind, value) for name, kind, value in plan]
            for plan in expected
        ]
    assert _observed(_outcome(rate_vs_distance, *args, **kwargs)) == expected


@settings(PROPERTY, max_examples=240)  # about 100 of the queries then return a plan
@given(
    design=designs(),
    length=st.one_of(lengths, bad_lengths),
    m_stations=st.one_of(stations, st.sampled_from([1, 4])),
    fc=st.booleans(),
    target=st.one_of(targets, bad_targets),
    n_max=st.integers(0, 8),
    shared_table=st.booleans(),
)
@example(DEFAULTS, 1010.0, 2, False, 0.99, 8, False)
@example(DEFAULTS, 1010.0, 2, False, 0.99, 5, True)
# failing inputs alone and together: M first, then L or the target not finite, then L <= 0, then
# the target out of range; at 1100 km herald success underflows to 0 (ZeroDivisionError)
@example(DEFAULTS, 25.0, 4, False, 0.99, 8, False)
@example(DEFAULTS, math.nan, 1, False, 1.5, 8, False)
@example(DEFAULTS, -5.0, 5, False, 0.99, 8, True)
@example(DEFAULTS, 25.0, 5, False, 1.5, 8, False)
@example(DEFAULTS, -5.0, 5, False, math.nan, 8, False)
@example(DEFAULTS, -5.0, 5, False, 1.0, 8, False)
@example(DEFAULTS, 1100.0, 2, False, 0.99, 8, False)
def test_optimize_plan_equals_scalar_search(
    design, length, m_stations, fc, target, n_max, shared_table
):
    link, noise, timings = design
    levels = _outcome(check_stations, m_stations)
    if isinstance(levels, tuple):  # M fails before the target is read
        target = 0.99 if isinstance(target, tuple) else target
    else:
        target = _target(target, link, noise, m_stations, n_max)
    # an 8-round table cut to n_max (the loop searches it only up to n_max), or one built for n_max
    table, shared = None, contextlib.nullcontext()
    if shared_table and not isinstance(levels, tuple):
        table = chain_fidelity_table(qc_zone_state(link, noise), levels, noise, 8)
        shared = patch.object(chain, "chain_fidelity_table", return_value=_cut(table, n_max))
    args = (m_stations, length, CavityParams(), link, noise, timings)
    kwargs = dict(n_max=n_max, fc=fc, fidelity_target=target)
    reference = _outcome(scalar_search.optimize_plan, *args, table=table, **kwargs)
    with shared:
        plan = _observed(_outcome(optimize_plan, *args, **kwargs))
    assert plan == _expected(reference)
    # the same query as a one-row grid
    grid = ([length], [m_stations], (fc,), *args[2:])
    row = _outcome(rate_vs_distance, *grid, fidelity_target=target, n_max=n_max)
    assert _observed(row) == (plan if isinstance(plan, tuple) else [plan])


@PROPERTY
@given(
    design=designs(),
    distances=st.lists(lengths, min_size=1, max_size=3),
    m_stations=stations,
    fc=st.booleans(),
    cell=st.integers(0, 80),
    # the cell's fidelity itself, or the slack edge where it stops meeting the target
    slack=st.sampled_from([0.0, 1e-12]),
    ulps=st.sampled_from([-1, 0, 1]),
    n_max=st.integers(0, 8),
)
@example(DEFAULTS, [25.0], 5, False, 40, 0.0, 0, 8)
@example(DEFAULTS, [25.0], 5, False, 40, 1e-12, 1, 8)
def test_a_target_at_a_cell_or_one_ulp_away_gives_the_scalar_plan(
    design, distances, m_stations, fc, cell, slack, ulps, n_max
):
    link, noise, timings = design
    target = _target(("cell", cell), link, noise, m_stations, n_max) + slack
    if ulps:
        target = math.nextafter(target, ulps * math.inf)
    args = (m_stations, distances[0], CavityParams(), link, noise, timings)
    kwargs = dict(n_max=n_max, fc=fc, fidelity_target=target)
    reference = _outcome(scalar_search.optimize_plan, *args, **kwargs)
    assert _observed(_outcome(optimize_plan, *args, **kwargs)) == _expected(reference)
    grid = (distances, [m_stations], (fc,), *args[2:])
    kwargs = dict(fidelity_target=target, n_max=n_max)
    reference = _outcome(scalar_search.rate_vs_distance, *grid, **kwargs)
    assert _observed(_outcome(rate_vs_distance, *grid, **kwargs)) == _expected(reference)


@PROPERTY
@given(
    design=designs(),
    length=lengths,
    m_stations=stations,
    fc=st.booleans(),
    target=targets,
    bounds=st.lists(st.integers(0, 8), min_size=2, max_size=2, unique=True).map(sorted),
)
@example(DEFAULTS, 25.0, 5, False, 0.99, [5, 8])
@example(DEFAULTS, 1010.0, 2, False, 0.99, [0, 8])  # T_QR overflows at both bounds
def test_a_larger_search_bound_never_loses_a_plan(design, length, m_stations, fc, target, bounds):
    link, noise, timings = design
    target = _target(target, link, noise, m_stations, bounds[1])  # a cell met at the larger bound
    args = (m_stations, length, CavityParams(), link, noise, timings)
    small, large = [
        _outcome(optimize_plan, *args, n_max=n_max, fc=fc, fidelity_target=target)
        for n_max in bounds
    ]
    if OVERFLOW not in (small, large) and (isinstance(small, tuple) or isinstance(large, tuple)):
        assert small == large  # an error of the row, not of the search bound
        return
    searches = []  # (feasible, T_QR), an overflowing feasible T_QR as infinity
    for outcome in (small, large):
        if outcome == OVERFLOW:
            searches.append((True, math.inf))
            continue
        searches.append((outcome.feasible, outcome.t_qr_us))
        if outcome.feasible:  # within the search's documented slack, at a positive rate
            assert outcome.f_m >= target - 1e-12
            assert outcome.rate_hz > 0
    (feasible, t_qr), (feasible_large, t_qr_large) = searches
    # infeasible at the larger bound implies infeasible at the smaller one
    assert feasible <= feasible_large
    if feasible:  # a cell's T_QR does not depend on the bound
        assert t_qr_large <= t_qr


@st.composite
def built_tables(draw):
    """Hand-made tables: few distinct fidelities (so cells tie) and any P_puri in (0, 1]."""
    rounds = draw(st.integers(1, 8))
    fidelity = st.sampled_from([0.5, 0.9, 0.99, 0.999])
    # small P_puri make the post-swap purification the larger side of T_QR
    p_puri = st.one_of(st.just(1.0), st.floats(1e-3, 1.0), st.floats(1e-3, 1e-2))
    return ChainFidelityTable(
        pre_swap_fidelities=(0.9,) * (rounds + 1),
        pre_swap_p=tuple(draw(p_puri) for _ in range(rounds)),
        end_fidelities=tuple(
            tuple(draw(fidelity) for _ in range(rounds + 1)) for _ in range(rounds + 1)
        ),
        end_p=tuple(tuple(draw(p_puri) for _ in range(rounds)) for _ in range(rounds + 1)),
    )


@PROPERTY
@given(
    table=built_tables(),
    length=st.floats(0.01, 1000.0),
    m_stations=stations,
    fc=st.booleans(),
    t_proj_us=st.one_of(st.sampled_from([1e-3, 1.0, 200.0]), st.floats(1e-3, 1e4)),
    # a fidelity in the table, met exactly, within the 1e-12 slack, or just missed
    target=st.sampled_from([0.5, 0.9, 0.99, 0.999]),
    offset=st.sampled_from([0.0, 5e-13, 2e-12]),
    n_max=st.integers(0, 8),
)
# only N2 = 3 is feasible and its purification term dominates: pins the order of its sum
@example(
    ChainFidelityTable(
        (0.9,) * 4,
        (1.0,) * 3,
        ((0.5, 0.5, 0.5, 0.99),) * 4,
        ((0.0055, 0.005, 0.0069),) * 4,
    ),
    788.9, 33, True, 200.0, 0.99, 0.0, 3,
)
def test_search_equals_scalar_search_on_built_tables(
    table, length, m_stations, fc, t_proj_us, target, offset, n_max
):
    timings = OperationTimings(t_proj_us=t_proj_us)
    args = (m_stations, length, CavityParams(), LinkParams(), GateNoiseParams(), timings)
    kwargs = dict(n_max=min(n_max, len(table.pre_swap_p)))
    kwargs.update(fc=fc, fidelity_target=target + offset)
    reference = _outcome(scalar_search.optimize_plan, *args, table=table, **kwargs)
    with patch.object(chain, "chain_fidelity_table", return_value=_cut(table, kwargs["n_max"])):
        assert _observed(_outcome(optimize_plan, *args, **kwargs)) == _expected(reference)


@pytest.mark.parametrize(
    "t_proj_us, p_post, cells, best",
    [
        # generation limited: T_QR(0, 1) = T_QR(1, 0) = 2 T_stage; the smaller N2 wins
        (1e-3, 1.0, [(0, 1), (1, 0)], (1, 0)),
        # one slow post-swap round: T_QR(1, 1) = T_QR(0, 1); at equal N2 the smaller N1 wins
        (200.0, 1e-3, [(1, 1), (0, 1)], (0, 1)),
    ],
)
def test_equal_t_qr_breaks_ties_by_n2_then_n1(t_proj_us, p_post, cells, best):
    args = (2, 0.1, CavityParams(), LinkParams(), GateNoiseParams())
    args += (OperationTimings(t_proj_us=t_proj_us),)

    def search(feasible_cells):
        end_f = tuple(
            tuple(0.99 if (n1, n2) in feasible_cells else 0.5 for n2 in range(2))
            for n1 in range(2)
        )
        table = ChainFidelityTable((0.9, 0.95), (1.0,), end_f, ((p_post,), (p_post,)))
        with patch.object(chain, "chain_fidelity_table", return_value=table):
            plan = optimize_plan(*args, n_max=1, fidelity_target=0.99)
        return plan, scalar_search.optimize_plan(*args, n_max=1, table=table, fidelity_target=0.99)

    alone = [search({cell})[0] for cell in cells]
    assert [(p.n1, p.n2) for p in alone] == cells
    assert alone[0].t_qr_us == alone[1].t_qr_us
    plan, reference = search(set(cells))
    assert (plan.n1, plan.n2) == best
    assert plan == reference


def _first_p(p):
    """Patch ``chain.purify_ladder_weights`` to report ``p`` as each ladder's first P_puri."""
    ladder = chain.purify_ladder_weights

    def patched(initial, n, params):
        states, p_list = ladder(initial, n, params)
        return states, (p, *p_list[1:])

    return patch.object(chain, "purify_ladder_weights", patched)


@pytest.mark.parametrize("p", [0.0, 1.5])
def test_a_p_puri_outside_the_unit_interval_is_an_error(p):
    message = f"p_puri {p} outside (0, 1]"
    with _first_p(p), pytest.raises(ValueError) as raised:
        chain.plan_columns([40.0], [3], [False], CavityParams(), *DEFAULTS)
    assert str(raised.value) == message
    out, err = io.StringIO(), io.StringIO()
    with _first_p(p), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["chain", "--stations", "3", "--distance-km", "40"])
    assert (rc, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")


def _cli(*argv, src=SRC):
    """``python -B -m qrepsim`` in a bare environment: no bytecode is written under ``src``."""
    env = {"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-B", "-m", "qrepsim", *argv], capture_output=True, text=True, env=env
    )


def test_cli_subprocesses_leave_no_bytecode_in_the_sources(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    result = _cli("chain", "--stations", "2", "--distance-km", "1000", src=src)
    assert result.returncode == 0
    assert list(src.rglob("__pycache__")) == []


def test_overflowing_t_qr_is_an_error_not_a_feasible_row():
    result = _cli("chain", "--stations", "2", "--distance-km", "1010")
    assert result.returncode == 2
    assert result.stderr == "error: t_qr_us must be finite, got inf\n"
    assert result.stdout == ""


def test_largest_finite_t_qr_row_is_unchanged():
    result = _cli("chain", "--stations", "2", "--distance-km", "1000")
    assert result.returncode == 0
    assert result.stderr == ""
    row = result.stdout.splitlines()[-1]
    assert row == "1000,2,0,0.99,4,0,0.992256306,3.48124387e+305,2.87253648e-300,true"


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--stations", "2", "--distances", "900:1100:5,lin"),
        ("chain", "--stations", "2", "--distance-km", "1015"),
    ],
)
def test_infinite_t_esta_exits_2_before_any_search(argv):
    result = _cli(*argv)
    assert result.returncode == 2
    assert result.stderr == "error: t_esta_us must be finite, got inf\n"
    assert result.stdout == ""


SWEEP_GRID = ("sweep", "--stations", "2,5", "--distances", "1000:1100:3,lin", "--fc", "both")
T_ESTA = "error: t_esta_us must be finite, got inf\n"


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (("sweep", "--stations", "2", "--distances", "1015:1015:1", "--fc", "off"), T_ESTA),
        (("sweep", "--stations", "2", "--distances", "1100:1100:1", "--fc", "off"), T_ESTA),
        # the failing row (1050 km, M = 2, no FC) is neither the first row nor at the first length
        (SWEEP_GRID, T_ESTA),
        ((*SWEEP_GRID, "--format", "json"), T_ESTA),
        (
            ("sweep", "--stations", "2", "--distances", "1005:1012:8,lin", "--fc", "off"),
            "error: t_qr_us must be finite, got inf\n",
        ),
    ],
)
def test_cli_sweep_rejects_an_infinite_time(argv, stderr):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    assert (rc, out.getvalue(), err.getvalue()) == (2, "", stderr)
