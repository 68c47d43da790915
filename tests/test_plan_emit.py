"""A sweep's plan writer prints the per-cell reference's text, in CSV and JSON.

``cli.emit`` writes the plans of ``chain`` and ``sweep`` alike from the
columns of ``chain.plan_columns`` and formats per row only T_QR and rate;
``cli`` takes nothing else from ``chain``, so a chain query is a one-length
sweep. ``cell_emit.render`` formats every
cell of ``rate_vs_distance``'s plans on its own, in ``_PLAN_COLUMNS`` order
with FC as 1/0. On generated configs, station lists that hold M = 2, FC
modes, lin and log grids of one to many points and targets that no cell
meets or that sit exactly at a cell's fidelity, ``sweep`` and ``chain`` must
print the reference's text with the same exit code, or both must fail with
the same error; ``chain``'s exit 3 also names the best cell reached on
stderr. The writer is also called on its own with Python-float and
numpy-float lengths. Generation is derandomized so the suite is repeatable.
"""

import ast
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cell_emit
from qrepsim import cli, rate_vs_distance
from qrepsim.chain import chain_fidelity_table, check_stations, plan_columns
from qrepsim.config import ConfigError, load_config, parse_config, records
from qrepsim.link import qc_zone_state

EXACT = settings(max_examples=60, deadline=None, derandomize=True, database=None)
FC_MODES = {"both": (False, True), "on": (True,), "off": (False,)}
formats = st.sampled_from(["csv", "json"])
# M = 2 and up to three more station counts, in any order
station_lists = st.lists(st.sampled_from([3, 5, 9, 17, 33]), unique=True, max_size=3).flatmap(
    lambda more: st.permutations([2, *more])
)
# past about 1012 km T_esta overflows for M = 2 without FC; past 1079 km herald success is 0
lengths = st.one_of(
    st.sampled_from([0.1, 25.0, 250.0, 1010.0, 1015.0, 1100.0]), st.floats(0.01, 1000.0)
)
# a plain target, or ("cell", i, j): the i-th smallest end fidelity of the j-th station count's
# table, met exactly; 0.9999 is above every cell of the generated designs but the perfect ones
targets = st.one_of(
    st.sampled_from([0.0, 0.9, 0.99, 0.9999]),
    st.tuples(st.just("cell"), st.integers(0, 80), st.integers(0, 3)),
)


@st.composite
def configs(draw) -> dict:
    """Config keys other than the target, drawn from their valid ranges."""
    return {
        "f_op": draw(st.one_of(st.just(1.0), st.floats(0.97, 1.0))),
        "eta_meas": draw(st.one_of(st.just(1.0), st.floats(0.95, 1.0))),
        "f_move": draw(st.floats(0.9, 1.0)),
        "technical_fidelity": draw(st.floats(0.9, 1.0)),
        "t_proj_us": draw(st.floats(50.0, 400.0)),
        "parallel_links": draw(st.integers(1, 4)),
        "herald_mode": draw(st.sampled_from(["serial", "pipelined"])),
        "esta_convention": draw(st.sampled_from(["text", "table"])),
        "cz_accounting": draw(st.sampled_from(["paper", "per_cavity"])),
        "move_accounting": draw(st.sampled_from(["averaged", "explicit"])),
    }


@st.composite
def grids(draw) -> tuple:
    """(lo, hi, points, scale) of a ``--distances`` grid, 0 < lo <= hi."""
    lo, hi = sorted(draw(st.lists(lengths, min_size=2, max_size=2)))
    points = draw(st.one_of(st.just(1), st.integers(2, 40)))
    return lo, hi, points, draw(st.sampled_from(["log", "lin"]))


def _grid(grid) -> tuple[str, np.ndarray]:
    """The ``--distances`` text of a grid, and its lengths as numpy computes them."""
    lo, hi, points, scale = grid
    spaced = (np.geomspace if scale == "log" else np.linspace)(lo, hi, points)
    return f"{lo!r}:{hi!r}:{points},{scale}", spaced


def _config_text(values: dict, target, stations) -> tuple[str, float]:
    """A config file's text without the target, and the target resolved to a number."""
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    if isinstance(target, tuple):
        _, link, noise, _ = records(parse_config(text))
        m_stations = stations[target[2] % len(stations)]
        table = chain_fidelity_table(qc_zone_state(link, noise), check_stations(m_stations), noise)
        cells = sorted(f for row in table.end_fidelities for f in row)
        target = cells[target[1] % len(cells)]
    return text, target


def _outcome(fn):
    """``fn()``, or the (type, message) of what it raised."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def _rows(plans) -> list[tuple]:
    """Plans in ``_PLAN_COLUMNS`` order, FC as 1/0."""
    return [
        (p.total_length_km, p.m_stations, 1 if p.fc_enabled else 0, p.fidelity_target, p.n1,
         p.n2, p.f_m, p.t_qr_us, p.rate_hz, p.feasible)
        for p in plans
    ]


def _run(argv) -> tuple:
    """(exit code, stdout, stderr) of the CLI, or (type, message) of a crash."""
    out, err = io.StringIO(), io.StringIO()

    def run():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(argv), out.getvalue(), err.getvalue()

    return _outcome(run)


def _reference(path, fmt, lengths, stations, fc_modes, target=None, chain=False) -> tuple:
    """What the CLI must give: the per-cell text of ``rate_vs_distance``'s plans, or its error."""
    try:
        config = load_config(path)
        target = config.fidelity_target if target is None else target
        plans = rate_vs_distance(
            lengths, stations, fc_modes, *records(config), fidelity_target=target
        )
    except ConfigError as exc:
        return 2, "", f"config error: {exc}\n"
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    except Exception as exc:
        return type(exc), str(exc)
    text = cell_emit.render(fmt, cli._PLAN_COLUMNS, _rows(plans), config)
    if not chain or plans[0].feasible:
        return 0, text, ""
    best = plans[0]  # the best fidelity reached, named on stderr with exit 3
    return 3, text, (
        f"infeasible: no plan with N1, N2 <= 8 reaches target {target:.9g}; "
        f"best f_m {best.f_m:.9g} at N1={best.n1}, N2={best.n2}\n"
    )


@EXACT
@given(
    values=configs(), stations=station_lists, fc=st.sampled_from(sorted(FC_MODES)),
    grid=grids(), target=targets, fmt=formats,
)
# 1200 lengths: every length group of the writer
@example({}, [2, 5, 17], "both", (1.0, 2000.0, 1200, "log"), 0.99, "csv")
@example({}, [2, 5, 17], "both", (1.0, 1000.0, 1200, "lin"), 0.99, "json")
# every length, or only the last, fails
@example({}, [2], "off", (1100.0, 1100.0, 1, "log"), 0.99, "csv")
@example({}, [5, 2], "both", (1.0, 1015.0, 7, "lin"), 0.99, "csv")
def test_sweep_prints_the_per_cell_text_of_rate_vs_distance(
    values, stations, fc, grid, target, fmt
):
    distances, spaced = _grid(grid)
    text, target = _config_text(values, target, stations)
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "sweep.cfg"
        path.write_text(text + f"fidelity_target = {target!r}\n", encoding="utf-8")
        argv = ["sweep", "--stations", ",".join(map(str, stations)), "--distances", distances,
                "--fc", fc, "--format", fmt, "--config", str(path)]
        lengths = list(dict.fromkeys(spaced))
        expected = _reference(str(path), fmt, lengths, stations, FC_MODES[fc])
        assert _run(argv) == expected


@EXACT
@given(
    values=configs(), stations=station_lists, fc=st.sampled_from(sorted(FC_MODES)),
    grid=grids(), target=targets, fmt=formats, python_floats=st.booleans(),
)
@example({}, [2, 33, 9], "both", (0.1, 900.0, 600, "log"), ("cell", 40, 1), "csv", True)
@example({}, [2, 33, 9], "both", (0.1, 900.0, 600, "log"), ("cell", 40, 1), "csv", False)
def test_plan_writer_prints_the_per_cell_text_of_python_and_numpy_floats(
    values, stations, fc, grid, target, fmt, python_floats
):
    _, spaced = _grid(grid)
    lengths = spaced.tolist() if python_floats else list(spaced)
    text, target = _config_text(values, target, stations)
    config = parse_config(text)  # the target is an argument of the plans alone
    args = (lengths, stations, FC_MODES[fc], *records(config))
    plans = _outcome(lambda: rate_vs_distance(*args, fidelity_target=target))
    if isinstance(plans, list):
        plans = cell_emit.render(fmt, cli._PLAN_COLUMNS, _rows(plans), config)

    def write():
        columns = plan_columns(*args, fidelity_target=target)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.emit("-", fmt, cli._PLAN_COLUMNS, cli._Plans(*columns), config)
        return out.getvalue()

    assert _outcome(write) == plans


@EXACT
@given(
    values=configs(), m_stations=st.sampled_from([2, 3, 5, 9, 17, 33]), fc=st.booleans(),
    length=lengths, target=targets, target_option=st.booleans(), fmt=formats,
)
@example({}, 2, False, 1100.0, 0.99, False, "csv")  # herald success 0: both crash
@example({}, 2, False, 1010.0, 0.99, True, "json")  # T_QR overflows
@example({}, 5, True, 250.0, 0.9999, True, "csv")  # infeasible: exit 3
def test_chain_prints_the_per_cell_text_of_rate_vs_distance(
    values, m_stations, fc, length, target, target_option, fmt
):
    text, target = _config_text(values, target, [m_stations])
    if not target_option:  # else the target comes from --target; the config keeps the default
        text += f"fidelity_target = {target!r}\n"
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "chain.cfg"
        path.write_text(text, encoding="utf-8")
        argv = ["chain", "--stations", str(m_stations), "--distance-km", repr(length),
                "--format", fmt, "--config", str(path)]
        argv += ["--fc"] if fc else []
        argv += ["--target", repr(target)] if target_option else []
        given_target = target if target_option else None
        expected = _reference(
            str(path), fmt, [length], [m_stations], (fc,), given_target, chain=True
        )
        assert _run(argv) == expected


@EXACT
@given(
    values=configs(), m_stations=st.sampled_from([2, 3, 5, 9, 17, 33]), fc=st.booleans(),
    length=lengths, target=targets, fmt=formats,
)
@example({}, 2, False, 1100.0, 0.99, "csv")  # herald success 0: the two commands differ
@example({}, 2, False, 1010.0, 0.99, "json")  # T_QR overflows
@example({}, 5, True, 250.0, 0.9999, "csv")  # infeasible
def test_chain_is_a_one_length_sweep(values, m_stations, fc, length, target, fmt):
    text, target = _config_text(values, target, [m_stations])
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "query.cfg"
        path.write_text(text + f"fidelity_target = {target!r}\n", encoding="utf-8")
        shared = ["--stations", str(m_stations), "--format", fmt, "--config", str(path)]
        chain = _run(["chain", *shared, "--distance-km", repr(length), *(["--fc"] if fc else [])])
        sweep = _run(["sweep", *shared, "--distances", f"{length!r}:{length!r}:1",
                      "--fc", "on" if fc else "off"])
    if chain[0] is ZeroDivisionError:
        # the known defect: herald success underflows to 0 for M = 2 without FC; chain's
        # length is a Python float, which divides by it, and sweep's a numpy float, which
        # overflows to an infinite T_esta
        assert (m_stations, fc, length > 1012.0) == (2, False, True)
        assert sweep == (2, "", "error: t_esta_us must be finite, got inf\n")
        return
    (rc, out, err), (sweep_rc, sweep_out, sweep_err) = chain, sweep
    assert out == sweep_out
    if sweep_rc != 0:  # the same error, with no output
        assert (rc, err) == (sweep_rc, sweep_err)
        return
    if fmt == "csv":
        feasible = {"true": True, "false": False}[out.splitlines()[-1].rsplit(",", 1)[1]]
    else:
        (row,) = json.loads(out)["rows"]
        feasible = row["feasible"]
    assert rc == (0 if feasible else 3)
    assert sweep_err == "" and (err == "") == feasible


def test_cli_takes_only_the_plan_path_from_chain():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = {alias.name for alias in node.names}
            assert node.module is not None or "chain" not in names  # no module-wide access
            if node.module == "chain":
                taken |= names
        elif isinstance(node, ast.Import):
            assert all(not alias.name.startswith("qrepsim") for alias in node.names)
    assert taken == {"N_MAX", "plan_columns", "plan_rows"}
