"""Monotonicity of the repeater model, as properties over generated designs.

- The optimal rate of a (station count, FC) row never rises with distance,
  and whether its fidelity target is reachable does not depend on distance:
  the fidelity recurrences do not see the link length.
- Every (N1, N2) cell's T_QR, by the scalar search's formula, does not fall
  as the distance grows, nor as N2 grows at a fixed N1, overflow included:
  the plan search keeps only each N1's first feasible N2 on that premise.
- The end-to-end fidelity at every fixed (N1, N2) does not fall as the
  gate fidelity or the readout accuracy rises.
- Every Bell-diagonal state the engine builds for a fidelity table or a
  rate-fidelity curve is physical, and every P_puri lies in (0, 1].
- Running ``chain``, ``sweep`` or ``purify`` twice in one process gives the
  same bytes.
- The namespace the CLI dispatches on equals the full parser's for any
  valid argv. For any argv at all, the option table's reader either gives
  the full parser's namespace or hands the argv to argparse, and ``main``
  exits, prints and dispatches as the full parser alone would. Every call
  shape of the benchmark and of README's examples is read without argparse.

Generation is derandomized so the suite is repeatable.
"""

import argparse
import contextlib
import importlib.util
import io
import itertools
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_search
from qrepsim import (
    BellDiagonalState,
    CavityParams,
    GateNoiseParams,
    LinkParams,
    OperationTimings,
    rate_fidelity_curve,
    rate_vs_distance,
)
from qrepsim.chain import chain_fidelity_table, check_stations
from qrepsim import cli, purify, states
from qrepsim.cli import build_parser, main
from qrepsim.link import expected_esta, qc_zone_state
from test_plan_search import DEFAULTS, designs, stations
from test_plan_search import lengths as lengths_to_overflow

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
OVERFLOW = "t_qr_us must be finite, got inf"

# Up to 1000 km T_esta stays finite for every generated design, so a query
# either returns its plan or reports that every feasible T_QR overflowed.
lengths = st.one_of(st.sampled_from([0.1, 25.0, 250.0, 1000.0]), st.floats(0.01, 1000.0))
targets = st.one_of(st.sampled_from([0.9, 0.99, 0.995]), st.floats(0.9, 0.9999))


def _sweep(distances, m_stations, fc, design, target):
    """(feasible, rate_hz) of each row; an overflowing T_QR is unreachable: feasible, rate 0."""
    link, noise, timings = design
    args = ([m_stations], (fc,), CavityParams(), link, noise, timings)
    kwargs = dict(fidelity_target=target)
    try:
        return [(p.feasible, p.rate_hz) for p in rate_vs_distance(distances, *args, **kwargs)]
    except ValueError as exc:
        assert str(exc) == OVERFLOW
        if len(distances) == 1:
            return [(True, 0.0)]
        return [row for d in distances for row in _sweep([d], m_stations, fc, design, target)]


@PROPERTY
@given(
    design=designs(),
    distances=st.lists(lengths, min_size=2, max_size=6),
    m_stations=stations,
    fc=st.booleans(),
    target=targets,
)
# every feasible T_QR overflows at 1000 km, but not at 500 km
@example(
    (
        LinkParams(cz_accounting="per_cavity", technical_fidelity=0.9),
        GateNoiseParams(f_op=1.0, eta_meas=0.95, f_move=0.9),
        OperationTimings(),
    ),
    [1000.0, 500.0],
    2,
    False,
    0.9999,
)
def test_optimal_rate_never_rises_with_distance(design, distances, m_stations, fc, target):
    rows = _sweep(sorted(distances), m_stations, fc, design, target)
    assert len({feasible for feasible, _ in rows}) == 1
    rates = [rate for _, rate in rows]
    assert all(far <= near for near, far in zip(rates, rates[1:]))


def _t_qr_cells(design, m_stations, fc, length_km, table):
    link, _, timings = design
    link = replace(link, length_km=length_km / (m_stations - 1))
    _, t_esta_us = expected_esta(CavityParams(), link, link.length_km, fc)
    return scalar_search.t_qr_cells(
        m_stations, length_km, link.length_km, t_esta_us, timings, table
    )


@PROPERTY
@given(
    design=designs(),
    m_stations=stations,
    fc=st.booleans(),
    distances=st.lists(lengths, min_size=2, max_size=2, unique=True).map(sorted),
)
def test_every_t_qr_cell_is_non_decreasing_in_distance(design, m_stations, fc, distances):
    link, noise, _ = design
    levels = check_stations(m_stations)
    table = chain_fidelity_table(qc_zone_state(link, noise), levels, noise)
    near, far = (_t_qr_cells(design, m_stations, fc, d, table) for d in distances)
    assert len(near) == 81
    assert all(far[cell] >= t_qr for cell, t_qr in near.items())


@PROPERTY
@given(design=designs(), m_stations=stations, fc=st.booleans(), length=lengths_to_overflow)
# M = 2 without FC: 6 of the 81 cells overflow to infinity at 1000 km, 71 at 1010 km
@example(DEFAULTS, 2, False, 1000.0)
@example(DEFAULTS, 2, False, 1010.0)
def test_every_t_qr_cell_is_non_decreasing_in_n2(design, m_stations, fc, length):
    link, noise, _ = design
    table = chain_fidelity_table(qc_zone_state(link, noise), check_stations(m_stations), noise)
    cells = _t_qr_cells(design, m_stations, fc, length, table)
    for n1 in range(9):
        by_n2 = [cells[n1, n2] for n2 in range(9)]
        assert all(t_qr <= later for t_qr, later in zip(by_n2, by_n2[1:]))


def _up_to_one(lo):
    return st.one_of(st.just(1.0), st.floats(lo, 1.0))


@PROPERTY
@given(
    link=st.builds(LinkParams, technical_fidelity=st.floats(0.9, 1.0)),
    f_move=st.floats(0.9, 1.0),
    f_ops=st.lists(_up_to_one(0.9), min_size=2, max_size=2),
    etas=st.lists(_up_to_one(0.9), min_size=2, max_size=2),
    m_stations=stations,
)
def test_end_fidelity_does_not_fall_as_operations_improve(link, f_move, f_ops, etas, m_stations):
    levels = check_stations(m_stations)
    f_lo, f_hi = sorted(f_ops)
    eta_lo, eta_hi = sorted(etas)

    def end_fidelities(f_op, eta_meas):
        noise = GateNoiseParams(f_op=f_op, eta_meas=eta_meas, f_move=f_move)
        table = chain_fidelity_table(qc_zone_state(link, noise), levels, noise)
        return [f for row in table.end_fidelities for f in row]

    base = end_fidelities(f_lo, eta_lo)
    for better in (end_fidelities(f_hi, eta_lo), end_fidelities(f_lo, eta_hi)):
        assert all(b >= a - 1e-12 for a, b in zip(base, better))


def _above_up_to_one(lo):
    """Floats in (lo, 1], with 1.0 drawn as its own case."""
    return st.one_of(st.just(1.0), st.floats(lo, 1.0, exclude_min=True))


noises = st.builds(
    GateNoiseParams, f_op=_above_up_to_one(0.25), eta_meas=_above_up_to_one(0.5)
)


@contextlib.contextmanager
def _every_state():
    """Collect the weights of every BellDiagonalState built inside the block.

    Every state's weights are a return of ``states._bell_weights``: the
    constructor's hook calls it, and the purification kernel calls it and
    wraps what it returns with ``BellDiagonalState._checked``. So the block
    records each return in both modules that bind the function, and fails
    if ``_checked`` wraps weights that were not recorded.
    """
    built, seen = [], set()
    validate, wrap = states._bell_weights, BellDiagonalState._checked

    def record(w):
        weights = validate(w)
        built.append(weights)
        seen.add(id(weights))  # built keeps each tuple alive, so ids stay unique
        return weights

    def checked(cls, weights):
        assert id(weights) in seen
        return wrap(weights)

    with contextlib.ExitStack() as stack:
        for module in (states, purify):
            stack.enter_context(mock.patch.object(module, "_bell_weights", record))
        stack.enter_context(mock.patch.object(BellDiagonalState, "_checked", classmethod(checked)))
        yield built


@PROPERTY
@given(
    noise=noises,
    f_tech=_above_up_to_one(0.25),
    f_move=_above_up_to_one(0.25),
    levels=st.integers(0, 5),
    n_max=st.integers(0, 10),
)
def test_every_engine_state_is_physical(noise, f_tech, f_move, levels, n_max):
    link = LinkParams(technical_fidelity=f_tech)
    noise = replace(noise, f_move=f_move)
    with _every_state() as built:
        table = chain_fidelity_table(qc_zone_state(link, noise), levels, noise, n_max)
        curve = rate_fidelity_curve(n_max, CavityParams(), link, noise)
    # at least the zone state, every swap and post-swap round, and the curve's rounds
    assert len(built) >= 1 + (n_max + 1) * (levels + n_max) + n_max
    for weights in built:
        assert len(weights) == 4 and all(0.0 <= w <= 1.0 for w in weights)
        assert abs(math.fsum(weights) - 1.0) <= 1e-12
    p_list = [*table.pre_swap_p, *(p for row in table.end_p for p in row)]
    p_list += [result.p_puri for result in curve]
    assert all(0.0 < p <= 1.0 for p in p_list)


@settings(PROPERTY, max_examples=12)
@given(
    f_op=_up_to_one(0.9),
    eta_meas=_up_to_one(0.9),
    f_move=_up_to_one(0.9),
    argv=st.one_of(
        st.tuples(stations, lengths, st.booleans()).map(
            lambda c: ["chain", "--stations", str(c[0]), "--distance-km", repr(c[1])]
            + ["--fc"] * c[2]
        ),
        st.sampled_from([["sweep"], ["sweep", "--stations", "3,33", "--distances", "1:1000:7"]]),
        st.integers(0, 10).map(lambda n: ["purify", "--n-max", str(n)]),
    ),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_commands_repeat_their_bytes(f_op, eta_meas, f_move, argv, fmt):
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "run.cfg"
        config.write_text(f"f_op = {f_op!r}\neta_meas = {eta_meas!r}\nf_move = {f_move!r}\n")
        runs = []
        for i in range(2):
            out = Path(work) / f"{i}.{fmt}"
            rc = main([*argv, "--config", str(config), "--format", fmt, "--out", str(out)])
            runs.append((rc, out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 2, 3)


# every subcommand's options with a strategy for valid values; None marks a flag
CLI_OPTIONS = {
    "link": {},
    "purify": {"--n-max": st.integers(0, 10).map(str)},
    "chain": {
        "--stations": st.integers(2, 65).map(str),
        "--distance-km": st.floats(0.01, 1000.0).map(repr),
        "--fc": None,
        "--target": st.floats(0.5, 0.9999).map(repr),
    },
    "sweep": {
        "--stations": st.sampled_from(["2", "2,5,17", "33,3"]),
        "--distances": st.sampled_from(["1:500:40,log", "10:20:3,lin", "5:5:1"]),
        "--fc": st.sampled_from(["both", "on", "off"]),
    },
}
SHARED_OPTIONS = {
    "--config": st.sampled_from(["q.cfg", "configs/long.cfg"]),
    "--out": st.sampled_from(["-", "out.csv"]),
    "--format": st.sampled_from(["csv", "json"]),
}
REQUIRED = {"chain": ("--stations", "--distance-km")}


@st.composite
def cli_argv(draw):
    """Valid argv of one subcommand: options shuffled, some abbreviated, some as --opt=value."""
    name = draw(st.sampled_from(list(CLI_OPTIONS)))
    options = {**CLI_OPTIONS[name], **SHARED_OPTIONS}
    known = [*options, "--help"]
    chosen = [o for o in options if o in REQUIRED.get(name, ()) or draw(st.booleans())]
    argv = [name]
    for option in draw(st.permutations(chosen)):
        unambiguous = [k for k in range(3, len(option) + 1)
                       if [o for o in known if o.startswith(option[:k])] == [option]]
        typed = option[: draw(st.sampled_from(unambiguous))]
        value = options[option]
        if value is None:
            argv.append(typed)
        elif draw(st.booleans()):
            argv.append(f"{typed}={draw(value)}")
        else:
            argv += [typed, draw(value)]
    return argv


@settings(PROPERTY, max_examples=200)
@given(argv=cli_argv())
# --fc both ways in one call: a flag of chain, a choice of sweep
@example(["chain", "--fc", "--dist=25", "--st", "3", "--form", "json"])
@example(["sweep", "--fc=off", "--for=csv", "--dist", "1:2:2,lin"])
def test_one_command_parse_equals_the_full_parse(argv):
    dispatched = []

    def record(config, args):
        dispatched.append(vars(args))
        return 0

    commands = {name: (record, *rest) for name, (_, *rest) in cli.COMMANDS.items()}
    with mock.patch.dict(cli.COMMANDS, commands), mock.patch.object(cli, "load_config"):
        assert main(argv) == 0
    assert dispatched == [vars(build_parser().parse_args(argv))]


# loose tokens for any subcommand: options of other subcommands, abbreviations,
# --opt=value, help and the separator, values that look like options, values
# that fail a type or a choice, and values some option takes
CLI_TOKENS = [
    "--n-max", "--distances", "--target", "--out", "--stat", "--dist", "--form", "--n", "--fc=on",
    "--format=json", "--stations=3", "-h", "--help", "--", "-5", "-0.5", "-1e-3", "nan", "inf",
    "-", "", "2.5", "x", "xml", "maybe", "3", "25", "0.99", "2,5", "1:10:2,lin", "json", "on",
]


@st.composite
def cli_token_argv(draw):
    """An argv of one subcommand from option-value pairs and loose tokens, in any order."""
    name = draw(st.sampled_from(list(CLI_OPTIONS)))
    options = {**CLI_OPTIONS[name], **SHARED_OPTIONS}

    def pair(option, bad=st.sampled_from(CLI_TOKENS)):
        """The option and, unless it is a flag, a valid value or, one time in four, ``bad``."""
        value = options[option]
        if value is None:
            return st.just([option])
        return st.one_of(value, value, value, bad).map(lambda text: [option, text])

    required = [draw(pair(option, st.nothing())) for option in REQUIRED.get(name, ())
                if draw(st.booleans())]
    units = draw(st.lists(st.sampled_from(list(options)).flatmap(pair), max_size=4))
    if draw(st.booleans()):
        units += [[token] for token in draw(st.lists(st.sampled_from(CLI_TOKENS), max_size=2))]
    return [name, *itertools.chain.from_iterable(draw(st.permutations(required + units)))]


def _outcome(parse, argv):
    """Exit code, stdout, stderr and the dispatched namespaces of ``parse(argv)``."""
    dispatched, out, err = [], io.StringIO(), io.StringIO()

    def record(config, args):
        dispatched.append(vars(args))
        return 0

    commands = {name: (record, *rest) for name, (_, *rest) in cli.COMMANDS.items()}
    with mock.patch.dict(cli.COMMANDS, commands), mock.patch.object(cli, "load_config"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = parse(argv)
        except SystemExit as stop:
            rc = stop.code
    return rc, out.getvalue(), err.getvalue(), dispatched


def _full_parse(argv):
    """What ``main`` would do with the full parser alone."""
    args = build_parser().parse_args(argv)
    return cli.COMMANDS[args.command][0](None, args)


@settings(PROPERTY, max_examples=400)
@given(argv=cli_token_argv())
@example(["chain", "--stations", "3", "--distance-km", "-0.5"])  # argparse: a value
@example(["chain", "--stations", "3", "--distance-km", "-1e-3"])  # argparse: an option
@example(["chain", "--distance-km", "25", "--stations", "3", "--fc", "--stations", "5"])
@example(["sweep", "--fc", "on", "--out", ""])
@example(["sweep", "--fc", "on", "--out"])  # a missing value
def test_the_option_reader_agrees_with_argparse(argv):
    args = cli._read_args(argv[0], argv[1:])
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))
    with mock.patch.object(cli, "build_parser", wraps=build_parser) as built:
        produced = _outcome(main, argv)
    assert built.call_count == (args is None)  # an argv the reader takes builds no parser
    assert produced == _outcome(_full_parse, argv)


def _workloads():
    """``bench/workloads.py``, for its operations' argv."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


README_EXAMPLES = [
    ["link"],
    ["purify", "--n-max", "6"],
    ["chain", "--stations", "5", "--distance-km", "25", "--target", "0.99"],
    ["sweep", "--stations", "2,5,17", "--distances", "1:500:40,log", "--fc", "both"],
]


def test_benchmark_and_readme_calls_build_no_argparse_parser():
    wl = _workloads()
    calls = [[*call.argv, "--config", "op.cfg"]
             for workload in wl.WORKLOADS for op in wl.operations(workload, 0) for call in op.calls]
    # chain with and without --fc, link and purify with --format, sweep
    assert {"--fc" in argv for argv in calls if argv[0] == "chain"} == {False, True}
    assert {argv[0] for argv in calls} == set(cli.COMMANDS)
    argvs = README_EXAMPLES + calls
    with mock.patch.object(argparse, "ArgumentParser", side_effect=AssertionError("a parser")):
        produced = [_outcome(main, argv) for argv in argvs]
    assert produced == [_outcome(_full_parse, argv) for argv in argvs]
