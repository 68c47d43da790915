"""Monotonicity of the repeater model, as properties over generated designs.

- The optimal rate of a (station count, FC) row never rises with distance,
  and whether its fidelity target is reachable does not depend on distance:
  the fidelity recurrences do not see the link length.
- The end-to-end fidelity at every fixed (N1, N2) does not fall as the
  gate fidelity or the readout accuracy rises.

Generation is derandomized so the suite is repeatable.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrepsim import (
    CavityParams,
    ChainParams,
    GateNoiseParams,
    LinkParams,
    OperationTimings,
    rate_vs_distance,
)
from qrepsim.chain import chain_fidelity_table
from qrepsim.link import qc_zone_state
from test_plan_search import designs, stations

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
OVERFLOW = "t_qr_us must be finite, got inf"

# Up to 1000 km T_esta stays finite for every generated design, so a query
# either returns its plan or reports that every feasible T_QR overflowed.
lengths = st.one_of(st.sampled_from([0.1, 25.0, 250.0, 1000.0]), st.floats(0.01, 1000.0))
targets = st.one_of(st.sampled_from([0.9, 0.99, 0.995]), st.floats(0.9, 0.9999))


def _sweep(distances, m_stations, fc, design, target):
    """(feasible, rate_hz) of each row; an overflowing T_QR is unreachable: feasible, rate 0."""
    link, noise, timings, f_move = design
    args = ([m_stations], (fc,), CavityParams(), link, noise, timings)
    kwargs = dict(fidelity_target=target, f_move=f_move)
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
        GateNoiseParams(f_op=1.0, eta_meas=0.95),
        OperationTimings(),
        0.9,
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
    levels = ChainParams(m_stations, 1.0).n_swap_levels
    f_lo, f_hi = sorted(f_ops)
    eta_lo, eta_hi = sorted(etas)

    def end_fidelities(f_op, eta_meas):
        noise = GateNoiseParams(f_op=f_op, eta_meas=eta_meas)
        table = chain_fidelity_table(qc_zone_state(link, noise, f_move), levels, noise)
        return [f for row in table.end_fidelities for f in row]

    base = end_fidelities(f_lo, eta_lo)
    for better in (end_fidelities(f_hi, eta_lo), end_fidelities(f_lo, eta_hi)):
        assert all(b >= a - 1e-12 for a, b in zip(base, better))
