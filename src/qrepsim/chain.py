"""End-to-end entanglement across a chain of repeater stations.

A chain of M stations (M-1 a power of two) swaps its per-link e-bits in
m = log2(M-1) pairwise levels; ``check_stations`` checks M and returns m.
A query is arguments: M, the length L, FC and the fidelity target. Each
Bell measurement is a noisy CNOT on the two middle qubits, an ideal
Hadamard, two noisy readouts, and the outcome-conditioned Pauli correction
on the far end; the engine applies it to four float Bell weights in closed
form. Purification runs before the swaps (N1 rounds per link) and after
them (N2 rounds end to end), and the total time

    T_QR(N1, N2) = max( 2^N2 * (T_EG(N1) + T_repe),
                        sum_k (T_proj / P_puri_k + L/c) )

is minimized over (N1, N2) subject to the end-to-end fidelity target. At
N2 = 0 this is exactly T_EG(N1) + T_repe; a degenerate two-station chain
performs no Bell measurement, so T_repe contributes only for M > 2.

One array search serves a single chain and a whole sweep: the link budget
and the search run on columns over every length that shares a station
count and FC mode. T_QR is built over [N2, N1, length] in blocks of rows
and each length takes its first minimum, so ties in T_QR go to the
smaller N2, then the smaller N1. A target that no cell meets gives an
infeasible plan; a feasible best plan whose T_QR overflows to infinity is
an error (the CLI exits 2), never a feasible row with zero rate.

The columns come from the link budget's own functions on arrays (its
power of ten stays libm's, element by element), so each value equals the
scalar one bit for bit. The first rejected length runs again through the
scalar checks, which raise the first failing row's error in (L, M, fc)
order. Plans stay tuples in ``ChainPlan`` field order: ``plan_rows`` returns
them, for the CLI; ``rate_vs_distance`` and ``optimize_plan`` wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .link import C_VAC_M_PER_S, CavityParams, LinkParams, expected_esta, qc_zone_state
from .noise import GateNoiseParams
from .purify import purify_ladder_weights
from .schedule import OperationTimings, classical_delay_us, t_puri
from .states import BellDiagonalState, check_positive
# purify_n_rounds, expand_operator: unused, but bench/test_spans.py checks they are bound here
from .purify import purify_n_rounds  # noqa: F401
from .states import expand_operator  # noqa: F401


FIDELITY_TARGET = 0.99  # the default end-to-end target, of a query and of the config key


def check_fidelity_target(value: float) -> None:
    """Reject a fidelity target outside [0, 1), for a chain and a config alike."""
    if not 0 <= value < 1:
        raise ValueError("fidelity_target must lie in [0, 1)")


def check_stations(m_stations: int) -> int:
    """Swap levels of an M-station chain; M is an integer >= 2 with M - 1 a power of two."""
    if not isinstance(m_stations, (int, np.integer)):
        raise ValueError(f"m_stations must be an integer, got {m_stations}")
    if m_stations < 2:
        raise ValueError("a chain needs at least two stations")
    hops = m_stations - 1
    if hops & (hops - 1):
        raise ValueError(f"m_stations - 1 must be a power of two, got {hops}")
    return int(math.log2(hops))


def _check_query(total_length_km: float, fidelity_target: float) -> None:
    """Check a chain's length and target: both finite first, then each in its range."""
    for name, value in (("total_length_km", total_length_km), ("fidelity_target", fidelity_target)):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if total_length_km <= 0:
        raise ValueError("total_length_km must be positive")
    check_fidelity_target(fidelity_target)


@dataclass(frozen=True)
class ChainPlan:
    m_stations: int
    total_length_km: float
    fc_enabled: bool
    fidelity_target: float
    n1: int
    n2: int
    f_m: float
    t_qr_us: float
    rate_hz: float
    feasible: bool


# (i1, i2, index of the label (a1^a2, b1^b2)) in loop order; a label's index is a + 2b
_XOR_TERMS = tuple((i1, i2, i1 ^ i2) for i1 in range(4) for i2 in range(4))


def _xor_combine(w1, w2) -> list:
    """Weights of the label (a1^a2, b1^b2) for independent labels drawn from w1 and w2."""
    out = [0.0] * 4
    for i1, i2, k in _XOR_TERMS:
        out[k] += w1[i1] * w2[i2]
    return out


def bell_measurement(
    left: BellDiagonalState, right: BellDiagonalState, params: GateNoiseParams
) -> BellDiagonalState:
    """Swap two e-bits sharing a station into one end-to-end pair.

    The circuit is a noisy CNOT on the two middle qubits, a Hadamard, noisy
    readouts x and y, and the correction X^(y^1) Z^x on the far end, averaged
    over the outcomes. On Bell labels (phase a, parity b) the ideal swap
    gives (a1^a2, b1^b2^1). A wrong x applies the wrong Z correction and
    flips the phase bit, a wrong y flips the parity bit, each with
    probability 1 - eta; with probability 1 - f_op the gate leaves the end
    pair maximally mixed.
    """
    ok, err = params.eta_meas, 1.0 - params.eta_meas
    # distribution of the bits added to (a1^a2, b1^b2): (0, 1) when both readouts are right
    offset = (ok * err, err * err, ok * ok, err * ok)  # BELL_BITS order
    mixed = _xor_combine(_xor_combine(left.weights, right.weights), offset)
    return BellDiagonalState(tuple(params.f_op * m + (1.0 - params.f_op) / 4.0 for m in mixed))


def t_repe(t_proj_us: float, total_length_km: float) -> float:
    """Swap-stage time: classical relay over L/2 plus one readout; L may be a 1-D array."""
    return total_length_km * 1e3 / (2 * C_VAC_M_PER_S) * 1e6 + t_proj_us


@dataclass(frozen=True)
class ChainFidelityTable:
    """Length-independent fidelity/success data for one chain topology."""

    pre_swap_fidelities: tuple
    pre_swap_p: tuple
    end_fidelities: tuple  # [n1][n2]
    end_p: tuple  # [n1][rounds]


def chain_fidelity_table(
    initial: BellDiagonalState,
    n_swap_levels: int,
    params: GateNoiseParams,
    n_max: int = 8,
) -> ChainFidelityTable:
    states1, p1 = purify_ladder_weights(initial, n_max, params)
    end_f, end_p = [], []
    for state in states1:
        end = state
        for _ in range(n_swap_levels):
            end = bell_measurement(end, end, params)
        states2, p2 = purify_ladder_weights(end, n_max, params)
        end_f.append(tuple(s.fidelity for s in states2))
        end_p.append(p2)
    return ChainFidelityTable(
        pre_swap_fidelities=tuple(s.fidelity for s in states1),
        pre_swap_p=p1,
        end_fidelities=tuple(end_f),
        end_p=tuple(end_p),
    )


def _first_rejected(column) -> int:
    """Index of the first value that is not finite and positive, or the column's length."""
    ok = (column > 0) & (column < math.inf)
    return len(column) if ok.all() else int(ok.argmin())


def _rows(
    lengths,
    stations,
    fc_modes,
    cavity: CavityParams,
    link_template: LinkParams,
    timings_template: OperationTimings,
) -> list[tuple]:
    """Columns (M, fc, stage time, l/c, L/c, T_repe) over the sorted ``lengths``, in us.

    ``stations`` (each checked by ``check_stations``) and ``fc_modes`` come
    sorted; entries are in (M, fc) order. Like the length, each FC mode is
    an argument of ``expected_esta``. A row is rejected where its link
    length (so also L) or T_esta is not finite and positive. T_esta is computed only before the first rejected link length,
    so no rejected row reaches the power of ten; the first rejected length,
    as the caller gave it, runs again through the scalar checks, which raise.
    """
    if not (stations and fc_modes):
        return []  # no rows, so nothing to check
    t_proj = timings_template.t_proj_us
    columns = []
    # NaN lengths and T_esta overflow (past about 1012 km) or herald success 0 give no warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        total = np.array(lengths, dtype=float)
        lc_total = classical_delay_us(total)
        link_lengths = [total / (m_stations - 1) for m_stations in stations]
        first = min(map(_first_rejected, link_lengths))
        for m_stations, link_km in zip(stations, link_lengths):
            lc_link = classical_delay_us(link_km)
            repe = t_repe(t_proj, total) if m_stations > 2 else np.zeros_like(total)
            for fc in fc_modes:
                t_esta = expected_esta(cavity, link_template, link_km[:first], fc)[1]
                first = min(first, _first_rejected(t_esta))
                stage = timings_template.stage_time_us(t_esta)
                columns.append((m_stations, fc, stage, lc_link, lc_total, repe))
        if first < len(total):
            length = lengths[first]
            check_positive("total_length_km", length)
            for m_stations in stations:
                link_km = length / (m_stations - 1)
                check_positive("length_km", link_km)
                for fc in fc_modes:
                    timings_template.stage_time_us(
                        expected_esta(cavity, link_template, link_km, fc)[1]
                    )
    return columns


_BLOCK = 512  # rows per search block: a [N2, N1, row] array is then 330 KB at n_max = 8


def _search(
    lengths,
    column: tuple,
    fidelity_target: float,
    timings_template: OperationTimings,
    table: ChainFidelityTable,
    n_max: int,
) -> list[tuple]:
    """Best (N1, N2) plan at each length of one ``_rows`` entry, in ``ChainPlan`` field order.

    The rows share the table (one swap-level count), the target, and every
    timing but T_esta, l and L. T_QR is built over [N2, N1, row] in blocks
    of ``_BLOCK`` rows; each row takes its first minimum in (N2, N1) order,
    so ties go to the smaller N2, then the smaller N1. The round sums are
    sequential ``cumsum``s in the scalar formula's order, so each T_QR
    equals that formula bit for bit. Plans hold the caller's lengths.
    """
    if n_max > len(table.pre_swap_p):
        raise ValueError(f"n_max {n_max} exceeds the table's {len(table.pre_swap_p)} rounds")
    m_stations, fc, stage, lc_link, lc_total, repe = column
    n = n_max + 1
    end_f = np.array(table.end_fidelities)[:n, :n]
    feasible = end_f >= fidelity_target - 1e-12
    any_feasible = bool(feasible.any())
    best, best_t = np.zeros(len(lengths), dtype=int), np.zeros(len(lengths))  # N2 * n + N1, T_QR
    if any_feasible:
        t_proj = timings_template.t_proj_us
        pre_steps = np.array([t_puri(t_proj, p) for p in table.pre_swap_p[:n_max]])
        # [k, N1]: the (k+1)-th post-swap round's time after N1 pre-swap rounds
        end_steps = np.array([[t_puri(t_proj, p) for p in ps[:n_max]] for ps in table.end_p[:n]]).T
        infeasible = ~feasible.T  # [N2, N1]
        doubling = 2.0 ** np.arange(n)
        with np.errstate(over="ignore"):
            for start in range(0, len(lengths), _BLOCK):
                rows = slice(start, start + _BLOCK)
                pre_swap = np.zeros((n, len(stage[rows])))  # [N1, row]
                np.cumsum(pre_steps[:, None] + lc_link[rows], axis=0, out=pre_swap[1:])
                pair_time = np.maximum(doubling[:, None] * stage[rows], pre_swap) + repe[rows]
                t_qr = np.zeros((n, *pre_swap.shape))  # [N2, N1, row]: purification, then T_QR
                np.cumsum(end_steps[:, :, None] + lc_total[rows], axis=0, out=t_qr[1:])
                np.maximum(doubling[:, None, None] * pair_time, t_qr, out=t_qr)
                t_qr[infeasible] = np.inf
                t_qr = t_qr.reshape(n * n, -1)
                best[rows] = t_qr.argmin(axis=0)
                best_t[rows] = t_qr.min(axis=0)
        if not np.isfinite(best_t).all():
            raise ValueError("t_qr_us must be finite, got inf")
        rate = timings_template.parallel_links * 1e6 / best_t
    else:  # the first best fidelity, N1-major, at zero T_QR and rate
        n1, n2 = divmod(int(end_f.argmax()), n)
        best[:], rate = n2 * n + n1, best_t
    best_n2, best_n1 = np.divmod(best, n)
    return list(zip(
        repeat(m_stations), lengths, repeat(fc), repeat(fidelity_target),
        best_n1.tolist(), best_n2.tolist(), end_f[best_n1, best_n2].tolist(), best_t.tolist(),
        rate.tolist(), repeat(any_feasible),
    ))


def optimize_plan(
    m_stations: int,
    total_length_km: float,
    cavity: CavityParams,
    link_template: LinkParams,
    noise: GateNoiseParams,
    timings_template: OperationTimings = OperationTimings(),
    n_max: int = 8,
    table: ChainFidelityTable | None = None,
    *,
    fc: bool = False,
    fidelity_target: float = FIDELITY_TARGET,
) -> ChainPlan:
    """Exhaustive (N1, N2) search minimizing T_QR at the fidelity target.

    This is ``plan_rows`` on one row: the same checks in the same order,
    then the same row building and array search. N1 and N2 range over
    0..n_max; ``table`` may hold more rounds than that, and is built from
    the zone state when omitted. Ties in T_QR prefer fewer post-swap
    rounds, then fewer pre-swap rounds. An infeasible target returns
    feasible=False, zero T_QR and rate, and the first best fidelity in
    N1-major order. A feasible best plan whose T_QR overflows to infinity
    raises ValueError.
    """
    n_swap_levels = check_stations(m_stations)
    _check_query(total_length_km, fidelity_target)
    lengths = [total_length_km]
    (column,) = _rows(lengths, [m_stations], [fc], cavity, link_template, timings_template)
    if table is None:
        table = chain_fidelity_table(
            qc_zone_state(link_template, noise), n_swap_levels, noise, n_max
        )
    return ChainPlan(*_search(lengths, column, fidelity_target, timings_template, table, n_max)[0])


def plan_rows(
    distances_km,
    stations,
    fc_modes,
    cavity: CavityParams,
    link_template: LinkParams,
    noise: GateNoiseParams,
    timings_template: OperationTimings = OperationTimings(),
    fidelity_target: float = FIDELITY_TARGET,
    n_max: int = 8,
) -> list[tuple]:
    """Plans of ``rate_vs_distance`` as tuples in ``ChainPlan`` field order."""
    initial = qc_zone_state(link_template, noise)
    levels = {m_stations: check_stations(m_stations) for m_stations in stations}
    tables = {k: chain_fidelity_table(initial, k, noise, n_max) for k in set(levels.values())}
    lengths, stations, fc_modes = sorted(distances_km), sorted(stations), sorted(fc_modes)
    if lengths and stations and fc_modes:
        _check_query(lengths[0], fidelity_target)  # the first row's, before any column is built
    columns = _rows(lengths, stations, fc_modes, cavity, link_template, timings_template)
    plans = [
        _search(lengths, c, fidelity_target, timings_template, tables[levels[c[0]]], n_max)
        for c in columns
    ]
    return [plan for same_length in zip(*plans) for plan in same_length]


def rate_vs_distance(
    distances_km,
    stations,
    fc_modes,
    cavity: CavityParams,
    link_template: LinkParams,
    noise: GateNoiseParams,
    timings_template: OperationTimings = OperationTimings(),
    fidelity_target: float = FIDELITY_TARGET,
    n_max: int = 8,
) -> list[ChainPlan]:
    """Optimized plans over a (distance, station count, FC) grid.

    Rows come out ordered by (L, M, fc); repeated inputs give repeated rows.
    The fidelity recurrences do not depend on the link length, so they are
    computed once per swap-level count, and the plan search runs once per
    swap-level count too, over every row that shares the table. Each station
    count is validated once, before the tables, and every row in row order
    before any search.
    """
    rows = plan_rows(
        distances_km, stations, fc_modes, cavity, link_template, noise, timings_template,
        fidelity_target, n_max,
    )
    return [ChainPlan(*row) for row in rows]
