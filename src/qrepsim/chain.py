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
(``_rows``) and the search (``_search``) run on columns over every length
that shares a station count and FC mode, and each value equals the scalar
one bit for bit; the search scores only each N1's first N2 that meets the
target. A target that no cell meets gives an infeasible plan; a feasible
best plan whose T_QR or rate overflows to infinity is an error (the CLI
exits 2), never a feasible row with a zero or infinite rate. Every query goes through
``plan_columns``, whose entries (one per M and FC mode) carry their target
and scored cells, and their plans as columns, to the CLI's one writer, which
serves ``chain`` and ``sweep`` alike; ``plan_rows`` expands them into rows,
which ``rate_vs_distance`` wraps in ``ChainPlan``; ``optimize_plan`` is
``rate_vs_distance`` on one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link import C_VAC_M_PER_S, CavityParams, LinkParams, classical_delay_us, expected_esta
from .link import qc_zone_state
from .noise import GateNoiseParams
from .purify import purify_ladder_weights
from .schedule import OperationTimings
from .states import BellDiagonalState, check_positive
# purify_n_rounds, expand_operator: unused, but bench/test_spans.py checks they are bound here
from .purify import purify_n_rounds  # noqa: F401
from .states import expand_operator  # noqa: F401


FIDELITY_TARGET = 0.99  # the default end-to-end target, of a query and of the config key
N_MAX = 8  # the default bound on N1 and N2, of a query and of a sweep


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
    if hops > 2**1023:  # L / (M - 1) needs M - 1 as a float
        raise ValueError("m_stations - 1 must be at most 2**1023")
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
    pair maximally mixed. Label (a, b) has index a + 2b, so combining two
    labels sums each w1[i1] w2[i2] into index i1 ^ i2, from 0.0 in (i1, i2)
    order: the two pairs into x, then x and the readout offset d into m.
    """
    l0, l1, l2, l3 = left.weights
    r0, r1, r2, r3 = right.weights
    x0 = 0.0 + l0 * r0 + l1 * r1 + l2 * r2 + l3 * r3
    x1 = 0.0 + l0 * r1 + l1 * r0 + l2 * r3 + l3 * r2
    x2 = 0.0 + l0 * r2 + l1 * r3 + l2 * r0 + l3 * r1
    x3 = 0.0 + l0 * r3 + l1 * r2 + l2 * r1 + l3 * r0
    ok, err = params.eta_meas, 1.0 - params.eta_meas
    # distribution of the bits added to (a1^a2, b1^b2): (0, 1) when both readouts are right
    d0, d1, d2, d3 = ok * err, err * err, ok * ok, err * ok  # BELL_BITS order
    m0 = 0.0 + x0 * d0 + x1 * d1 + x2 * d2 + x3 * d3
    m1 = 0.0 + x0 * d1 + x1 * d0 + x2 * d3 + x3 * d2
    m2 = 0.0 + x0 * d2 + x1 * d3 + x2 * d0 + x3 * d1
    m3 = 0.0 + x0 * d3 + x1 * d2 + x2 * d1 + x3 * d0
    f, floor = params.f_op, (1.0 - params.f_op) / 4.0
    return BellDiagonalState((f * m0 + floor, f * m1 + floor, f * m2 + floor, f * m3 + floor))


def t_repe(t_proj_us: float, total_length_km: float) -> float:
    """Swap-stage time: classical relay over L/2 plus one readout; L may be a 1-D array."""
    # not classical_delay_us(L / 2): its last bit differs for L near overflow or subnormal
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
    n_max: int = N_MAX,
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
    for p in (*p1, *(p for row in end_p for p in row)):  # t_puri's check, so _search only divides
        if not 0 < p <= 1:
            raise ValueError(f"p_puri {p} outside (0, 1]")
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
    length (so also L) or T_esta is not finite and positive. T_esta is
    computed only before the first rejected link length, so no rejected row
    reaches the power of ten (which stays libm's, element by element); the
    first rejected length, as the caller gave it, runs again through the
    scalar checks, which raise the first failing row's error in (L, M, fc)
    order.
    """
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


def _search(
    column: tuple,
    fidelity_target: float,
    timings_template: OperationTimings,
    table: ChainFidelityTable,
) -> tuple:
    """One ``_rows`` entry's best plans: (M, fc, target, feasible, cells, best, t_qr, rate).

    N1 and N2 range over the table's rounds. ``cells`` lists the scored (N1,
    N2, f_m) in the (N2, N1) order ties go, ``best`` each length's index into
    it. T_QR never falls as N2 grows at a fixed N1 (2^N2 doubles the pair
    time, the post-swap sum only adds positive steps), so each N1's first
    feasible N2 is its best plan and wins a tie. T_QR is built over the cells,
    a round at a time in the scalar formula's order, so it equals that formula
    bit for bit, and each row's first minimum is the grid's. An infeasible
    entry's one cell is the first best fidelity, N1-major, at zero T_QR and rate.
    """
    m_stations, fc, stage, lc_link, lc_total, repe = column
    end_f = table.end_fidelities  # [N1][N2]
    feasible = [[f >= fidelity_target - 1e-12 for f in row] for row in end_f]
    order = sorted((r.index(True), n1) for n1, r in enumerate(feasible) if True in r)
    cells = [(n1, n2, end_f[n1][n2]) for n2, n1 in order]
    if cells:
        t_proj = timings_template.t_proj_us
        pre_steps = np.array([t_proj / p for p in table.pre_swap_p])
        # [N1][k]: the (k+1)-th post-swap round's time after N1 pre-swap rounds
        end_steps = [[t_proj / p for p in ps] for ps in table.end_p]
        n2s, n1s = map(list, zip(*order))
        doubling = np.array([2.0**k for k in range(len(end_f))])  # cheaper than a numpy power
        with np.errstate(over="ignore"):
            pre_swap = np.zeros((len(end_f), len(stage)))  # [N1, row]
            # T_EG's purification sums; cumsum adds in order, as the scalar loop does
            np.cumsum(pre_steps[:, None] + lc_link, axis=0, out=pre_swap[1:])
            np.maximum(doubling[:, None] * stage, pre_swap, out=pre_swap)  # in place: less memory
            pair_time = np.add(pre_swap, repe, out=pre_swap)[n1s]  # T_EG(N1) + T_repe
            t_qr = np.zeros(pair_time.shape)  # [cell, row]: purification, then T_QR
            steps = np.array([end_steps[n1][: n2s[-1]] for n1 in n1s])  # [cell, k]
            for k in range(n2s[-1]):  # round k adds to the cells with N2 > k, the last ones
                later = sum(m <= k for m in n2s)
                np.add(t_qr[later:], steps[later:, k, None] + lc_total, out=t_qr[later:])
            np.maximum(np.multiply(doubling[n2s, None], pair_time, out=pair_time), t_qr, out=t_qr)
            best_t = t_qr.min(axis=0)
            rate = (timings_template.parallel_links * 1e6 / best_t).tolist()
        best, best_t = t_qr.argmin(axis=0).tolist(), best_t.tolist()
        if math.inf in best_t:
            raise ValueError("t_qr_us must be finite, got inf")
        if math.inf in rate:
            raise ValueError("rate_hz must be finite, got inf")
    else:
        cells = [max(((n1, n2, f) for n1, row in enumerate(end_f) for n2, f in enumerate(row)),
                     key=lambda cell: cell[2])]
        best, best_t = [0] * len(stage), [0.0] * len(stage)
        rate = best_t
    return m_stations, fc, fidelity_target, bool(order), cells, best, best_t, rate


def plan_columns(
    distances_km,
    stations,
    fc_modes,
    cavity: CavityParams,
    link_template: LinkParams,
    noise: GateNoiseParams,
    timings_template: OperationTimings = OperationTimings(),
    fidelity_target: float = FIDELITY_TARGET,
    n_max: int = N_MAX,
) -> tuple[list, list[tuple]]:
    """``rate_vs_distance``'s plans: the sorted lengths and a ``_search`` entry per (M, fc)."""
    initial = qc_zone_state(link_template, noise)
    levels = {m_stations: check_stations(m_stations) for m_stations in stations}
    tables = {k: chain_fidelity_table(initial, k, noise, n_max) for k in set(levels.values())}
    lengths, stations, fc_modes = sorted(distances_km), sorted(stations), sorted(fc_modes)
    if not (lengths and stations and fc_modes):
        return lengths, []
    _check_query(lengths[0], fidelity_target)  # the first row's, before any column is built
    columns = _rows(lengths, stations, fc_modes, cavity, link_template, timings_template)
    return lengths, [
        _search(c, fidelity_target, timings_template, tables[levels[c[0]]]) for c in columns
    ]


def plan_rows(lengths, entries) -> list[tuple]:
    """``plan_columns``'s plans as ``ChainPlan`` field tuples, by length, then entry."""
    by_entry = [
        [(m_stations, length, fc, target, *cells[cell], t_qr, rate, feasible)
         for length, cell, t_qr, rate in zip(lengths, *columns)]
        for m_stations, fc, target, feasible, cells, *columns in entries
    ]
    return [row for same_length in zip(*by_entry) for row in same_length]


def rate_vs_distance(
    distances_km,
    stations,
    fc_modes,
    cavity: CavityParams,
    link_template: LinkParams,
    noise: GateNoiseParams,
    timings_template: OperationTimings = OperationTimings(),
    fidelity_target: float = FIDELITY_TARGET,
    n_max: int = N_MAX,
) -> list[ChainPlan]:
    """Optimized plans over a (distance, station count, FC) grid, in (L, M, fc) order.

    Repeated inputs give repeated rows. The fidelity tables do not depend on
    the length, so each swap-level count builds one. Each station count is
    validated once, before the tables, and every row in row order before any
    search.
    """
    columns = plan_columns(
        distances_km, stations, fc_modes, cavity, link_template, noise, timings_template,
        fidelity_target, n_max,
    )
    return [ChainPlan(*row) for row in plan_rows(*columns)]


def optimize_plan(
    m_stations: int,
    total_length_km: float,
    cavity: CavityParams,
    link_template: LinkParams,
    noise: GateNoiseParams,
    timings_template: OperationTimings = OperationTimings(),
    n_max: int = N_MAX,
    *,
    fc: bool = False,
    fidelity_target: float = FIDELITY_TARGET,
) -> ChainPlan:
    """Exhaustive (N1, N2) search minimizing T_QR at the fidelity target.

    This is ``rate_vs_distance`` on one row: the same checks in the same
    order, then the same fidelity table, row building and array search. N1
    and N2 range over 0..n_max. Ties in T_QR prefer fewer post-swap rounds,
    then fewer pre-swap rounds. An infeasible target returns feasible=False,
    zero T_QR and rate, and the first best fidelity in N1-major order; an
    overflowing feasible T_QR raises ValueError.
    """
    (plan,) = rate_vs_distance(
        [total_length_km], [m_stations], [fc], cavity, link_template, noise, timings_template,
        fidelity_target, n_max,
    )
    return plan
