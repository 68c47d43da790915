"""End-to-end entanglement across a chain of repeater stations.

A chain of M stations (M-1 a power of two) swaps its per-link e-bits in
m = log2(M-1) pairwise levels. Each Bell measurement is a noisy CNOT on the
two middle qubits, an ideal Hadamard, two noisy readouts, and the
outcome-conditioned Pauli correction on the far end; the engine applies it
to four float Bell weights in closed form. Purification runs before the swaps (N1
rounds per link) and after them (N2 rounds end to end), and the total time

    T_QR(N1, N2) = max( 2^N2 * (T_EG(N1) + T_repe),
                        sum_k (T_proj / P_puri_k + L/c) )

is minimized over (N1, N2) subject to the end-to-end fidelity target. At
N2 = 0 this is exactly T_EG(N1) + T_repe; a degenerate two-station chain
performs no Bell measurement, so T_repe contributes only for M > 2.

One array search serves a single chain and a whole sweep: every length
that shares a fidelity table is searched together, one numpy pass per N2
over [length, N1] arrays with a running best. Ties in T_QR go to the
smaller N2, then the smaller N1. A target that no cell meets gives an
infeasible plan; a feasible best plan whose T_QR overflows to infinity is
an error (the CLI exits 2), never a feasible row with zero rate.

The searched rows are plain floats; no parameter object is built per row,
and the plans stay tuples in ``ChainPlan`` field order until the API
boundary: ``plan_rows`` returns them as they are, for the CLI, while
``rate_vs_distance`` and ``optimize_plan`` wrap each in a ``ChainPlan``.
The templates are validated once, each station count once and each
distance once. Each row passes its link length l to ``expected_esta``, its
T_esta to ``OperationTimings.stage_time_us`` and its L to ``t_repe``, so a
row fails with the message of the check that rejects it, in row order. The link budget's
10**x stays a scalar power: numpy's vectorized power can differ from libm
in the last bit, and outputs must keep their bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .link import C_VAC_M_PER_S, CavityParams, LinkParams, expected_esta, qc_zone_state
from .noise import GateNoiseParams
from .purify import purify_ladder_weights
from .schedule import OperationTimings, classical_delay_us, t_puri
from .states import BellDiagonalState, check_finite, check_positive
# purify_n_rounds, expand_operator: unused, but bench/test_spans.py checks they are bound here
from .purify import purify_n_rounds  # noqa: F401
from .states import expand_operator  # noqa: F401


@dataclass(frozen=True)
class ChainParams:
    m_stations: int
    total_length_km: float
    fidelity_target: float = 0.99
    fc_enabled: bool = False

    def __post_init__(self):
        check_finite(self)
        if self.m_stations < 2:
            raise ValueError("a chain needs at least two stations")
        hops = self.m_stations - 1
        if hops & (hops - 1):
            raise ValueError(
                f"m_stations - 1 must be a power of two, got {self.m_stations - 1}"
            )
        if self.total_length_km <= 0:
            raise ValueError("total_length_km must be positive")
        if not 0 <= self.fidelity_target < 1:
            raise ValueError("fidelity_target must lie in [0, 1)")

    @property
    def n_swap_levels(self) -> int:
        return int(math.log2(self.m_stations - 1))


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
    """Swap-stage time: classical relay over L/2 plus one readout."""
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


def _rows(
    lengths,
    chains: list[ChainParams],
    fc_modes,
    cavity: CavityParams,
    link_template: LinkParams,
    timings_template: OperationTimings,
) -> dict[int, list[tuple]]:
    """Plan inputs of every (L, M, fc) row, grouped by swap-level count.

    ``lengths``, ``chains`` (one validated chain per station count, its
    length unused) and ``fc_modes`` come sorted. A row is (M, L, fc,
    generation stage time, link l/c, total L/c, T_repe), times in us. Each
    distance and link length gets the checks of the dataclass that would
    hold it and each T_esta those of ``stage_time_us``, in row order, so the
    first failing row raises its error.
    """
    links = [(fc, replace(link_template, fc_enabled=fc)) for fc in fc_modes]
    groups = {chain.n_swap_levels: [] for chain in chains}
    if not (chains and links):
        return groups  # no rows, so nothing to check
    stations = [(chain, chain.n_swap_levels > 0, groups[chain.n_swap_levels]) for chain in chains]
    t_proj = timings_template.t_proj_us
    # past about 1012 km a numpy length overflows T_esta to inf, which the check reports
    with np.errstate(over="ignore", divide="ignore"):
        for length in lengths:
            check_positive("total_length_km", length)
            lc_total = classical_delay_us(length)
            for chain, swaps, rows in stations:
                link_km = length / (chain.m_stations - 1)
                check_positive("length_km", link_km)
                lc_link = classical_delay_us(link_km)
                repe = t_repe(t_proj, length) if swaps else 0.0
                for fc, link in links:
                    t_esta = expected_esta(cavity, link, link_km)[1]
                    stage = timings_template.stage_time_us(t_esta)
                    rows.append((chain.m_stations, length, fc, stage, lc_link, lc_total, repe))
    return groups


def _search(
    rows: list[tuple],
    fidelity_target: float,
    timings_template: OperationTimings,
    table: ChainFidelityTable,
    n_max: int,
) -> list[tuple]:
    """Best (N1, N2) plan of each row, one numpy pass per N2 over [row, N1].

    The rows are those of ``_rows``; they share the table (one swap-level
    count), the fidelity target, and every timing but T_esta and l. A
    running best is replaced only by a strictly smaller T_QR, so ties go to
    the smaller N2, then the smaller N1. Each T_QR is summed round by round
    in the order of the scalar formula, so it equals that formula bit for
    bit. A plan is a tuple in ``ChainPlan`` field order, built by one
    ``zip`` over the result columns.
    """
    if not rows:
        return []
    m_stations, lengths, fc_modes, stage, lc_link, lc_total, repe = zip(*rows)
    if n_max > len(table.pre_swap_p):
        raise ValueError(f"n_max {n_max} exceeds the table's {len(table.pre_swap_p)} rounds")
    n = n_max + 1
    end_f = np.array(table.end_fidelities)[:n, :n]
    feasible = end_f >= fidelity_target - 1e-12
    t_proj = timings_template.t_proj_us
    pre_steps = np.array([t_puri(t_proj, p) for p in table.pre_swap_p[:n_max]])
    end_steps = np.array([[t_puri(t_proj, p) for p in ps[:n_max]] for ps in table.end_p[:n]])

    best_n1 = np.zeros(len(rows), dtype=int)
    best_n2 = np.zeros(len(rows), dtype=int)
    any_feasible = bool(feasible.any())
    if any_feasible:
        stage, lc_link, lc_total, repe = np.array(
            [stage, lc_link, lc_total, repe], dtype=float
        )[:, :, None]
        best_t = np.full(len(rows), np.inf)
        with np.errstate(over="ignore"):
            pre_swap = np.hstack([np.zeros_like(stage), np.cumsum(pre_steps + lc_link, axis=1)])
            pair_time = np.maximum(2 ** np.arange(n) * stage, pre_swap) + repe  # T_EG(N1) + T_repe
            purification = np.zeros_like(pair_time)
            for n2 in range(n):
                if n2:
                    purification = purification + (end_steps[:, n2 - 1] + lc_total)
                t_qr = np.where(
                    feasible[:, n2], np.maximum(2**n2 * pair_time, purification), np.inf
                )
                n1, t_row = t_qr.argmin(axis=1), t_qr.min(axis=1)
                better = t_row < best_t
                best_t[better], best_n1[better], best_n2[better] = t_row[better], n1[better], n2
        if not np.isfinite(best_t).all():
            raise ValueError("t_qr_us must be finite, got inf")
        rate = timings_template.parallel_links * 1e6 / best_t
    else:  # the first best fidelity, N1-major, at zero T_QR and rate
        best_n1[:], best_n2[:] = divmod(int(end_f.argmax()), n)
        best_t = rate = np.zeros(len(rows))
    return list(zip(
        m_stations, lengths, fc_modes, repeat(fidelity_target), best_n1.tolist(),
        best_n2.tolist(), end_f[best_n1, best_n2].tolist(), best_t.tolist(), rate.tolist(),
        repeat(any_feasible),
    ))


def optimize_plan(
    chain: ChainParams,
    cavity: CavityParams,
    link_template: LinkParams,
    noise: GateNoiseParams,
    timings_template: OperationTimings = OperationTimings(),
    n_max: int = 8,
    table: ChainFidelityTable | None = None,
) -> ChainPlan:
    """Exhaustive (N1, N2) search minimizing T_QR at the fidelity target.

    This is the row building and array search of ``rate_vs_distance`` on one
    row. N1 and N2 range over 0..n_max; ``table`` may hold more rounds than
    that, and is built from the chain's zone state when omitted. Ties in
    T_QR prefer fewer post-swap rounds, then fewer pre-swap rounds. An
    infeasible target returns feasible=False, zero T_QR and rate, and the
    first best fidelity in N1-major order. A feasible best plan whose T_QR
    overflows to infinity raises ValueError.
    """
    rows = _rows(
        [chain.total_length_km], [chain], [chain.fc_enabled], cavity, link_template,
        timings_template,
    )[chain.n_swap_levels]
    if table is None:
        table = chain_fidelity_table(
            qc_zone_state(link_template, noise), chain.n_swap_levels, noise, n_max
        )
    return ChainPlan(*_search(rows, chain.fidelity_target, timings_template, table, n_max)[0])


def plan_rows(
    distances_km,
    stations,
    fc_modes,
    cavity: CavityParams,
    link_template: LinkParams,
    noise: GateNoiseParams,
    timings_template: OperationTimings = OperationTimings(),
    fidelity_target: float = 0.99,
    n_max: int = 8,
) -> list[tuple]:
    """Plans of ``rate_vs_distance`` as tuples in ``ChainPlan`` field order."""
    initial = qc_zone_state(link_template, noise)
    chains = {m_stations: ChainParams(m_stations, 1.0) for m_stations in stations}
    levels = {chain.n_swap_levels for chain in chains.values()}
    tables = {k: chain_fidelity_table(initial, k, noise, n_max) for k in levels}
    lengths, stations, fc_modes = sorted(distances_km), sorted(stations), sorted(fc_modes)
    if lengths and stations and fc_modes:
        # the first row's chain checks its length and the target, in ChainParams' order
        ChainParams(stations[0], lengths[0], fidelity_target=fidelity_target)
    groups = _rows(
        lengths, [chains[m] for m in stations], fc_modes, cavity, link_template, timings_template
    )
    plans = {
        k: iter(_search(groups[k], fidelity_target, timings_template, table, n_max))
        for k, table in tables.items()
    }
    levels_per_length = [chains[m].n_swap_levels for m in stations for _ in fc_modes]
    return [next(plans[k]) for _ in lengths for k in levels_per_length]


def rate_vs_distance(
    distances_km,
    stations,
    fc_modes,
    cavity: CavityParams,
    link_template: LinkParams,
    noise: GateNoiseParams,
    timings_template: OperationTimings = OperationTimings(),
    fidelity_target: float = 0.99,
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
