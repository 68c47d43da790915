"""End-to-end entanglement across a chain of repeater stations.

A chain of M stations (M-1 a power of two) swaps its per-link e-bits in
m = log2(M-1) pairwise levels. Each Bell measurement is a noisy CNOT on the
two middle qubits, an ideal Hadamard, two noisy readouts, and the
outcome-conditioned Pauli correction on the far end; the engine applies it
to Bell weights in closed form. Purification runs before the swaps (N1
rounds per link) and after them (N2 rounds end to end), and the total time

    T_QR(N1, N2) = max( 2^N2 * (T_EG(N1) + T_repe),
                        sum_k (T_proj / P_puri_k + L/c) )

is minimized over (N1, N2) subject to the end-to-end fidelity target. At
N2 = 0 this is exactly T_EG(N1) + T_repe; a degenerate two-station chain
performs no Bell measurement, so T_repe contributes only for M > 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .link import C_VAC_M_PER_S, CavityParams, LinkParams, expected_esta, qc_zone_state
from .noise import GateNoiseParams
from .purify import purify_ladder_weights
from .schedule import OperationTimings, classical_delay_us, t_eg, t_puri
from .states import BELL_BITS, BellDiagonalState, check_finite
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

    @property
    def link_length_km(self) -> float:
        return self.total_length_km / (self.m_stations - 1)


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


def _xor_combine(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Weights of the label (a1^a2, b1^b2) for independent labels drawn from w1 and w2."""
    out = np.zeros(4)
    for i1, (a1, b1) in enumerate(BELL_BITS):
        for i2, (a2, b2) in enumerate(BELL_BITS):
            out[BELL_BITS.index((a1 ^ a2, b1 ^ b2))] += w1[i1] * w2[i2]
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
    right_readout = {True: params.eta_meas, False: 1.0 - params.eta_meas}
    # distribution of the bits added to (a1^a2, b1^b2): (0, 1) when both readouts are right
    offset = np.array([right_readout[a == 0] * right_readout[b == 1] for a, b in BELL_BITS])
    mixed = _xor_combine(_xor_combine(left.weights, right.weights), offset)
    return BellDiagonalState(params.f_op * mixed + (1.0 - params.f_op) / 4.0)


def t_repe(chain: ChainParams, t_proj_us: float) -> float:
    """Swap-stage time: classical relay over L/2 plus one readout."""
    return chain.total_length_km * 1e3 / (2 * C_VAC_M_PER_S) * 1e6 + t_proj_us


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


def optimize_plan(
    chain: ChainParams,
    cavity: CavityParams,
    link_template: LinkParams,
    noise: GateNoiseParams,
    timings_template: OperationTimings | None = None,
    f_move: float = 0.96,
    n_max: int = 8,
    table: ChainFidelityTable | None = None,
) -> ChainPlan:
    """Exhaustive (N1, N2) search minimizing T_QR at the fidelity target.

    Infeasible targets return feasible=False with the best achievable
    fidelity and zero rate. Ties in T_QR prefer fewer post-swap rounds.
    """
    link = link_template.with_length(chain.link_length_km, chain.fc_enabled)
    _, t_esta_us = expected_esta(cavity, link)
    if timings_template is None:
        timings = OperationTimings(t_esta_us=t_esta_us, l_km=link.length_km)
    else:
        timings = replace(timings_template, t_esta_us=t_esta_us, l_km=link.length_km)
    if table is None:
        table = chain_fidelity_table(
            qc_zone_state(link, noise, f_move), chain.n_swap_levels, noise, n_max
        )
    repe = t_repe(chain, timings.t_proj_us) if chain.n_swap_levels > 0 else 0.0
    lc_total = classical_delay_us(chain.total_length_km)
    best_key = None
    best = None
    best_fid = (-1.0, 0, 0)
    for n1 in range(n_max + 1):
        pair_time = t_eg(n1, timings, table.pre_swap_p).t_eg_us + repe
        for n2 in range(n_max + 1):
            f_m = table.end_fidelities[n1][n2]
            if f_m > best_fid[0]:
                best_fid = (f_m, n1, n2)
            if f_m < chain.fidelity_target - 1e-12:
                continue
            purification = sum(
                t_puri(timings.t_proj_us, p) + lc_total for p in table.end_p[n1][:n2]
            )
            t_qr = max(2**n2 * pair_time, purification)
            key = (t_qr, n2, n1)
            if best_key is None or key < best_key:
                best_key = key
                best = (n1, n2, f_m, t_qr)
    if best is None:
        return ChainPlan(
            m_stations=chain.m_stations,
            total_length_km=chain.total_length_km,
            fc_enabled=chain.fc_enabled,
            fidelity_target=chain.fidelity_target,
            n1=best_fid[1],
            n2=best_fid[2],
            f_m=best_fid[0],
            t_qr_us=0.0,
            rate_hz=0.0,
            feasible=False,
        )
    n1, n2, f_m, t_qr = best
    return ChainPlan(
        m_stations=chain.m_stations,
        total_length_km=chain.total_length_km,
        fc_enabled=chain.fc_enabled,
        fidelity_target=chain.fidelity_target,
        n1=n1,
        n2=n2,
        f_m=f_m,
        t_qr_us=t_qr,
        rate_hz=timings.parallel_links * 1e6 / t_qr,
        feasible=True,
    )


def rate_vs_distance(
    distances_km,
    stations,
    fc_modes,
    cavity: CavityParams,
    link_template: LinkParams,
    noise: GateNoiseParams,
    timings_template: OperationTimings | None = None,
    fidelity_target: float = 0.99,
    f_move: float = 0.96,
    n_max: int = 8,
) -> list[ChainPlan]:
    """Optimized plans over a (distance, station count, FC) grid.

    Rows come out ordered by (L, M, fc). The fidelity recurrences do not
    depend on the link length, so they are computed once per swap-level count.
    """
    initial = qc_zone_state(link_template, noise, f_move)
    levels = {ChainParams(m_stations, 1.0).n_swap_levels for m_stations in stations}
    tables = {k: chain_fidelity_table(initial, k, noise, n_max) for k in levels}
    rows = []
    for length in sorted(distances_km):
        for m_stations in sorted(stations):
            for fc in sorted(fc_modes):
                chain = ChainParams(
                    m_stations, length, fidelity_target=fidelity_target, fc_enabled=fc
                )
                rows.append(
                    optimize_plan(
                        chain,
                        cavity,
                        link_template,
                        noise,
                        timings_template,
                        f_move=f_move,
                        n_max=n_max,
                        table=tables[chain.n_swap_levels],
                    )
                )
    return rows
