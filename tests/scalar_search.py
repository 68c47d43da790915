"""The scalar (N1, N2) plan search, kept as the reference for the array search.

``optimize_plan`` walks the (N1, N2) grid of ``t_qr_cells`` one cell at a
time, each cell's purification times summed left to right;
``rate_vs_distance`` calls it once per (L, M, fc) row. ``qrepsim.chain`` runs one array search instead;
tests require the two to return equal ``ChainPlan`` values field by field.
Unlike the package, this loop reports a plan whose T_QR overflows to
infinity as feasible with rate 0; the package rejects it. A query's checks
are written out here, not shared, so the package's order of error messages
is compared with this one.
"""

import math
from dataclasses import replace

from qrepsim.chain import (
    FIDELITY_TARGET,
    ChainPlan,
    chain_fidelity_table,
    check_fidelity_target,
    check_stations,
    t_repe,
)
from qrepsim.link import CavityParams, LinkParams, expected_esta, qc_zone_state
from qrepsim.noise import GateNoiseParams
from qrepsim.schedule import OperationTimings, classical_delay_us, t_eg, t_puri


def t_qr_cells(m_stations, total_length_km, link_km, t_esta_us, timings, table, n_max=8) -> dict:
    """T_QR of every (N1, N2) cell up to n_max, feasible or not, in N1-major order."""
    repe = t_repe(timings.t_proj_us, total_length_km) if m_stations > 2 else 0.0
    lc_total = classical_delay_us(total_length_km)
    cells = {}
    for n1 in range(n_max + 1):
        pair_time = t_eg(n1, timings, t_esta_us, link_km, table.pre_swap_p).t_eg_us + repe
        for n2 in range(n_max + 1):
            purification = 0  # sum()'s start, then left to right as sum() adds before 3.12
            for p in table.end_p[n1][:n2]:
                purification += t_puri(timings.t_proj_us, p) + lc_total
            cells[n1, n2] = max(2**n2 * pair_time, purification)
    return cells


def _check_query(m_stations, total_length_km, fidelity_target):
    """A chain query's checks, in their order: M, then L and the target finite, then in range."""
    n_swap_levels = check_stations(m_stations)
    for name, value in (("total_length_km", total_length_km), ("fidelity_target", fidelity_target)):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if total_length_km <= 0:
        raise ValueError("total_length_km must be positive")
    check_fidelity_target(fidelity_target)
    return n_swap_levels


def optimize_plan(
    m_stations: int,
    total_length_km: float,
    cavity: CavityParams,
    link_template: LinkParams,
    noise: GateNoiseParams,
    timings_template: OperationTimings = OperationTimings(),
    n_max: int = 8,
    table=None,
    *,
    fc: bool = False,
    fidelity_target: float = FIDELITY_TARGET,
) -> ChainPlan:
    n_swap_levels = _check_query(m_stations, total_length_km, fidelity_target)
    link = replace(link_template, length_km=total_length_km / (m_stations - 1))
    _, t_esta_us = expected_esta(cavity, link, link.length_km, fc)
    timings = timings_template
    timings.stage_time_us(t_esta_us)  # rejects a T_esta that is not finite, as the package does
    if table is None:
        table = chain_fidelity_table(
            qc_zone_state(link, noise), n_swap_levels, noise, n_max
        )
    best_key = None
    best = None
    best_fid = (-1.0, 0, 0)
    cells = t_qr_cells(
        m_stations, total_length_km, link.length_km, t_esta_us, timings, table, n_max
    )
    for (n1, n2), t_qr in cells.items():
        f_m = table.end_fidelities[n1][n2]
        if f_m > best_fid[0]:
            best_fid = (f_m, n1, n2)
        if f_m < fidelity_target - 1e-12:
            continue
        key = (t_qr, n2, n1)
        if best_key is None or key < best_key:
            best_key = key
            best = (n1, n2, f_m, t_qr)
    if best is None:
        return ChainPlan(
            m_stations=m_stations,
            total_length_km=total_length_km,
            fc_enabled=fc,
            fidelity_target=fidelity_target,
            n1=best_fid[1],
            n2=best_fid[2],
            f_m=best_fid[0],
            t_qr_us=0.0,
            rate_hz=0.0,
            feasible=False,
        )
    n1, n2, f_m, t_qr = best
    return ChainPlan(
        m_stations=m_stations,
        total_length_km=total_length_km,
        fc_enabled=fc,
        fidelity_target=fidelity_target,
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
    timings_template: OperationTimings = OperationTimings(),
    fidelity_target: float = FIDELITY_TARGET,
    n_max: int = 8,
) -> list[ChainPlan]:
    initial = qc_zone_state(link_template, noise)
    levels = {check_stations(m_stations) for m_stations in stations}
    tables = {k: chain_fidelity_table(initial, k, noise, n_max) for k in levels}
    rows = []
    for length in sorted(distances_km):
        for m_stations in sorted(stations):
            for fc in sorted(fc_modes):
                rows.append(
                    optimize_plan(
                        m_stations,
                        length,
                        cavity,
                        link_template,
                        noise,
                        timings_template,
                        n_max=n_max,
                        table=tables[check_stations(m_stations)],
                        fc=fc,
                        fidelity_target=fidelity_target,
                    )
                )
    return rows
