"""The scalar (N1, N2) plan search, kept as the reference for the array search.

``optimize_plan`` walks the (N1, N2) grid one cell at a time and sums each
cell's purification times with Python's ``sum``; ``rate_vs_distance`` calls
it once per (L, M, fc) row. ``qrepsim.chain`` runs one array search instead;
tests require the two to return equal ``ChainPlan`` values field by field.
Unlike the package, this loop reports a plan whose T_QR overflows to
infinity as feasible with rate 0; the package rejects it.
"""

from dataclasses import replace

from qrepsim.chain import ChainParams, ChainPlan, chain_fidelity_table, t_repe
from qrepsim.link import CavityParams, LinkParams, expected_esta, qc_zone_state
from qrepsim.noise import GateNoiseParams
from qrepsim.schedule import OperationTimings, classical_delay_us, t_eg, t_puri


def optimize_plan(
    chain: ChainParams,
    cavity: CavityParams,
    link_template: LinkParams,
    noise: GateNoiseParams,
    timings_template: OperationTimings | None = None,
    f_move: float = 0.96,
    n_max: int = 8,
    table=None,
) -> ChainPlan:
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
