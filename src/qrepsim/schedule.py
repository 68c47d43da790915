"""Pipeline timing: operation durations -> e-bit rates.

The assembly line overlaps e-bit generation (cavity + swap + transport) with
purification, so the time to deliver one purified e-bit from 2^N raw pairs
is

    T_EG(N) = max( 2^N * max(T_esta + T_swap, T_swap + T_move),
                   sum_k (T_proj / P_puri_k + l/c) )

with the per-round purification success probabilities taken from the actual
recurrence at the evolving fidelity. T_move is treated as the already
averaged effective duration by default ('averaged'); the 'explicit'
accounting divides the per-pair stage time by the transport success
probability instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .link import C_VAC_M_PER_S, CavityParams, LinkParams, expected_esta, qc_zone_state
from .noise import GateNoiseParams
from .purify import purify_ladder_weights
from .states import BellDiagonalState, check_finite
# purify_n_rounds: unused, but bench/test_spans.py checks it is bound here
from .purify import purify_n_rounds  # noqa: F401

MOVE_ACCOUNTINGS = ("averaged", "explicit")


def classical_delay_us(l_km: float) -> float:
    """One-way classical signalling time over l_km at vacuum light speed."""
    return l_km * 1e3 / C_VAC_M_PER_S * 1e6


@dataclass(frozen=True)
class OperationTimings:
    t_esta_us: float
    t_swap_us: float = 2.0
    t_move_us: float = 20.0
    t_proj_us: float = 200.0
    p_move: float = 0.9
    l_km: float = 0.1
    move_accounting: str = "averaged"
    parallel_links: int = 1

    def __post_init__(self):
        check_finite(self)
        for name in ("t_esta_us", "t_swap_us", "t_move_us", "t_proj_us"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.p_move <= 1:
            raise ValueError("p_move must lie in (0, 1]")
        if self.l_km <= 0:
            raise ValueError("l_km must be positive")
        if self.move_accounting not in MOVE_ACCOUNTINGS:
            raise ValueError(f"move_accounting must be one of {MOVE_ACCOUNTINGS}")
        if self.parallel_links < 1:
            raise ValueError("parallel_links must be at least 1")

    def stage_time_us(self, t_esta_us: float | None = None) -> float:
        """Per-pair time of the pipelined generation stage (T_esta default self.t_esta_us)."""
        if t_esta_us is None:
            t_esta_us = self.t_esta_us
        stage = max(t_esta_us + self.t_swap_us, self.t_swap_us + self.t_move_us)
        if self.move_accounting == "explicit":
            stage /= self.p_move
        return stage


@dataclass(frozen=True)
class ScheduleResult:
    n_rounds: int
    t_eg_us: float
    effective_rate_hz: float
    final_fidelity: float
    generation_limited: bool
    p_puri: float  # success probability of the last round, 1 at N = 0


def t_puri(t_proj_us: float, p_puri: float) -> float:
    """Average duration of one purification step, T_proj / P_puri."""
    if not 0 < p_puri <= 1:
        raise ValueError(f"p_puri {p_puri} outside (0, 1]")
    return t_proj_us / p_puri


def t_eg(
    n: int,
    timings: OperationTimings,
    per_round_p_puri,
    final_fidelity: float = float("nan"),
) -> ScheduleResult:
    """Pipeline time and effective rate for N purification rounds."""
    if n < 0:
        raise ValueError("round count must be nonnegative")
    p_list = list(per_round_p_puri)
    if len(p_list) < n:
        raise ValueError(f"need {n} per-round success probabilities, got {len(p_list)}")
    generation = 2**n * timings.stage_time_us()
    lc = classical_delay_us(timings.l_km)
    purification = sum(t_puri(timings.t_proj_us, p) + lc for p in p_list[:n])
    total = max(generation, purification)
    return ScheduleResult(
        n_rounds=n,
        t_eg_us=total,
        effective_rate_hz=timings.parallel_links * 1e6 / total,
        final_fidelity=final_fidelity,
        generation_limited=generation >= purification,
        p_puri=p_list[n - 1] if n else 1.0,
    )


def rate_fidelity_curve(
    n_max: int,
    cavity: CavityParams,
    link: LinkParams,
    noise: GateNoiseParams,
    timings: OperationTimings | None = None,
    initial_state: BellDiagonalState | None = None,
    f_move: float = 0.96,
) -> list[ScheduleResult]:
    """Fidelity and effective rate versus purification rounds N = 0..n_max.

    The default initial state is the heralded pair pushed through the noisy
    swap and transport (the e-bit as it lands in the computation zone).
    """
    if n_max > 10:
        raise ValueError("n_max above 10 is not supported")
    _, t_esta_us = expected_esta(cavity, link)
    if timings is None:
        timings = OperationTimings(t_esta_us=t_esta_us, l_km=link.length_km)
    else:
        timings = replace(timings, t_esta_us=t_esta_us, l_km=link.length_km)
    if initial_state is None:
        initial_state = qc_zone_state(link, noise, f_move)
    states, p_list = purify_ladder_weights(initial_state, n_max, noise)
    return [
        t_eg(n, timings, p_list, final_fidelity=states[n].fidelity) for n in range(n_max + 1)
    ]


def calibrate_t_proj(
    target_rate_hz: float,
    n: int,
    timings: OperationTimings,
    per_round_p_puri,
) -> float:
    """Readout time that makes the N-round pipeline hit a target rate.

    Solves sum_k (t_proj / p_k + l/c) = parallel_links * 1e6 / target for
    t_proj; only valid where the pipeline is purification dominated, which
    is checked against the generation stage.
    """
    if target_rate_hz <= 0:
        raise ValueError("target rate must be positive")
    if n < 1:
        raise ValueError("calibration needs at least one purification round")
    p_list = list(per_round_p_puri)[:n]
    if len(p_list) < n:
        raise ValueError(f"need {n} per-round success probabilities, got {len(p_list)}")
    total_us = timings.parallel_links * 1e6 / target_rate_hz
    lc = classical_delay_us(timings.l_km)
    t_proj = (total_us - n * lc) / sum(1.0 / p for p in p_list)
    if t_proj <= 0:
        raise ValueError("target rate is unreachable: classical delays alone exceed it")
    if 2**n * timings.stage_time_us() > total_us:
        raise ValueError(
            "target rate is generation limited; t_proj cannot be calibrated to it"
        )
    return t_proj
