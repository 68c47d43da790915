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

``OperationTimings`` holds configured durations only; T_esta and l are
arguments. Sums run left to right, as ``sum()`` did before Python 3.12
began to compensate it, so results do not depend on the Python version.
"""

from __future__ import annotations

from dataclasses import dataclass

from .link import CavityParams, LinkParams, classical_delay_us, configured_esta, qc_zone_state
from .noise import GateNoiseParams
from .purify import purify_ladder_weights
from .states import BellDiagonalState, check_finite, check_positive
# purify_n_rounds: unused, but bench/test_spans.py checks it is bound here
from .purify import purify_n_rounds  # noqa: F401

MOVE_ACCOUNTINGS = ("averaged", "explicit")


@dataclass(frozen=True)
class OperationTimings:
    """Configured operation durations; T_esta and the link length come per query."""

    t_swap_us: float = 2.0
    t_move_us: float = 20.0
    t_proj_us: float = 200.0
    p_move: float = 0.9
    move_accounting: str = "averaged"
    parallel_links: int = 1

    def __post_init__(self):
        check_finite(self)
        for name in ("t_swap_us", "t_move_us", "t_proj_us"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.p_move <= 1:
            raise ValueError("p_move must lie in (0, 1]")
        if self.move_accounting not in MOVE_ACCOUNTINGS:
            raise ValueError(f"move_accounting must be one of {MOVE_ACCOUNTINGS}")
        if self.parallel_links < 1:
            raise ValueError("parallel_links must be at least 1")

    def stage_time_us(self, t_esta_us: float) -> float:
        """Per-pair time of the pipelined generation stage at a finite, positive T_esta."""
        generation, floor = t_esta_us + self.t_swap_us, self.t_swap_us + self.t_move_us
        if getattr(generation, "ndim", 0):  # an array of T_esta: the caller checks its values
            stage = generation.clip(floor)
        else:
            check_positive("t_esta_us", t_esta_us)
            stage = max(generation, floor)
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
    t_esta_us: float,
    l_km: float,
    per_round_p_puri,
    final_fidelity: float = float("nan"),
) -> ScheduleResult:
    """Pipeline time and effective rate for N purification rounds over a link of l_km."""
    if n < 0:
        raise ValueError("round count must be nonnegative")
    p_list = list(per_round_p_puri)
    if len(p_list) < n:
        raise ValueError(f"need {n} per-round success probabilities, got {len(p_list)}")
    generation = 2**n * timings.stage_time_us(t_esta_us)
    check_positive("l_km", l_km)
    lc = classical_delay_us(l_km)
    purification = 0.0  # summed left to right: sum() compensates from Python 3.12 on
    for p in p_list[:n]:
        purification += t_puri(timings.t_proj_us, p) + lc
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
    timings: OperationTimings = OperationTimings(),
    initial_state: BellDiagonalState | None = None,
) -> list[ScheduleResult]:
    """Fidelity and effective rate versus purification rounds N = 0..n_max.

    The default initial state is the heralded pair pushed through the noisy
    swap and transport (the e-bit as it lands in the computation zone). A
    T_esta, T_EG or rate that overflows to infinity is an error, never a row
    with a zero or infinite rate.
    """
    if n_max > 10:
        raise ValueError("n_max above 10 is not supported")
    _, t_esta_us = configured_esta(cavity, link)  # before the ladder runs
    if initial_state is None:
        initial_state = qc_zone_state(link, noise)
    states, p_list = purify_ladder_weights(initial_state, n_max, noise)
    curve = [
        t_eg(n, timings, t_esta_us, link.length_km, p_list, final_fidelity=states[n].fidelity)
        for n in range(n_max + 1)
    ]
    for result in curve:
        check_positive("t_eg_us", result.t_eg_us)
    for result in curve:  # a time that overflows is reported first
        check_positive("rate_hz", result.effective_rate_hz)
    return curve


def calibrate_t_proj(
    target_rate_hz: float,
    n: int,
    timings: OperationTimings,
    t_esta_us: float,
    l_km: float,
    per_round_p_puri,
) -> float:
    """Readout time that makes the N-round pipeline over a link of l_km hit a target rate.

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
    generation = 2**n * timings.stage_time_us(t_esta_us)
    check_positive("l_km", l_km)
    total_us = timings.parallel_links * 1e6 / target_rate_hz
    lc = classical_delay_us(l_km)
    inverse_p = 0.0  # summed left to right, as in t_eg
    for p in p_list:
        inverse_p += 1.0 / p
    t_proj = (total_us - n * lc) / inverse_p
    if t_proj <= 0:
        raise ValueError("target rate is unreachable: classical delays alone exceed it")
    if generation > total_us:
        raise ValueError(
            "target rate is generation limited; t_proj cannot be calibrated to it"
        )
    return t_proj
