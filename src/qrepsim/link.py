"""Heralded photon-mediated link between two adjacent nodes.

Steady-state reflection off a single-sided cavity gives the probe photon a
conditional pi phase (Duan-Kimble gate). On resonance the amplitudes are

    r_uncoupled = 1 - 2 kappa_ex / kappa
    r_coupled   = 1 - 2 kappa_ex / (kappa + 4 g^2 / gamma)

with amplitude decay rates throughout. The default parameters put
|r_coupled| ~ |r_uncoupled| = 0.9 with opposite signs, i.e. unit
post-selected conditional-phase fidelity at 81% success.

Timing and success bookkeeping: the heralding success probability folds the
post-selected gate success into the fiber/circulator/detector budget, and
the expected e-bit preparation time is one attempt duration divided by it
(serial mode) or, in pipelined mode, only the pulse time is retried while
the flight time is paid once. The link length and frequency conversion
(FC) are arguments of the loss and timing functions, so ``LinkParams``
holds configuration only; ``configured_esta`` uses the configured length
without FC and rejects an infinite T_esta, from an overflow or from a
herald success of 0.
The zone state takes f_op and f_move from ``GateNoiseParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .noise import GateNoiseParams
from .states import BellDiagonalState, check_finite, check_positive

C_VAC_M_PER_S = 299792458.0

HERALD_MODES = ("serial", "pipelined")
ESTA_CONVENTIONS = ("text", "table")
CZ_ACCOUNTINGS = ("paper", "per_cavity")


def classical_delay_us(l_km: float) -> float:
    """One-way classical signalling time over l_km (a float or an array) at vacuum light speed."""
    return l_km * 1e3 / C_VAC_M_PER_S * 1e6


@dataclass(frozen=True)
class CavityParams:
    """Atom-cavity rates, configured in units of 2*pi MHz (amplitude decay)."""

    g_mhz: float = 7.6
    kappa_mhz: float = 4.0
    kappa0_mhz: float = 0.2
    gamma_mhz: float = 3.0

    def __post_init__(self):
        check_finite(self)
        for name in ("g_mhz", "kappa_mhz", "kappa0_mhz", "gamma_mhz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.kappa0_mhz >= self.kappa_mhz:
            raise ValueError(
                f"kappa0 ({self.kappa0_mhz}) must be below kappa ({self.kappa_mhz})"
            )

    @property
    def kappa_ex_mhz(self) -> float:
        return self.kappa_mhz - self.kappa0_mhz

    @property
    def kappa_rad_per_s(self) -> float:
        return 2.0 * math.pi * self.kappa_mhz * 1e6


@dataclass(frozen=True)
class LinkParams:
    """Fiber, loss, detection and heralding conventions for one link."""

    length_km: float = 0.1
    fiber_db_per_km: float = 3.0       # 780 nm
    fiber_db_per_km_fc: float = 0.19   # 1550 nm after frequency conversion
    circulator_loss_db: float = 1.0
    n_circulators: int = 2
    detector_efficiency: float = 0.75
    eta_fc: float = 0.6
    fiber_index: float = 1.5
    pulse_factor: float = 20.0
    technical_fidelity: float = 0.96
    herald_mode: str = "serial"
    esta_convention: str = "text"
    cz_accounting: str = "paper"

    def __post_init__(self):
        check_finite(self)
        if self.length_km <= 0:
            raise ValueError("length_km must be positive")
        if self.fiber_db_per_km < 0 or self.fiber_db_per_km_fc < 0:
            raise ValueError("fiber attenuation must be nonnegative")
        if self.circulator_loss_db < 0:
            raise ValueError("circulator loss must be nonnegative")
        if self.n_circulators < 0:
            raise ValueError("circulator count must be nonnegative")
        if not 0 < self.detector_efficiency <= 1:
            raise ValueError("detector_efficiency must lie in (0, 1]")
        if not 0 < self.eta_fc <= 1:
            raise ValueError("eta_fc must lie in (0, 1]")
        if self.fiber_index < 1:
            raise ValueError("fiber_index must be at least 1")
        if self.pulse_factor <= 0:
            raise ValueError("pulse_factor must be positive")
        if not 0.25 < self.technical_fidelity <= 1:
            raise ValueError("technical_fidelity must lie in (0.25, 1]")
        if self.herald_mode not in HERALD_MODES:
            raise ValueError(f"herald_mode must be one of {HERALD_MODES}")
        if self.esta_convention not in ESTA_CONVENTIONS:
            raise ValueError(f"esta_convention must be one of {ESTA_CONVENTIONS}")
        if self.cz_accounting not in CZ_ACCOUNTINGS:
            raise ValueError(f"cz_accounting must be one of {CZ_ACCOUNTINGS}")


@dataclass(frozen=True)
class LinkBudget:
    """Derived per-link quantities."""

    r_uncoupled: complex
    r_coupled: complex
    p_cz: float
    p_succ: float
    t_attempt_us: float
    t_esta_us: float
    heralded_state: BellDiagonalState


def reflection_amplitude(p: CavityParams, atom_coupled: bool) -> complex:
    """On-resonance reflection amplitude of the single-sided cavity."""
    if atom_coupled:
        denom = p.kappa_mhz + 4.0 * p.g_mhz**2 / p.gamma_mhz
    else:
        denom = p.kappa_mhz
    return complex(1.0 - 2.0 * p.kappa_ex_mhz / denom, 0.0)


def link_transmission(lp: LinkParams, length_km: float, fc: bool = False) -> float:
    """Transmission over length_km (a float or a 1-D array): fiber, circulators, detector, FC."""
    db = (lp.fiber_db_per_km_fc if fc else lp.fiber_db_per_km) * length_km
    db += lp.n_circulators * lp.circulator_loss_db
    power = -db / 10.0
    if getattr(power, "ndim", 0):  # libm's pow per element: numpy's may differ in the last bit
        power[:] = [10.0**x for x in power.tolist()]
    else:
        power = 10.0**power
    eta = power * lp.detector_efficiency
    if fc:
        eta *= lp.eta_fc**2
    return eta


def cz_success(p: CavityParams, lp: LinkParams) -> float:
    """Post-selected conditional-phase success probability.

    The loss-budget arithmetic counts |r|^2 once for the whole two-cavity
    heralding sequence ('paper' accounting); 'per_cavity' charges |r|^2 at
    each cavity instead.
    """
    r2 = abs(reflection_amplitude(p, atom_coupled=False)) ** 2
    return r2 if lp.cz_accounting == "paper" else r2**2


def herald_success(p: CavityParams, lp: LinkParams, length_km: float, fc: bool = False) -> float:
    return cz_success(p, lp) * link_transmission(lp, length_km, fc)


def expected_esta(
    p: CavityParams, lp: LinkParams, length_km: float, fc: bool = False
) -> tuple[float, float]:
    """(single-attempt duration, expected e-bit preparation time) in us.

    The attempt is one probe pulse (pulse_factor / kappa) plus photon flight
    (l/v) plus classical heralding (l/c); the 'table' convention drops the
    l/c term. Serial heralding retries the whole attempt, pipelined
    heralding retries only the pulse. An array of lengths gives arrays of the
    scalar values, and infinity where a float's herald success of 0 raises.
    """
    pulse_us = lp.pulse_factor / p.kappa_rad_per_s * 1e6
    l_m = length_km * 1e3
    flight_us = l_m / (C_VAC_M_PER_S / lp.fiber_index) * 1e6
    if lp.esta_convention == "text":
        flight_us += classical_delay_us(length_km)
    t_attempt = pulse_us + flight_us
    p_succ = herald_success(p, lp, length_km, fc)
    if lp.herald_mode == "serial":
        t_esta = t_attempt / p_succ
    else:
        t_esta = pulse_us / p_succ + flight_us
    return t_attempt, t_esta


def heralded_state(lp: LinkParams) -> BellDiagonalState:
    """Bell weights of the e-bit after heralding, technical errors folded in.

    The conditional-X correction is assumed applied, so the target is psi+;
    the combined technical infidelity enters as a single Werner parameter.
    """
    return BellDiagonalState.werner(lp.technical_fidelity)


def qc_zone_state(lp: LinkParams, noise: GateNoiseParams) -> BellDiagonalState:
    """Bell weights of the e-bit as delivered to the computation zone.

    Heralded pair -> noisy three-CNOT swap onto a fresh shuttle qubit ->
    depolarizing transport of the shuttle. Each CNOT fails to I/4 on the pair
    with probability 1 - f_op, and transport replaces the shuttle by I/2 with
    probability p = 4 (1 - noise.f_move) / 3, so Werner in gives Werner out.
    """
    p = 4.0 * (1.0 - noise.f_move) / 3.0
    f3 = noise.f_op**3
    swapped = f3 * heralded_state(lp).fidelity + (1.0 - f3) / 4.0
    return BellDiagonalState.werner((1.0 - p) * swapped + p / 4.0)


def configured_esta(p: CavityParams, lp: LinkParams) -> tuple[float, float]:
    """``expected_esta`` at the configured length; T_esta must be finite."""
    try:
        t_attempt, t_esta = expected_esta(p, lp, lp.length_km)
    except ZeroDivisionError:  # herald success underflowed to 0: T_esta is infinite
        t_attempt, t_esta = math.nan, math.inf
    check_positive("t_esta_us", t_esta)
    return t_attempt, t_esta


def link_budget(p: CavityParams, lp: LinkParams) -> LinkBudget:
    """Budget of one link at its configured length; T_esta must be finite."""
    t_attempt, t_esta = configured_esta(p, lp)
    return LinkBudget(
        r_uncoupled=reflection_amplitude(p, atom_coupled=False),
        r_coupled=reflection_amplitude(p, atom_coupled=True),
        p_cz=cz_success(p, lp),
        p_succ=herald_success(p, lp, lp.length_km),
        t_attempt_us=t_attempt,
        t_esta_us=t_esta,
        heralded_state=heralded_state(lp),
    )
