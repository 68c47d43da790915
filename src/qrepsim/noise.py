"""Noise models for local operations, as dense Kraus channels.

Imperfect two-qubit gates are Werner-style: with probability ``f_op`` the
gate acts ideally, otherwise the gate pair is replaced by the two-qubit
maximally mixed state (the rest of the register keeps its marginal).
Measurement error is a classical outcome flip with probability
``1 - eta_meas``. Transport depolarizes the moved qubit so that a perfect
e-bit arrives at fidelity ``f_move``. ``GateNoiseParams`` holds all three
numbers. These choices are the simplest CPTP models consistent with a
single-number error description. The engine applies them to Bell weights in
closed form; the Kraus channels here are the dense reference it is tested
against, and no command runs them. The closed forms hold for these models
only: a different model would have to run on the dense path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import (
    CNOT,
    CZ,
    DensityMatrix,
    KrausChannel,
    apply_channel,
    depolarizing_channel,
    expand_operator,
    maximally_mixed,
    partial_trace,
    pauli_strings,
)

_GATES = {"cnot": CNOT, "cz": CZ}

DEGENERATE_PROBABILITY = 1e-15


@dataclass(frozen=True)
class GateNoiseParams:
    """Atom-operation errors: gate fidelity, readout accuracy, transport fidelity."""

    f_op: float = 0.995
    eta_meas: float = 0.99
    f_move: float = 0.96

    def __post_init__(self):
        if not 0.25 < self.f_op <= 1.0:
            raise ValueError(f"f_op {self.f_op} outside (0.25, 1]")
        if not 0.5 < self.eta_meas <= 1.0:
            raise ValueError(f"eta_meas {self.eta_meas} outside (0.5, 1]")
        if not 0.25 < self.f_move <= 1.0:
            raise ValueError(f"f_move {self.f_move} outside (0.25, 1]")


# f_move keeps its default: ideal operations only run on given (Werner) inputs
IDEAL_OPS = GateNoiseParams(f_op=1.0, eta_meas=1.0)


@dataclass(frozen=True)
class MeasurementRecord:
    """One branch of a noisy computational-basis measurement."""

    outcome: int
    probability: float
    post_state: DensityMatrix | None
    degenerate: bool = False


@lru_cache(maxsize=None)
def gate_noise_channel(gate: str, f_op: float) -> KrausChannel:
    """Two-qubit gate followed by Werner-style depolarizing of the gate pair.

    Kraus form: sqrt(f) U plus sqrt((1-f)/16) P U over all 16 two-qubit
    Paulis P (the uniform Pauli twirl realizes the maximally mixed
    replacement).
    """
    u = _GATES[gate]
    ops = [np.sqrt(f_op) * u]
    if f_op < 1.0:
        ops += [np.sqrt((1.0 - f_op) / 16.0) * p @ u for p in pauli_strings(2)]
    return KrausChannel(tuple(ops))


def noisy_two_qubit_gate(
    rho: DensityMatrix, gate: str, on, params: GateNoiseParams
) -> DensityMatrix:
    """Apply a CNOT or CZ on ``on = (control, target)`` with gate noise."""
    control, target = on
    if control == target:
        raise ValueError("control and target must be distinct qubits")
    if gate not in _GATES:
        raise ValueError(f"unknown gate {gate!r}, expected 'cnot' or 'cz'")
    return apply_channel(rho, gate_noise_channel(gate, params.f_op), (control, target))


def noisy_measure_z(
    rho: DensityMatrix, qubit: int, eta_meas: float
) -> tuple[MeasurementRecord, MeasurementRecord]:
    """Measure one qubit in the computational basis with flip error 1 - eta.

    POVM elements are E_b = eta P_b + (1 - eta) P_{1-b}. The returned
    post-states have the measured qubit removed; a branch with probability
    below 1e-15 is flagged degenerate and carries the maximally mixed state.
    """
    n = rho.n_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    p0 = expand_operator(np.diag([1.0, 0.0]).astype(complex), n, (qubit,))
    p1 = expand_operator(np.diag([0.0, 1.0]).astype(complex), n, (qubit,))
    records = []
    for outcome in (0, 1):
        own, other = (p0, p1) if outcome == 0 else (p1, p0)
        e_op = eta_meas * own + (1.0 - eta_meas) * other
        prob = float(np.real(np.trace(e_op @ rho.matrix)))
        prob = min(max(prob, 0.0), 1.0)
        sqrt_e = np.sqrt(eta_meas) * own + np.sqrt(1.0 - eta_meas) * other
        keep = [q for q in range(n) if q != qubit]
        if prob < DEGENERATE_PROBABILITY:
            post = maximally_mixed(len(keep)) if keep else None
            records.append(MeasurementRecord(outcome, 0.0, post, degenerate=True))
            continue
        branch = sqrt_e @ rho.matrix @ sqrt_e
        branch = (branch + branch.conj().T) / 2.0
        if keep:
            post = partial_trace(
                DensityMatrix.from_matrix(branch / prob, check=False), keep
            )
        else:
            post = None
        records.append(MeasurementRecord(outcome, prob, post))
    return records[0], records[1]


def swap_gate(rho: DensityMatrix, a: int, b: int, params: GateNoiseParams) -> DensityMatrix:
    """Exchange two qubits via three noisy CNOTs: a->b, b->a, a->b."""
    if a == b:
        raise ValueError("swap needs two distinct qubits")
    rho = noisy_two_qubit_gate(rho, "cnot", (a, b), params)
    rho = noisy_two_qubit_gate(rho, "cnot", (b, a), params)
    rho = noisy_two_qubit_gate(rho, "cnot", (a, b), params)
    return rho


def transport_channel(rho: DensityMatrix, qubit: int, f_move: float) -> DensityMatrix:
    """Depolarize the moved qubit so a perfect e-bit ends at fidelity f_move.

    One-sided depolarizing with replacement probability p maps a Bell pair
    to fidelity 1 - 3p/4, so p = 4(1 - f_move)/3.
    """
    if not 0.25 < f_move <= 1.0:
        raise ValueError(f"f_move {f_move} outside (0.25, 1]")
    p = 4.0 * (1.0 - f_move) / 3.0
    return apply_channel(rho, depolarizing_channel(1, p), (qubit,))
