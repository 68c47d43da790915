"""The package's dense circuits for the stages the engine runs on Bell weights.

These compose ``qrepsim.states`` and ``qrepsim.noise`` (the dense reference
algebra) into the zone-state and entanglement-swap circuits, so tests can
compare the closed forms against them. ``oracle.py`` holds the independent
raw-numpy versions of the same circuits.
"""

from dataclasses import dataclass

import numpy as np

from qrepsim import GateNoiseParams, LinkParams
from qrepsim.noise import noisy_measure_z, noisy_two_qubit_gate, swap_gate, transport_channel
from qrepsim.states import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    computational_state,
    expand_operator,
    partial_trace,
    tensor,
    werner,
)


@dataclass(frozen=True)
class BellBranch:
    outcomes: tuple
    probability: float


def qc_zone_state(lp: LinkParams, noise: GateNoiseParams) -> DensityMatrix:
    """Heralded pair -> noisy three-CNOT swap onto a fresh shuttle -> transport."""
    pair = werner(lp.technical_fidelity)
    with_shuttle = tensor(pair, computational_state("0"))
    swapped = swap_gate(with_shuttle, 1, 2, noise)
    moved_pair = partial_trace(swapped, keep=(0, 2))
    return transport_channel(moved_pair, 1, noise.f_move)


def bell_measurement(
    two_pairs: DensityMatrix, params: GateNoiseParams
) -> tuple[DensityMatrix, tuple]:
    """Swap two e-bits sharing a station into one end-to-end pair.

    Qubit order is (end_a, mid_1, mid_2, end_b). Outcome (x, y) from the
    mid qubits identifies the Bell projection; the correction X^(y^1) Z^x on
    end_b retargets every branch to psi+, and the branches are averaged with
    their probabilities.
    """
    if two_pairs.n_qubits != 4:
        raise ValueError("Bell measurement expects a 4-qubit state")
    rho = noisy_two_qubit_gate(two_pairs, "cnot", (1, 2), params)
    h_full = expand_operator(HADAMARD, 4, (1,))
    rotated = h_full @ rho.matrix @ h_full.conj().T
    rho = DensityMatrix.from_matrix((rotated + rotated.conj().T) / 2.0)
    averaged = np.zeros((4, 4), dtype=complex)
    branches = []
    for rec_y in noisy_measure_z(rho, 2, params.eta_meas):
        if rec_y.degenerate:
            continue
        for rec_x in noisy_measure_z(rec_y.post_state, 1, params.eta_meas):
            if rec_x.degenerate:
                continue
            prob = rec_y.probability * rec_x.probability
            x, y = rec_x.outcome, rec_y.outcome
            correction = (
                np.linalg.matrix_power(PAULI_X, (y ^ 1))
                @ np.linalg.matrix_power(PAULI_Z, x)
            )
            c_full = expand_operator(correction, 2, (1,))
            corrected = c_full @ rec_x.post_state.matrix @ c_full.conj().T
            averaged += prob * corrected
            branches.append(BellBranch(outcomes=(x, y), probability=prob))
    state = DensityMatrix.from_matrix(averaged)
    return state, tuple(branches)
