"""Entanglement purification recurrence.

One round consumes two e-bit pairs: bilateral noisy CNOTs (the kept pair's
qubits act as controls), noisy computational-basis readout of the sacrificed
pair, and post-selection on equal outcomes. N nested rounds consume 2^N
pairs.

Each round starts with bilateral X-axis quarter rotations on all qubits
(exp(-i pi X/4) on node-a qubits, exp(+i pi X/4) on node-b qubits). These
exchange the phi- and psi- weights while leaving phi+ and psi+ untouched, so
Werner inputs are unaffected, but the nested recurrence alternates which
error species the parity check suppresses. Without this Deutsch-style
balancing, phase errors random-walk and the iteration diverges after the
first round instead of converging to the high-fidelity plateau.

The engine runs rounds on four float Bell weights (``purify_round_weights``,
``purify_ladder_weights``, ``fixed_point_fidelity``): gate noise leaves the
maximally mixed state, so a round never leaves the Bell-diagonal manifold.
All three wrap ``_round``, which writes the round's 16 terms out on weight
tuples and checks each output once, through ``states._bell_weights``.
``purify_round`` and ``purify_n_rounds`` are the 16-dimensional dense
reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import GateNoiseParams, noisy_measure_z, noisy_two_qubit_gate
from .states import ID2, PAULI_X, PSI_PLUS, BellDiagonalState, DensityMatrix, _bell_weights
from .states import fidelity_bell, tensor


class PurificationError(ValueError):
    """Raised when a round degenerates (acceptance probability ~ 0)."""


_ROT_A = (ID2 - 1j * PAULI_X) / np.sqrt(2)  # exp(-i pi X / 4)
_ROT_B = (ID2 + 1j * PAULI_X) / np.sqrt(2)  # exp(+i pi X / 4)


@dataclass(frozen=True)
class PurificationRound:
    input_fidelity: float
    output_state: DensityMatrix
    p_puri: float
    output_fidelity: float


@dataclass(frozen=True)
class PurificationSchedule:
    n_rounds: int
    rounds: tuple
    initial_state: DensityMatrix

    @property
    def pairs_consumed(self) -> int:
        return 2**self.n_rounds

    @property
    def final_state(self) -> DensityMatrix:
        return self.rounds[-1].output_state if self.rounds else self.initial_state

    @property
    def final_fidelity(self) -> float:
        return fidelity_bell(self.final_state, PSI_PLUS)

    @property
    def fidelities(self) -> tuple:
        """Fidelity after 0, 1, ..., n rounds."""
        return (fidelity_bell(self.initial_state, PSI_PLUS),) + tuple(
            r.output_fidelity for r in self.rounds
        )

    @property
    def success_probabilities(self) -> tuple:
        return tuple(r.p_puri for r in self.rounds)


def balance_errors(rho: DensityMatrix) -> DensityMatrix:
    """Bilateral quarter rotation on every pair of a 2- or 4-qubit state.

    Qubits alternate node a / node b; the rotation swaps the phi- and psi-
    Bell weights of each pair and fixes phi+ and psi+ (Werner states are
    invariant).
    """
    u = np.array([[1.0]], dtype=complex)
    for q in range(rho.n_qubits):
        u = np.kron(u, _ROT_A if q % 2 == 0 else _ROT_B)
    out = u @ rho.matrix @ u.conj().T
    return DensityMatrix.from_matrix((out + out.conj().T) / 2.0)


def purify_round(
    kept: DensityMatrix,
    sacrificed: DensityMatrix,
    params: GateNoiseParams,
    balanced: bool = True,
) -> PurificationRound:
    """Run one purification round on the full 16-dimensional state.

    Qubit layout after the tensor product is (A1, B1, A2, B2); the CNOTs run
    A1->A2 at node a and B1->B2 at node b, then A2 and B2 are measured with
    accuracy eta and the round succeeds on equal outcomes.
    """
    if kept.n_qubits != 2 or sacrificed.n_qubits != 2:
        raise ValueError("purification consumes two 2-qubit states")
    input_fidelity = fidelity_bell(kept, PSI_PLUS)
    rho = tensor(kept, sacrificed)
    if balanced:
        rho = balance_errors(rho)
    rho = noisy_two_qubit_gate(rho, "cnot", (0, 2), params)
    rho = noisy_two_qubit_gate(rho, "cnot", (1, 3), params)
    accepted = np.zeros((4, 4), dtype=complex)
    p_puri = 0.0
    for rec_b in noisy_measure_z(rho, 3, params.eta_meas):
        if rec_b.degenerate:
            continue
        for rec_a in noisy_measure_z(rec_b.post_state, 2, params.eta_meas):
            if rec_a.degenerate or rec_a.outcome != rec_b.outcome:
                continue
            joint = rec_b.probability * rec_a.probability
            accepted += joint * rec_a.post_state.matrix
            p_puri += joint
    if p_puri < 1e-12:
        raise PurificationError(
            "purification round degenerated: acceptance probability below 1e-12"
        )
    output = DensityMatrix.from_matrix(accepted / p_puri)
    return PurificationRound(
        input_fidelity=input_fidelity,
        output_state=output,
        p_puri=p_puri,
        output_fidelity=fidelity_bell(output, PSI_PLUS),
    )


def purify_n_rounds(
    initial: DensityMatrix,
    n: int,
    params: GateNoiseParams,
    balanced: bool = True,
) -> PurificationSchedule:
    """Nested recurrence: round k purifies two copies of the round-(k-1) output."""
    if n < 0:
        raise ValueError("round count must be nonnegative")
    rounds = []
    state = initial
    for _ in range(n):
        result = purify_round(state, state, params, balanced=balanced)
        rounds.append(result)
        state = result.output_state
    return PurificationSchedule(n_rounds=n, rounds=tuple(rounds), initial_state=initial)


def _round(w1: tuple, w2: tuple, f2: float, even: float, odd: float, balanced: bool = True):
    """The round on weight tuples: its 16 terms in (i1, i2) order, each product left to right."""
    if balanced:  # swap the phi- and psi- weights
        u0, u3, u2, u1 = w1
        v0, v3, v2, v1 = w2
    else:
        u0, u1, u2, u3 = w1
        v0, v1, v2, v3 = w2
    a0, a1, a2, a3 = f2 * u0, f2 * u1, f2 * u2, f2 * u3  # the products' common first factor
    floor = (1.0 - f2) / 8.0
    o0 = floor + a0 * v0 * even + a0 * v2 * odd + a1 * v1 * even + a1 * v3 * odd
    o1 = floor + a0 * v1 * even + a0 * v3 * odd + a1 * v0 * even + a1 * v2 * odd
    o2 = floor + a2 * v0 * odd + a2 * v2 * even + a3 * v1 * odd + a3 * v3 * even
    o3 = floor + a2 * v1 * odd + a2 * v3 * even + a3 * v0 * odd + a3 * v2 * even
    p_puri = ((o0 + o1) + o2) + o3
    if p_puri < 1e-12:
        raise PurificationError(
            "purification round degenerated: acceptance probability below 1e-12"
        )
    return _bell_weights((o0 / p_puri, o1 / p_puri, o2 / p_puri, o3 / p_puri)), p_puri


def _constants(params: GateNoiseParams) -> tuple:
    """``_round``'s f_op^2 and the acceptance of an even and of an odd parity."""
    eta = params.eta_meas
    return params.f_op**2, eta**2 + (1 - eta) ** 2, 2 * eta * (1 - eta)


def purify_round_weights(
    kept: BellDiagonalState,
    sacrificed: BellDiagonalState,
    params: GateNoiseParams,
    balanced: bool = True,
) -> tuple[BellDiagonalState, float]:
    """Bell-diagonal fast path, exactly equal to the full circuit.

    The bilateral CNOT maps Bell labels (a1,b1),(a2,b2) to
    (a1^a2, b1),(a2, b1^b2); the measured parity is the target pair's b bit,
    accepted with probability eta^2+(1-eta)^2 when even and 2 eta (1-eta)
    when odd. Gate noise contributes a fully mixed floor of (1-f^2)/8 per
    Bell weight and (1-f^2)/2 to the acceptance probability.
    """
    weights, p_puri = _round(kept.weights, sacrificed.weights, *_constants(params), balanced)
    return BellDiagonalState._checked(weights), p_puri


def purify_ladder_weights(
    initial: BellDiagonalState, n: int, params: GateNoiseParams
) -> tuple[tuple, tuple]:
    """Nested recurrence on Bell weights: (states after 0..n rounds, P_puri per round)."""
    if n < 0:
        raise ValueError("round count must be nonnegative")
    f2, even, odd = _constants(params)
    states, p_list, weights = [initial], [], initial.weights
    for _ in range(n):
        weights, p_puri = _round(weights, weights, f2, even, odd)
        states.append(BellDiagonalState._checked(weights))
        p_list.append(p_puri)
    return tuple(states), tuple(p_list)


def fixed_point_fidelity(
    params: GateNoiseParams,
    *,
    tolerance: float = 1e-9,
    max_rounds: int = 64,
    seed_fidelity: float = 0.95,
) -> float:
    """Iterate the round on Bell weights from a Werner seed until |dF| < tolerance."""
    constants = _constants(params)
    weights = BellDiagonalState.werner(seed_fidelity).weights
    fid = weights[2]  # BELL_LABELS.index(PSI_PLUS)
    for _ in range(max_rounds):
        weights, _ = _round(weights, weights, *constants)
        if abs(weights[2] - fid) < tolerance:
            return weights[2]
        fid = weights[2]
    raise RuntimeError(
        f"purification fixed point did not converge within {max_rounds} rounds"
    )
