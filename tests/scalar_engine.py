"""The numpy Bell-weight engine, kept as the exact reference for the float engine.

These are the package's ``BellDiagonalState`` validation, purification
round, ladder and swap as they ran on 4-element numpy arrays, unchanged, and
``chain_fidelity_table`` composed from them. ``qrepsim`` runs the same
arithmetic on four Python floats in the same order; tests require the two to
agree with ``==``, error messages included.
"""

from dataclasses import dataclass

import numpy as np

from qrepsim.chain import ChainFidelityTable
from qrepsim.noise import GateNoiseParams
from qrepsim.purify import PurificationError
from qrepsim.states import BELL_BITS, BELL_LABELS, PSI_PLUS


@dataclass(frozen=True, eq=False)
class BellDiagonalState:
    """Weights on the four Bell projectors, ordered as BELL_LABELS."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (4,):
            raise ValueError("BellDiagonalState needs exactly four weights")
        if np.any(w < -1e-9) or np.any(w > 1 + 1e-9):
            raise ValueError(f"Bell weights out of [0, 1]: {w}")
        total = w.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"Bell weights sum to {total}, expected 1")
        w = np.clip(w, 0.0, 1.0)
        w = w / w.sum()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def werner(cls, fidelity: float) -> "BellDiagonalState":
        """Weight F on psi+ and (1-F)/3 on each other Bell state."""
        if not 0.25 <= fidelity <= 1.0:
            raise ValueError(f"Werner fidelity {fidelity} outside [0.25, 1]")
        rest = (1.0 - fidelity) / 3.0
        return cls(np.array([rest, rest, fidelity, rest]))  # BELL_LABELS order

    @property
    def fidelity(self) -> float:
        """Weight on the psi+ target."""
        return float(self.weights[BELL_LABELS.index(PSI_PLUS)])


def _balance_weights(w: np.ndarray) -> np.ndarray:
    out = w.copy()
    i_phi_minus, i_psi_minus = 1, 3
    out[i_phi_minus], out[i_psi_minus] = w[i_psi_minus], w[i_phi_minus]
    return out


def purify_round_weights(
    kept: BellDiagonalState,
    sacrificed: BellDiagonalState,
    params: GateNoiseParams,
    balanced: bool = True,
) -> tuple[BellDiagonalState, float]:
    w1 = np.asarray(kept.weights, dtype=float)
    w2 = np.asarray(sacrificed.weights, dtype=float)
    if balanced:
        w1 = _balance_weights(w1)
        w2 = _balance_weights(w2)
    f2 = params.f_op**2
    eta = params.eta_meas
    accept = {0: eta**2 + (1 - eta) ** 2, 1: 2 * eta * (1 - eta)}
    index = {ab: i for i, ab in enumerate(BELL_BITS)}
    out = np.full(4, (1.0 - f2) / 8.0)
    for i1, (a1, b1) in enumerate(BELL_BITS):
        for i2, (a2, b2) in enumerate(BELL_BITS):
            out[index[(a1 ^ a2, b1)]] += f2 * w1[i1] * w2[i2] * accept[b1 ^ b2]
    p_puri = float(out.sum())
    if p_puri < 1e-12:
        raise PurificationError(
            "purification round degenerated: acceptance probability below 1e-12"
        )
    return BellDiagonalState(out / p_puri), p_puri


def purify_ladder_weights(
    initial: BellDiagonalState, n: int, params: GateNoiseParams
) -> tuple[tuple, tuple]:
    if n < 0:
        raise ValueError("round count must be nonnegative")
    states, p_list = [initial], []
    for _ in range(n):
        state, p_puri = purify_round_weights(states[-1], states[-1], params)
        states.append(state)
        p_list.append(p_puri)
    return tuple(states), tuple(p_list)


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
    right_readout = {True: params.eta_meas, False: 1.0 - params.eta_meas}
    # distribution of the bits added to (a1^a2, b1^b2): (0, 1) when both readouts are right
    offset = np.array([right_readout[a == 0] * right_readout[b == 1] for a, b in BELL_BITS])
    mixed = _xor_combine(_xor_combine(left.weights, right.weights), offset)
    return BellDiagonalState(params.f_op * mixed + (1.0 - params.f_op) / 4.0)


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
