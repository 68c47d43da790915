"""Bell weights for the engine, and the dense algebra that checks it.

Production runs on :class:`BellDiagonalState`, four float weights per pair in
``BELL_LABELS`` order, and every stage maps Bell-diagonal pairs to Bell-diagonal
pairs. The rest is the dense reference the tests compare the engine with:
exact 2^n x 2^n complex matrices with n <= 4, in big-endian qubit order
(basis index i spells |q0 q1 ... q_{n-1}>), whose physicality (trace one,
Hermitian, positive semidefinite) is checked on every construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 4

# tolerances: 1e-9 for physicality, 1e-12 for algebraic identities
TRACE_ATOL = 1e-9
HERMITICITY_ATOL = 1e-9
PSD_ATOL = 1e-9

PHI_PLUS = "phi+"
PHI_MINUS = "phi-"
PSI_PLUS = "psi+"
PSI_MINUS = "psi-"
BELL_LABELS = (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS)
# (phase bit a, parity bit b) of each label: |B(a,b)> = (|0 b> + (-1)^a |1 1^b>)/sqrt(2)
BELL_BITS = ((0, 0), (1, 0), (0, 1), (1, 1))

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PAULIS = (ID2, PAULI_X, PAULI_Y, PAULI_Z)

# two-qubit gates, first qubit = control
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ = np.diag([1, 1, 1, -1]).astype(complex)


class PhysicalityError(ValueError):
    """Raised when a matrix fails trace/Hermiticity/positivity checks."""


def check_finite(params) -> None:
    """Reject a NaN or infinite float field of a parameter dataclass."""
    for name, value in vars(params).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def check_positive(name: str, value: float) -> None:
    """Reject a NaN, infinite or nonpositive field value with the dataclasses' messages."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0:
        raise ValueError(f"{name} must be positive")


def _ket(bits: str) -> np.ndarray:
    """Computational-basis ket from a bit string, e.g. '01' -> |01>."""
    dim = 2 ** len(bits)
    v = np.zeros(dim, dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


_BELL_KETS = {
    PHI_PLUS: (_ket("00") + _ket("11")) / np.sqrt(2),
    PHI_MINUS: (_ket("00") - _ket("11")) / np.sqrt(2),
    PSI_PLUS: (_ket("01") + _ket("10")) / np.sqrt(2),
    PSI_MINUS: (_ket("01") - _ket("10")) / np.sqrt(2),
}


def bell_ket(label: str) -> np.ndarray:
    if label not in BELL_LABELS:
        raise ValueError(f"unknown Bell label {label!r}, expected one of {BELL_LABELS}")
    return _BELL_KETS[label].copy()


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-one Hermitian PSD operator on 1..4 qubits."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, check: bool = True) -> "DensityMatrix":
        rho = cls(np.array(matrix, dtype=complex))
        if check:
            rho.validate()
        return rho

    @property
    def n_qubits(self) -> int:
        return int(round(np.log2(self.matrix.shape[0])))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def validate(self) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise PhysicalityError(f"not a square matrix: shape {m.shape}")
        n = self.n_qubits
        if 2**n != m.shape[0] or not (1 <= n <= MAX_QUBITS):
            raise PhysicalityError(f"dimension {m.shape[0]} is not 2^n with n in 1..{MAX_QUBITS}")
        if not np.all(np.isfinite(m)):
            raise PhysicalityError("matrix contains NaN or Inf")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise PhysicalityError(f"trace {tr} deviates from 1 by more than {TRACE_ATOL}")
        herm_err = np.max(np.abs(m - m.conj().T))
        if herm_err > HERMITICITY_ATOL:
            raise PhysicalityError(f"Hermiticity error {herm_err} exceeds {HERMITICITY_ATOL}")
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < -PSD_ATOL:
            raise PhysicalityError(f"negative eigenvalue {min_eig} below -{PSD_ATOL}")


def _bell_weights(w: tuple) -> tuple:
    """Every state's weights: checked, clipped to [0, 1], renormalized; sums run left to right."""
    w0, w1, w2, w3 = w
    lo, hi = -1e-9, 1 + 1e-9
    if w0 < lo or w1 < lo or w2 < lo or w3 < lo or w0 > hi or w1 > hi or w2 > hi or w3 > hi:
        raise ValueError(f"Bell weights out of [0, 1]: {np.array(w, dtype=float)}")
    total = 0.0 + w0 + w1 + w2 + w3  # numpy's order: from 0.0, so four -0.0 sum to 0.0
    if not math.isfinite(total):  # in range, so a NaN weight
        raise ValueError("Bell weights must be finite")
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"Bell weights sum to {total}, expected 1")
    if not (0.0 <= w0 <= 1.0 and 0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0 and 0.0 <= w3 <= 1.0):
        # np.clip(w, 0, 1); like numpy's, max keeps -0.0
        w0, w1, w2, w3 = [min(max(x, 0.0), 1.0) for x in w]
    total = ((w0 + w1) + w2) + w3
    return (w0 / total, w1 / total, w2 / total, w3 / total)


@dataclass(frozen=True, eq=False)
class BellDiagonalState:
    """Weights on the four Bell projectors, ordered as BELL_LABELS, as a tuple of floats.

    Lists and arrays are converted; ``_bell_weights`` checks and normalizes them.
    """

    weights: tuple

    def __post_init__(self):
        w = self.weights
        if type(w) is not tuple:  # the engine passes tuples of floats
            w = np.asarray(w, dtype=float)
            w = tuple(w.tolist()) if w.ndim == 1 else ()
        if len(w) != 4:
            raise ValueError("BellDiagonalState needs exactly four weights")
        object.__setattr__(self, "weights", _bell_weights(w))

    @classmethod
    def _checked(cls, weights: tuple) -> "BellDiagonalState":
        """A state around weights that ``_bell_weights`` returned, not normalized again."""
        state = object.__new__(cls)
        object.__setattr__(state, "weights", weights)
        return state

    @classmethod
    def werner(cls, fidelity: float) -> "BellDiagonalState":
        """Weight F on psi+ and (1-F)/3 on each other Bell state."""
        if not 0.25 <= fidelity <= 1.0:
            raise ValueError(f"Werner fidelity {fidelity} outside [0.25, 1]")
        rest = (1.0 - fidelity) / 3.0
        return cls((rest, rest, fidelity, rest))  # BELL_LABELS order

    @property
    def fidelity(self) -> float:
        """Weight on the psi+ target."""
        return self.weights[2]  # BELL_LABELS.index(PSI_PLUS)

    def weight(self, label: str) -> float:
        return self.weights[BELL_LABELS.index(label)]

    def to_density_matrix(self) -> DensityMatrix:
        m = sum(
            w * np.outer(_BELL_KETS[lbl], _BELL_KETS[lbl].conj())
            for w, lbl in zip(self.weights, BELL_LABELS)
        )
        return DensityMatrix.from_matrix(m)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Quantum channel as a list of Kraus operators of equal square shape."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        for k in ops:
            if k.shape != (dim, dim):
                raise ValueError("Kraus operators must share one square shape")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    @property
    def n_qubits(self) -> int:
        return int(round(np.log2(self.operators[0].shape[0])))

    def validate(self, atol: float = 1e-9) -> None:
        """Check trace preservation and positivity of the Choi matrix."""
        dim = self.operators[0].shape[0]
        total = sum(k.conj().T @ k for k in self.operators)
        err = np.max(np.abs(total - np.eye(dim)))
        if err > atol:
            raise PhysicalityError(f"channel is not trace preserving (error {err})")
        choi = sum(
            np.outer(k.reshape(-1), k.conj().reshape(-1)) for k in self.operators
        )
        min_eig = float(np.linalg.eigvalsh(choi)[0])
        if min_eig < -atol:
            raise PhysicalityError(f"Choi matrix has negative eigenvalue {min_eig}")


def expand_operator(op: np.ndarray, n_qubits: int, on) -> np.ndarray:
    """Embed an operator acting on the listed qubits into the full register.

    ``on`` lists target qubit indices in the order of the operator's own
    qubits (first listed qubit = most significant bit of the sub-index).
    """
    on = tuple(on)
    k = len(on)
    if len(set(on)) != k:
        raise ValueError(f"duplicate qubit indices in {on}")
    if any(q < 0 or q >= n_qubits for q in on):
        raise ValueError(f"qubit indices {on} out of range for {n_qubits} qubits")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not act on {k} qubits")
    dim = 2**n_qubits
    shifts = [n_qubits - 1 - q for q in on]  # bit position of each target qubit
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub_col = 0
        for pos, s in enumerate(shifts):
            sub_col |= ((col >> s) & 1) << (k - 1 - pos)
        base = col
        for s in shifts:
            base &= ~(1 << s)
        for sub_row in range(2**k):
            row = base
            for pos, s in enumerate(shifts):
                row |= ((sub_row >> (k - 1 - pos)) & 1) << s
            full[row, col] += op[sub_row, sub_col]
    return full


def bell_state(label: str) -> DensityMatrix:
    """Rank-one projector onto the named Bell vector."""
    v = bell_ket(label)
    return DensityMatrix.from_matrix(np.outer(v, v.conj()))


def computational_state(bits: str) -> DensityMatrix:
    """Projector onto a computational basis state, e.g. '0' or '01'."""
    v = _ket(bits)
    return DensityMatrix.from_matrix(np.outer(v, v.conj()))


def maximally_mixed(n_qubits: int) -> DensityMatrix:
    dim = 2**n_qubits
    return DensityMatrix.from_matrix(np.eye(dim) / dim)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; a's qubits come first."""
    if a.n_qubits + b.n_qubits > MAX_QUBITS:
        raise ValueError(
            f"tensor product would have {a.n_qubits + b.n_qubits} qubits (max {MAX_QUBITS})"
        )
    return DensityMatrix.from_matrix(np.kron(a.matrix, b.matrix))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all qubits not in ``keep``; kept qubits retain their order."""
    keep = sorted(set(keep))
    n = rho.n_qubits
    if not keep:
        raise ValueError("keep set must not be empty")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} qubits")
    traced = [q for q in range(n) if q not in keep]
    t = rho.matrix.reshape((2,) * (2 * n))
    # row axis of qubit q is q, column axis is n + q; tracing the highest
    # index first keeps the remaining indices valid
    for q in sorted(traced, reverse=True):
        t = np.trace(t, axis1=q, axis2=t.ndim // 2 + q)
    dim = 2 ** len(keep)
    return DensityMatrix.from_matrix(t.reshape(dim, dim))


def apply_channel(rho: DensityMatrix, channel: KrausChannel, on) -> DensityMatrix:
    """Apply sum_i K_i rho K_i^dagger with the channel embedded on ``on``."""
    on = tuple(on)
    if channel.n_qubits != len(on):
        raise ValueError(
            f"channel acts on {channel.n_qubits} qubits but {len(on)} positions given"
        )
    channel.validate()
    out = np.zeros_like(rho.matrix)
    for k in channel.operators:
        full = expand_operator(k, rho.n_qubits, on)
        out += full @ rho.matrix @ full.conj().T
    # channels preserve Hermiticity exactly; discard matmul roundoff skew
    out = (out + out.conj().T) / 2.0
    return DensityMatrix.from_matrix(out)


def fidelity_bell(rho: DensityMatrix, label: str) -> float:
    """Overlap <bell| rho |bell> for a two-qubit state."""
    if rho.n_qubits != 2:
        raise ValueError("Bell fidelity is defined for two-qubit states")
    v = bell_ket(label)
    return float(np.real(v.conj() @ rho.matrix @ v))


def purity(rho: DensityMatrix) -> float:
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def werner(fidelity: float) -> DensityMatrix:
    """Mixture of psi+ (weight F) with the other Bell states, (1-F)/3 each."""
    return BellDiagonalState.werner(fidelity).to_density_matrix()


def to_bell_diagonal(rho: DensityMatrix) -> tuple[BellDiagonalState, float]:
    """Bell-basis diagonal of a two-qubit state.

    Returns the four diagonal weights (renormalized) together with the
    largest off-diagonal Bell-basis magnitude as a leakage figure.
    """
    if rho.n_qubits != 2:
        raise ValueError("Bell decomposition is defined for two-qubit states")
    basis = np.column_stack([_BELL_KETS[lbl] for lbl in BELL_LABELS])
    in_bell = basis.conj().T @ rho.matrix @ basis
    weights = np.real(np.diag(in_bell)).copy()
    off = in_bell - np.diag(np.diag(in_bell))
    leakage = float(np.max(np.abs(off)))
    return BellDiagonalState(weights), leakage


def identity_channel(n_qubits: int) -> KrausChannel:
    return KrausChannel((np.eye(2**n_qubits, dtype=complex),))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    return KrausChannel((np.asarray(u, dtype=complex),))


def pauli_strings(n_qubits: int):
    """All 4^n tensor products of single-qubit Paulis."""
    out = []
    for combo in itertools.product(PAULIS, repeat=n_qubits):
        m = combo[0]
        for p in combo[1:]:
            m = np.kron(m, p)
        out.append(m)
    return out


def depolarizing_channel(n_qubits: int, p: float) -> KrausChannel:
    """With probability p replace the state by the maximally mixed one."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p} outside [0, 1]")
    dim4 = 4**n_qubits
    ops = [np.sqrt(1.0 - p + p / dim4) * np.eye(2**n_qubits, dtype=complex)]
    ops += [np.sqrt(p / dim4) * s for s in pauli_strings(n_qubits)[1:]]
    return KrausChannel(tuple(ops))
