import numpy as np
import pytest

from qrepsim import BELL_LABELS, BellDiagonalState
from qrepsim.states import (
    CNOT,
    HADAMARD,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    DensityMatrix,
    KrausChannel,
    PhysicalityError,
    apply_channel,
    bell_state,
    computational_state,
    depolarizing_channel,
    expand_operator,
    fidelity_bell,
    identity_channel,
    maximally_mixed,
    partial_trace,
    purity,
    tensor,
    to_bell_diagonal,
    unitary_channel,
    werner,
)

ALGEBRA_ATOL = 1e-12


def physical(rho):
    rho.validate()
    return rho


def test_bell_state_psi_plus_entries():
    m = bell_state(PSI_PLUS).matrix
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = 0.5
    assert np.allclose(m, expected, atol=ALGEBRA_ATOL)


def test_bell_states_orthonormal():
    for a in BELL_LABELS:
        for b in BELL_LABELS:
            overlap = np.real(np.trace(bell_state(a).matrix @ bell_state(b).matrix))
            assert overlap == pytest.approx(1.0 if a == b else 0.0, abs=ALGEBRA_ATOL)


def test_bell_state_self_fidelity():
    assert fidelity_bell(bell_state(PSI_PLUS), PSI_PLUS) == pytest.approx(1.0)


def test_tensor_of_ground_states():
    assert np.allclose(
        tensor(computational_state("0"), computational_state("0")).matrix,
        computational_state("00").matrix,
    )


def test_tensor_pure_pairs():
    rho = tensor(bell_state(PSI_PLUS), bell_state(PSI_PLUS))
    assert rho.dim == 16
    assert np.trace(rho.matrix) == pytest.approx(1.0)
    assert purity(rho) == pytest.approx(1.0)


def test_tensor_purity_multiplies():
    w = werner(0.91)
    assert purity(tensor(w, w)) == pytest.approx(purity(w) ** 2, abs=ALGEBRA_ATOL)


def test_tensor_overflow_rejected():
    four = tensor(bell_state(PSI_PLUS), bell_state(PSI_PLUS))
    with pytest.raises(ValueError):
        tensor(four, computational_state("0"))


def test_partial_trace_of_bell_is_mixed():
    reduced = partial_trace(bell_state(PSI_PLUS), keep=[0])
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=ALGEBRA_ATOL)


@pytest.mark.parametrize("fidelity", [0.6, 0.91])
def test_partial_trace_recovers_tensor_factor(fidelity):
    a = werner(fidelity)
    b = computational_state("01")
    joint = tensor(a, b)
    assert np.max(np.abs(partial_trace(joint, [0, 1]).matrix - a.matrix)) <= ALGEBRA_ATOL
    assert np.max(np.abs(partial_trace(joint, [2, 3]).matrix - b.matrix)) <= ALGEBRA_ATOL


def test_partial_trace_empty_keep_rejected():
    with pytest.raises(ValueError):
        partial_trace(bell_state(PSI_PLUS), keep=[])


def test_apply_identity_channel():
    w = werner(0.8)
    out = apply_channel(w, identity_channel(2), (0, 1))
    assert np.allclose(out.matrix, w.matrix, atol=ALGEBRA_ATOL)


def test_fully_depolarizing_single_qubit():
    out = apply_channel(computational_state("0"), depolarizing_channel(1, 1.0), (0,))
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=ALGEBRA_ATOL)


def test_two_qubit_depolarizing_fidelity():
    # werner-style gate mixing: F_out = f + (1 - f)/4 on a pure Bell input
    f_op = 0.995
    out = apply_channel(bell_state(PSI_PLUS), depolarizing_channel(2, 1 - f_op), (0, 1))
    assert fidelity_bell(out, PSI_PLUS) == pytest.approx(f_op + (1 - f_op) / 4, abs=1e-12)


def test_apply_channel_linearity():
    ch = depolarizing_channel(1, 0.3)
    a, b = werner(0.9), werner(0.5)
    for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
        mixed = DensityMatrix.from_matrix(alpha * a.matrix + (1 - alpha) * b.matrix)
        lhs = apply_channel(mixed, ch, (0,)).matrix
        rhs = alpha * apply_channel(a, ch, (0,)).matrix
        rhs = rhs + (1 - alpha) * apply_channel(b, ch, (0,)).matrix
        assert np.max(np.abs(lhs - rhs)) <= ALGEBRA_ATOL


def test_apply_channel_arity_mismatch():
    with pytest.raises(ValueError):
        apply_channel(werner(0.9), depolarizing_channel(1, 0.5), (0, 1))


def test_non_trace_preserving_channel_rejected():
    bad = KrausChannel((0.5 * np.eye(2, dtype=complex),))
    with pytest.raises(PhysicalityError):
        apply_channel(computational_state("0"), bad, (0,))


def test_fidelity_of_maximally_mixed():
    for label in BELL_LABELS:
        assert fidelity_bell(maximally_mixed(2), label) == pytest.approx(0.25)


@pytest.mark.parametrize("fidelity", [0.25, 0.4, 0.6, 0.8, 0.91, 1.0])
def test_werner_fidelity_round_trip(fidelity):
    assert fidelity_bell(werner(fidelity), PSI_PLUS) == pytest.approx(fidelity, abs=1e-12)


def test_werner_limits():
    assert np.allclose(werner(1.0).matrix, bell_state(PSI_PLUS).matrix, atol=ALGEBRA_ATOL)
    assert np.allclose(werner(0.25).matrix, np.eye(4) / 4, atol=ALGEBRA_ATOL)


def test_werner_eigenvalues():
    eig = np.sort(np.linalg.eigvalsh(werner(0.8).matrix))
    assert np.allclose(eig, [0.2 / 3, 0.2 / 3, 0.2 / 3, 0.8], atol=1e-12)


@pytest.mark.parametrize("fidelity", [0.2, 1.0001])
def test_werner_out_of_range(fidelity):
    with pytest.raises(ValueError):
        werner(fidelity)


def test_bell_diagonal_of_werner():
    bd, leakage = to_bell_diagonal(werner(0.91))
    assert bd.weight(PSI_PLUS) == pytest.approx(0.91, abs=1e-12)
    for label in (PHI_PLUS, PHI_MINUS, PSI_MINUS):
        assert bd.weight(label) == pytest.approx(0.03, abs=1e-12)
    assert leakage <= ALGEBRA_ATOL


def test_bell_diagonal_of_bell_state():
    bd, leakage = to_bell_diagonal(bell_state(PHI_MINUS))
    assert bd.weight(PHI_MINUS) == pytest.approx(1.0)
    assert leakage <= ALGEBRA_ATOL


def test_bell_diagonal_round_trip():
    bd = BellDiagonalState(np.array([0.1, 0.2, 0.6, 0.1]))
    back, _ = to_bell_diagonal(bd.to_density_matrix())
    assert np.allclose(back.weights, bd.weights, atol=ALGEBRA_ATOL)


def test_bell_diagonal_weight_validation():
    with pytest.raises(ValueError):
        BellDiagonalState(np.array([0.5, 0.5, 0.5, 0.5]))


@pytest.mark.parametrize(
    "weights", [[np.nan, 0.0, 1.0, 0.0], (0.0, 0.0, 1.0, np.nan), [np.nan] * 4]
)
def test_bell_diagonal_rejects_nan(weights):
    # every comparison with NaN is false, so neither the range nor the sum check sees it
    with pytest.raises(ValueError, match=r"^Bell weights must be finite$"):
        BellDiagonalState(weights)


def test_expand_operator_matches_kron():
    # CNOT on adjacent qubits equals the plain kron embedding
    assert np.allclose(expand_operator(CNOT, 3, (0, 1)), np.kron(CNOT, np.eye(2)))
    assert np.allclose(expand_operator(HADAMARD, 2, (1,)), np.kron(np.eye(2), HADAMARD))


def test_density_matrix_physicality_rejects():
    with pytest.raises(PhysicalityError):
        DensityMatrix.from_matrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(PhysicalityError):
        DensityMatrix.from_matrix(np.array([[0.5, 0.6], [0.6, 0.5]]))  # negative eig
    skew = np.array([[0.5, 0.5j], [0.5j, 0.5]])
    with pytest.raises(PhysicalityError):
        DensityMatrix.from_matrix(skew)  # not Hermitian


def test_channel_constructors_are_cptp():
    channels = [
        identity_channel(1),
        identity_channel(2),
        unitary_channel(CNOT),
        depolarizing_channel(1, 0.3),
        depolarizing_channel(2, 0.005),
    ]
    for ch in channels:
        ch.validate()


def test_operations_emit_physical_states():
    outputs = [
        bell_state(PSI_MINUS),
        werner(0.7),
        tensor(werner(0.8), computational_state("0")),
        partial_trace(tensor(werner(0.8), werner(0.9)), [0, 3]),
        apply_channel(werner(0.9), depolarizing_channel(2, 0.1), (0, 1)),
    ]
    for rho in outputs:
        physical(rho)
