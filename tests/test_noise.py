import numpy as np
import pytest

import oracle
from qrepsim import (
    GateNoiseParams,
    IDEAL_OPS,
    PSI_PLUS,
    bell_state,
    computational_state,
    fidelity_bell,
    noisy_measure_z,
    noisy_two_qubit_gate,
    partial_trace,
    swap_gate,
    tensor,
    transport_channel,
    werner,
)
from qrepsim.link import qc_zone_state, LinkParams
from qrepsim.noise import gate_noise_channel
from qrepsim.states import CNOT, expand_operator


def test_ideal_cnot_equals_unitary():
    rho = tensor(bell_state(PSI_PLUS), computational_state("0"))
    out = noisy_two_qubit_gate(rho, "cnot", (0, 2), IDEAL_OPS)
    u = expand_operator(CNOT, 3, (0, 2))
    assert np.max(np.abs(out.matrix - u @ rho.matrix @ u.conj().T)) <= 1e-12


def test_noisy_cz_on_plus_plus():
    from qrepsim import DensityMatrix

    plus = np.ones((2, 2)) / 2
    rho = DensityMatrix.from_matrix(np.kron(plus, plus))
    params = GateNoiseParams(f_op=0.995)
    noisy = noisy_two_qubit_gate(rho, "cz", (0, 1), params)
    ideal = noisy_two_qubit_gate(rho, "cz", (0, 1), IDEAL_OPS)
    # two-qubit case: mixed term is I/4, so F = f + (1-f) * tr(ideal)/4
    overlap = float(np.real(np.trace(ideal.matrix @ noisy.matrix)))
    assert overlap == pytest.approx(0.995 + 0.005 * 0.25, abs=1e-12)


def test_noisy_gate_matches_bruteforce():
    params = GateNoiseParams(f_op=0.97)
    rho = tensor(werner(0.9), computational_state("0"))
    out = noisy_two_qubit_gate(rho, "cnot", (1, 2), params)
    ref = oracle.noisy_gate(rho.matrix, oracle.CNOT2, [1, 2], 0.97)
    assert np.max(np.abs(out.matrix - ref)) <= 1e-12


def test_gate_noise_channel_is_cptp():
    gate_noise_channel("cnot", 0.995).validate()
    gate_noise_channel("cz", 0.6).validate()


def test_swap_transfers_ebit_above_098():
    # three noisy CNOTs at f_op = 0.995 moving one half of psi+ to a fresh qubit
    rho = tensor(bell_state(PSI_PLUS), computational_state("0"))
    out = swap_gate(rho, 1, 2, GateNoiseParams(f_op=0.995))
    pair = partial_trace(out, keep=[0, 2])
    fid = fidelity_bell(pair, PSI_PLUS)
    assert fid >= 0.98
    # exact channel-composition value: f^3 on the ideal path, mixed floor 1/4
    f3 = 0.995**3
    assert fid == pytest.approx(f3 + (1 - f3) / 4, abs=1e-12)


def test_swap_matches_bruteforce_composition():
    rho = tensor(werner(0.93), computational_state("0"))
    out = swap_gate(rho, 1, 2, GateNoiseParams(f_op=0.995))
    ref = oracle.swap_gate(rho.matrix, 1, 2, 0.995)
    assert np.max(np.abs(out.matrix - ref)) <= 1e-12


def test_ideal_swap_exchanges_marginals():
    a = werner(0.9)
    b = computational_state("10")
    joint = tensor(a, b)
    swapped = swap_gate(swap_gate(joint, 0, 2, IDEAL_OPS), 1, 3, IDEAL_OPS)
    assert np.max(np.abs(partial_trace(swapped, [2, 3]).matrix - a.matrix)) <= 1e-12
    assert np.max(np.abs(partial_trace(swapped, [0, 1]).matrix - b.matrix)) <= 1e-12


def test_ideal_swap_twice_is_identity():
    rho = tensor(werner(0.8), computational_state("1"))
    out = swap_gate(swap_gate(rho, 0, 2, IDEAL_OPS), 0, 2, IDEAL_OPS)
    assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12


def test_same_qubit_rejected():
    rho = werner(0.9)
    with pytest.raises(ValueError):
        noisy_two_qubit_gate(rho, "cnot", (1, 1), IDEAL_OPS)
    with pytest.raises(ValueError):
        swap_gate(rho, 0, 0, IDEAL_OPS)


def test_measurement_certain_outcome():
    rec0, rec1 = noisy_measure_z(computational_state("0"), 0, eta_meas=1.0)
    assert rec0.probability == pytest.approx(1.0)
    assert rec1.probability == 0.0 and rec1.degenerate


def test_measurement_flip_error():
    rec0, rec1 = noisy_measure_z(computational_state("0"), 0, eta_meas=0.99)
    assert rec1.outcome == 1
    assert rec1.probability == pytest.approx(0.01, abs=1e-15)
    assert rec0.probability + rec1.probability == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("eta", [1.0, 0.99, 0.9])
def test_measurement_branches_sum_to_one(eta):
    rho = tensor(werner(0.91), werner(0.8))
    for qubit in range(4):
        rec0, rec1 = noisy_measure_z(rho, qubit, eta)
        assert rec0.probability + rec1.probability == pytest.approx(1.0, abs=1e-12)


def test_measurement_against_bruteforce_inside_circuit():
    # parity measurement branches of the purification circuit at eta = 0.99
    params = GateNoiseParams(f_op=0.995, eta_meas=0.99)
    rho = tensor(werner(0.91), werner(0.91))
    rho = noisy_two_qubit_gate(rho, "cnot", (0, 2), params)
    rho = noisy_two_qubit_gate(rho, "cnot", (1, 3), params)
    ref = oracle.noisy_gate(np.kron(werner(0.91).matrix, werner(0.91).matrix), oracle.CNOT2, [0, 2], 0.995)
    ref = oracle.noisy_gate(ref, oracle.CNOT2, [1, 3], 0.995)
    recs = noisy_measure_z(rho, 3, 0.99)
    for rec, (_, p_ref, post_ref) in zip(recs, oracle.measure(ref, 3, 0.99)):
        assert rec.probability == pytest.approx(p_ref, abs=1e-9)
        assert np.max(np.abs(rec.post_state.matrix - post_ref)) <= 1e-9


def test_transport_identity():
    rho = bell_state(PSI_PLUS)
    out = transport_channel(rho, 1, 1.0)
    assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12


def test_transport_sets_ebit_fidelity():
    out = transport_channel(bell_state(PSI_PLUS), 1, 0.96)
    assert fidelity_bell(out, PSI_PLUS) == pytest.approx(0.96, abs=1e-12)


def test_transport_range_check():
    with pytest.raises(ValueError):
        transport_channel(bell_state(PSI_PLUS), 1, 0.2)


def test_noise_monotonicity():
    # larger f_op never lowers the fidelity to the ideal output
    rho = tensor(werner(0.9), computational_state("0"))
    ideal = noisy_two_qubit_gate(rho, "cnot", (0, 2), IDEAL_OPS)
    previous = -1.0
    for f_op in (0.6, 0.8, 0.9, 0.95, 0.99, 1.0):
        out = noisy_two_qubit_gate(rho, "cnot", (0, 2), GateNoiseParams(f_op=f_op))
        overlap = float(np.real(np.trace(ideal.matrix @ out.matrix)))
        assert overlap >= previous - 1e-12
        previous = overlap


def test_qc_zone_composition_lands_in_window():
    # herald(0.96) -> noisy swap -> move(0.96)
    fid = qc_zone_state(LinkParams(), GateNoiseParams()).fidelity
    assert 0.90 <= fid <= 0.92
    # exact value from the Werner-parameter algebra: w_h * f_op^3 * w_m
    w = (4 * 0.96 - 1) / 3
    expected = (3 * (w * 0.995**3 * w) + 1) / 4
    assert fid == pytest.approx(expected, abs=1e-9)


def test_gate_noise_params_validation():
    with pytest.raises(ValueError):
        GateNoiseParams(f_op=0.2)
    with pytest.raises(ValueError):
        GateNoiseParams(eta_meas=0.4)
