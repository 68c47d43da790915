import numpy as np
import pytest

import dense
import oracle
from qrepsim import (
    BellDiagonalState,
    CavityParams,
    GateNoiseParams,
    IDEAL_OPS,
    LinkParams,
    bell_measurement,
    optimize_plan,
    rate_vs_distance,
    t_repe,
)
from qrepsim.chain import chain_fidelity_table, check_stations
from qrepsim.purify import purify_n_rounds
from qrepsim.states import PSI_PLUS, bell_state, tensor, werner

NOISY = GateNoiseParams()
PIPELINED = LinkParams(herald_mode="pipelined")
W = BellDiagonalState.werner
PERFECT = BellDiagonalState(np.array([0.0, 0.0, 1.0, 0.0]))


def test_ideal_swap_of_perfect_pairs():
    assert bell_measurement(PERFECT, PERFECT, IDEAL_OPS).fidelity == pytest.approx(
        1.0, abs=1e-12
    )
    # the dense reference averages outcome branches whose probabilities sum to one
    pairs = tensor(bell_state(PSI_PLUS), bell_state(PSI_PLUS))
    _, branches = dense.bell_measurement(pairs, IDEAL_OPS)
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)


def test_feedforward_branch_equivalence():
    # every corrected outcome branch is the same end-to-end state
    from qrepsim.states import HADAMARD, PAULI_X, PAULI_Z, DensityMatrix, expand_operator
    from qrepsim.noise import noisy_measure_z, noisy_two_qubit_gate

    pairs = tensor(werner(0.95), werner(0.95))
    rho = noisy_two_qubit_gate(pairs, "cnot", (1, 2), IDEAL_OPS)
    h = expand_operator(HADAMARD, 4, (1,))
    rho = DensityMatrix.from_matrix(h @ rho.matrix @ h.conj().T)
    states = []
    for rec_y in noisy_measure_z(rho, 2, 1.0):
        if rec_y.degenerate:
            continue
        for rec_x in noisy_measure_z(rec_y.post_state, 1, 1.0):
            if rec_x.degenerate:
                continue
            corr = np.linalg.matrix_power(PAULI_X, rec_y.outcome ^ 1) @ np.linalg.matrix_power(
                PAULI_Z, rec_x.outcome
            )
            c = expand_operator(corr, 2, (1,))
            states.append(c @ rec_x.post_state.matrix @ c.conj().T)
    assert len(states) == 4
    for s in states[1:]:
        assert np.max(np.abs(s - states[0])) <= 1e-9


@pytest.mark.parametrize("fidelity", [0.8, 0.9, 0.95, 0.99])
def test_ideal_swap_matches_werner_recurrence(fidelity):
    out = bell_measurement(W(fidelity), W(fidelity), IDEAL_OPS)
    assert out.fidelity == pytest.approx(oracle.werner_swap_step(fidelity), abs=1e-9)


def test_ideal_swap_point_value():
    out = bell_measurement(W(0.95), W(0.95), IDEAL_OPS)
    assert out.fidelity == pytest.approx(0.9033333333, abs=1e-9)


def test_noisy_swap_against_bruteforce():
    out = bell_measurement(W(0.97), W(0.93), NOISY)
    ref = oracle.bell_measurement(np.kron(werner(0.97).matrix, werner(0.93).matrix), 0.995, 0.99)
    assert np.max(np.abs(out.to_density_matrix().matrix - ref)) <= 1e-9
    # noise strictly degrades relative to the ideal recurrence
    assert out.fidelity < bell_measurement(W(0.97), W(0.93), IDEAL_OPS).fidelity


def test_bell_measurement_arity():
    # the dense reference swap consumes one 4-qubit state
    with pytest.raises(ValueError):
        dense.bell_measurement(werner(0.9), NOISY)


def _end_fidelity(m_stations, initial, params):
    """End-to-end fidelity after the swap levels of an M-station chain, no purification."""
    levels = check_stations(m_stations)
    return chain_fidelity_table(initial, levels, params, n_max=0).end_fidelities[0][0]


def test_swap_chain_degenerate():
    # a two-station chain performs no swap: the end pair is the link pair
    assert _end_fidelity(2, W(0.93), NOISY) == W(0.93).fidelity


def test_swap_chain_two_levels_ideal():
    expected = oracle.werner_swap_step(oracle.werner_swap_step(0.95))
    assert _end_fidelity(5, W(0.95), IDEAL_OPS) == pytest.approx(expected, abs=1e-9)


def test_swap_chain_perfect_inputs_any_m():
    for m_stations in (2, 3, 5, 9, 17):
        assert _end_fidelity(m_stations, PERFECT, IDEAL_OPS) == pytest.approx(1.0, abs=1e-9)


def test_swap_chain_noisy_regression():
    fid = _end_fidelity(5, W(0.99), NOISY)
    ref = oracle.bell_measurement(
        np.kron(werner(0.99).matrix, werner(0.99).matrix), 0.995, 0.99
    )
    ref = oracle.bell_measurement(np.kron(ref, ref), 0.995, 0.99)
    assert fid == pytest.approx(oracle.psi_plus_fidelity(ref), abs=1e-9)
    # frozen regression baseline
    assert fid == pytest.approx(0.8960895, abs=1e-6)


def test_chain_fidelity_table_matches_dense_composition():
    # pre-swap ladder -> one swap level -> post-swap ladder, all dense
    table = chain_fidelity_table(W(0.93), 1, NOISY, n_max=2)
    ladder1 = purify_n_rounds(werner(0.93), 2, NOISY)
    assert np.allclose(table.pre_swap_fidelities, ladder1.fidelities, rtol=0, atol=1e-12)
    assert np.allclose(table.pre_swap_p, ladder1.success_probabilities, rtol=0, atol=1e-12)
    states1 = (ladder1.initial_state,) + tuple(r.output_state for r in ladder1.rounds)
    for n1, rho in enumerate(states1):
        end, _ = dense.bell_measurement(tensor(rho, rho), NOISY)
        ladder2 = purify_n_rounds(end, 2, NOISY)
        assert np.allclose(table.end_fidelities[n1], ladder2.fidelities, rtol=0, atol=1e-12)
        assert np.allclose(table.end_p[n1], ladder2.success_probabilities, rtol=0, atol=1e-12)


def test_chain_params_validation():
    with pytest.raises(ValueError):
        check_stations(4)  # M - 1 = 3 is not a power of two
    with pytest.raises(ValueError):
        check_stations(1)
    with pytest.raises(ValueError):
        optimize_plan(2, 0.0, CavityParams(), LinkParams(), NOISY)
    assert check_stations(17) == 4
    assert check_stations(np.int64(17)) == 4


@pytest.mark.parametrize("m_stations", [3.0, 2.5, np.float64(5.0), "5"])
def test_a_station_count_that_is_not_an_integer_is_a_named_error(m_stations):
    message = f"^m_stations must be an integer, got {m_stations}$"
    with pytest.raises(ValueError, match=message):
        rate_vs_distance([1.0], [m_stations], (False,), CavityParams(), LinkParams(), NOISY)
    with pytest.raises(ValueError, match=message):
        optimize_plan(m_stations, 1.0, CavityParams(), LinkParams(), NOISY)


def test_t_repe_examples():
    assert t_repe(200.0, 0.2) == pytest.approx(200.33, abs=0.01)
    assert t_repe(200.0, 1e-9) == pytest.approx(200.0, abs=1e-6)
    assert t_repe(200.0, 500.0) == pytest.approx(1033.0, abs=1.0)


def test_optimize_plan_two_nodes():
    plan = optimize_plan(2, 0.1, CavityParams(), LinkParams(), NOISY, fidelity_target=0.99)
    assert plan.feasible
    assert plan.n1 == 4 and plan.n2 == 0
    assert plan.f_m >= 0.99
    assert plan.rate_hz == pytest.approx(1100.0, rel=0.3)


def test_optimize_plan_infeasible_target():
    plan = optimize_plan(2, 0.1, CavityParams(), LinkParams(), NOISY, fidelity_target=0.9999)
    assert not plan.feasible
    assert plan.rate_hz == 0.0
    assert 0.99 < plan.f_m < 0.9999  # best achievable is the plateau


def test_optimize_plan_deterministic():
    chain = (5, 25.0, CavityParams(), PIPELINED, NOISY)
    a = optimize_plan(*chain, fidelity_target=0.99)
    b = optimize_plan(*chain, fidelity_target=0.99)
    assert a == b


def test_optimize_plan_larger_search_never_worse():
    chain = (5, 25.0, CavityParams(), PIPELINED, NOISY)
    small = optimize_plan(*chain, n_max=5, fidelity_target=0.99)
    large = optimize_plan(*chain, n_max=8, fidelity_target=0.99)
    assert large.t_qr_us <= small.t_qr_us + 1e-9


def test_rate_monotone_in_distance():
    plans = rate_vs_distance(
        [5.0, 25.0, 100.0, 250.0], [5], (False,), CavityParams(), PIPELINED, NOISY
    )
    rates = [p.rate_hz for p in plans]
    assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


def test_rate_vs_distance_ordering_and_flags():
    plans = rate_vs_distance(
        [10.0, 1.0], [5, 2], (True, False), CavityParams(), PIPELINED, NOISY
    )
    keys = [(p.total_length_km, p.m_stations, p.fc_enabled) for p in plans]
    assert keys == sorted(keys)
    assert len(plans) == 8
    for p in plans:
        if p.feasible:
            assert p.f_m >= 0.99
            assert p.rate_hz > 0
        else:
            assert p.rate_hz == 0.0


def test_lossless_link_success_independent_of_length():
    from qrepsim import expected_esta, herald_success

    lossless = LinkParams(
        fiber_db_per_km=0.0, herald_mode="pipelined", length_km=1.0
    )
    p1 = herald_success(CavityParams(), lossless, 1.0)
    p2 = herald_success(CavityParams(), lossless, 100.0)
    assert p1 == pytest.approx(p2, abs=1e-15)
    # pipelined expected time differs only by the flight terms
    t1 = expected_esta(CavityParams(), lossless, 1.0)[1]
    t2 = expected_esta(CavityParams(), lossless, 100.0)[1]
    c = 299792458.0
    flight_diff = (99.0e3 / (c / 1.5) + 99.0e3 / c) * 1e6
    assert t2 - t1 == pytest.approx(flight_diff, rel=1e-9)
