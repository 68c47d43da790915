import numpy as np
import pytest

import oracle
from qrepsim import (
    BellDiagonalState,
    GateNoiseParams,
    IDEAL_OPS,
    PurificationError,
    fixed_point_fidelity,
    purify_round_weights,
)
from qrepsim.purify import purify_n_rounds, purify_round
from qrepsim.states import PSI_PLUS, bell_state, fidelity_bell, to_bell_diagonal, werner

NOISY = GateNoiseParams(f_op=0.995, eta_meas=0.99)


def test_ideal_round_matches_werner_closed_form():
    result = purify_round(werner(0.91), werner(0.91), IDEAL_OPS)
    f_expected, p_expected = oracle.werner_purify_step(0.91)
    assert result.output_fidelity == pytest.approx(f_expected, abs=1e-9)
    assert result.p_puri == pytest.approx(p_expected, abs=1e-9)
    # the numbers themselves
    assert result.output_fidelity == pytest.approx(0.9345, abs=1e-4)
    assert result.p_puri == pytest.approx(0.8872, abs=1e-4)


@pytest.mark.parametrize("fidelity", [0.55, 0.7, 0.8, 0.91, 0.99])
def test_ideal_round_closed_form_grid(fidelity):
    result = purify_round(werner(fidelity), werner(fidelity), IDEAL_OPS)
    f_expected, p_expected = oracle.werner_purify_step(fidelity)
    assert result.output_fidelity == pytest.approx(f_expected, abs=1e-9)
    assert result.p_puri == pytest.approx(p_expected, abs=1e-9)


def test_bell_state_is_fixed_point():
    result = purify_round(bell_state(PSI_PLUS), bell_state(PSI_PLUS), IDEAL_OPS)
    assert result.p_puri == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(result.output_state.matrix - bell_state(PSI_PLUS).matrix)) <= 1e-12


def test_noisy_round_between_input_and_ideal():
    result = purify_round(werner(0.91), werner(0.91), NOISY)
    assert 0.91 < result.output_fidelity < 0.9345
    p_ref, out_ref = oracle.purify_round(
        werner(0.91).matrix, werner(0.91).matrix, 0.995, 0.99
    )
    assert result.p_puri == pytest.approx(p_ref, abs=1e-9)
    assert np.max(np.abs(result.output_state.matrix - out_ref)) <= 1e-9


def test_noisy_round_against_bruteforce_nonwerner():
    kept = BellDiagonalState(np.array([0.02, 0.07, 0.88, 0.03])).to_density_matrix()
    sac = BellDiagonalState(np.array([0.05, 0.01, 0.9, 0.04])).to_density_matrix()
    result = purify_round(kept, sac, NOISY)
    p_ref, out_ref = oracle.purify_round(kept.matrix, sac.matrix, 0.995, 0.99)
    assert result.p_puri == pytest.approx(p_ref, abs=1e-9)
    assert np.max(np.abs(result.output_state.matrix - out_ref)) <= 1e-9


def test_fast_path_equals_full_simulation():
    cases = [
        (np.array([0.25, 0.25, 0.25, 0.25]), np.array([0.1, 0.1, 0.7, 0.1])),
        (np.array([0.02, 0.07, 0.88, 0.03]), np.array([0.05, 0.01, 0.9, 0.04])),
        (np.array([0.0, 0.0, 1.0, 0.0]), np.array([0.03, 0.03, 0.91, 0.03])),
    ]
    for w_kept, w_sac in cases:
        kept = BellDiagonalState(w_kept)
        sac = BellDiagonalState(w_sac)
        full = purify_round(kept.to_density_matrix(), sac.to_density_matrix(), NOISY)
        fast, p_fast = purify_round_weights(kept, sac, NOISY)
        full_weights, leakage = to_bell_diagonal(full.output_state)
        assert leakage <= 1e-9
        assert p_fast == pytest.approx(full.p_puri, abs=1e-9)
        assert np.max(np.abs(np.asarray(fast.weights) - full_weights.weights)) <= 1e-9


def test_branch_symmetry_for_bell_diagonal_inputs():
    # accepted 00 and 11 branches give the same normalized kept state
    from qrepsim.noise import noisy_measure_z, noisy_two_qubit_gate
    from qrepsim.purify import balance_errors
    from qrepsim.states import tensor

    rho = tensor(werner(0.91), werner(0.85))
    rho = balance_errors(rho)
    rho = noisy_two_qubit_gate(rho, "cnot", (0, 2), NOISY)
    rho = noisy_two_qubit_gate(rho, "cnot", (1, 3), NOISY)
    posts = []
    for rec_b in noisy_measure_z(rho, 3, NOISY.eta_meas):
        for rec_a in noisy_measure_z(rec_b.post_state, 2, NOISY.eta_meas):
            if rec_a.outcome == rec_b.outcome:
                posts.append(rec_a.post_state.matrix)
    assert len(posts) == 2
    assert np.max(np.abs(posts[0] - posts[1])) <= 1e-9


def test_round_symmetric_in_argument_order():
    a = werner(0.91)
    b = BellDiagonalState(np.array([0.05, 0.02, 0.9, 0.03])).to_density_matrix()
    r_ab = purify_round(a, b, NOISY)
    r_ba = purify_round(b, a, NOISY)
    # identical inputs: swapping roles is exactly symmetric
    r_aa = purify_round(a, a, NOISY)
    r_aa2 = purify_round(a, a, NOISY)
    assert np.max(np.abs(r_aa.output_state.matrix - r_aa2.output_state.matrix)) == 0.0
    # distinct inputs keep the same success probability either way
    assert r_ab.p_puri == pytest.approx(r_ba.p_puri, abs=1e-12)


@pytest.mark.parametrize("fidelity", [0.6, 0.75, 0.91])
def test_werner_improvement_and_success_floor(fidelity):
    result = purify_round(werner(fidelity), werner(fidelity), IDEAL_OPS)
    assert result.output_fidelity > fidelity
    assert result.p_puri > 0.5


def test_recurrence_from_091_noisy():
    schedule = purify_n_rounds(werner(0.91), 6, NOISY)
    fids = schedule.fidelities
    assert fids[4] >= 0.99
    assert schedule.pairs_consumed == 64
    # plateaus: increments stay below 0.002 beyond round 5
    assert abs(fids[6] - fids[5]) < 0.002


def test_recurrence_from_08_reaches_same_plateau():
    plateau = fixed_point_fidelity(NOISY)
    schedule = purify_n_rounds(werner(0.8), 6, NOISY)
    assert abs(schedule.fidelities[6] - plateau) < 0.005


def test_ideal_curve_dominates_noisy():
    ideal = purify_n_rounds(werner(0.91), 6, IDEAL_OPS).fidelities
    noisy_091 = purify_n_rounds(werner(0.91), 6, NOISY).fidelities
    noisy_080 = purify_n_rounds(werner(0.8), 6, NOISY).fidelities
    for n in range(1, 7):
        assert ideal[n] > noisy_091[n]
        assert ideal[n] > noisy_080[n]
    assert ideal[0] == pytest.approx(noisy_091[0])


def test_ideal_recurrence_exceeds_three_nines_at_four_rounds():
    schedule = purify_n_rounds(werner(0.91), 4, IDEAL_OPS)
    fids = schedule.fidelities
    assert all(fids[n + 1] > fids[n] for n in range(4))
    assert fids[4] > 0.999


def test_fixed_point_ideal_is_one():
    assert fixed_point_fidelity(IDEAL_OPS, tolerance=1e-12) == pytest.approx(1.0, abs=1e-9)


def test_fixed_point_default_noise():
    plateau = fixed_point_fidelity(NOISY)
    assert plateau == pytest.approx(0.99, abs=0.005)
    # frozen regression value
    assert plateau == pytest.approx(0.99312910, abs=1e-7)


def test_fixed_point_heavy_noise_regression():
    # purification gain below the noise floor: the map contracts to the
    # maximally mixed state
    value = fixed_point_fidelity(GateNoiseParams(f_op=0.9, eta_meas=0.9))
    assert value == pytest.approx(0.25, abs=1e-6)


def _dense_fixed_point(params, tolerance=1e-9, max_rounds=64, seed_fidelity=0.95):
    """The fixed-point iteration on the 16-dimensional dense round."""
    state = werner(seed_fidelity)
    fid = fidelity_bell(state, PSI_PLUS)
    for _ in range(max_rounds):
        result = purify_round(state, state, params)
        if abs(result.output_fidelity - fid) < tolerance:
            return result.output_fidelity
        state, fid = result.output_state, result.output_fidelity
    raise RuntimeError("no convergence")


@pytest.mark.parametrize(
    "params",
    [
        NOISY,
        IDEAL_OPS,
        GateNoiseParams(f_op=0.9, eta_meas=0.9),  # heavy noise: contracts to 0.25
        GateNoiseParams(f_op=0.97, eta_meas=0.99),
        GateNoiseParams(f_op=0.995, eta_meas=0.96),
    ],
)
def test_fixed_point_equals_the_dense_iteration(params):
    assert fixed_point_fidelity(params) == pytest.approx(_dense_fixed_point(params), abs=1e-12)


def test_fixed_point_monotone_in_noise():
    grid = [
        fixed_point_fidelity(GateNoiseParams(f_op=f, eta_meas=0.99))
        for f in (0.97, 0.98, 0.99, 0.995, 1.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))
    grid = [
        fixed_point_fidelity(GateNoiseParams(f_op=0.995, eta_meas=eta))
        for eta in (0.96, 0.98, 0.99, 1.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))


def test_degenerate_round_raises():
    # kept psi+, sacrificed phi+: the measured parity is deterministically odd,
    # so perfect detectors never accept
    with pytest.raises(PurificationError):
        purify_round(bell_state(PSI_PLUS), bell_state("phi+"), IDEAL_OPS)


def test_round_input_validation():
    from qrepsim.states import maximally_mixed

    with pytest.raises(ValueError):
        purify_round(bell_state(PSI_PLUS), maximally_mixed(1), IDEAL_OPS)
    with pytest.raises(ValueError):
        purify_n_rounds(werner(0.9), -1, IDEAL_OPS)


def test_unbalanced_recurrence_diverges():
    # the raw bilateral-CNOT recurrence random-walks its phase errors; the
    # balancing rotations are what make nesting converge
    balanced = purify_n_rounds(werner(0.91), 3, NOISY, balanced=True).fidelities
    bare = purify_n_rounds(werner(0.91), 3, NOISY, balanced=False).fidelities
    assert balanced[1] == pytest.approx(bare[1], abs=1e-12)  # round 1 identical
    assert bare[2] < bare[1]
    assert balanced[3] > 0.98 > bare[3]
