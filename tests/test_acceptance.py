"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the test results.
"""

import numpy as np

import oracle
from qrepsim import (
    BellDiagonalState,
    CavityParams,
    GateNoiseParams,
    IDEAL_OPS,
    LinkParams,
    OperationTimings,
    bell_measurement,
    calibrate_t_proj,
    expected_esta,
    fixed_point_fidelity,
    herald_success,
    optimize_plan,
    purify_ladder_weights,
    purify_round_weights,
    qc_zone_state,
    rate_fidelity_curve,
    rate_vs_distance,
    reflection_amplitude,
)
from qrepsim.noise import gate_noise_channel, swap_gate, transport_channel
from qrepsim.purify import purify_n_rounds, purify_round
from qrepsim.states import (
    PSI_PLUS,
    bell_state,
    computational_state,
    depolarizing_channel,
    fidelity_bell,
    identity_channel,
    partial_trace,
    tensor,
    to_bell_diagonal,
    werner,
)

NOISY = GateNoiseParams(f_op=0.995, eta_meas=0.99)
PIPELINED = LinkParams(herald_mode="pipelined")


def _report(num: int, description: str, checks: dict):
    ok = all(checks.values())
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}")
    for name, good in checks.items():
        if not good:
            print(f"    failed: {name}")
    assert ok, f"criterion {num} failed: {[k for k, v in checks.items() if not v]}"


def test_criterion_1_link_budget():
    cavity, link = CavityParams(), LinkParams()
    r_un = abs(reflection_amplitude(cavity, False)) ** 2
    p_succ = herald_success(cavity, link, link.length_km)
    _, t_esta = expected_esta(cavity, link, link.length_km)
    rate_khz = 1e3 / t_esta
    _report(
        1,
        f"link budget: |r|^2={r_un:.4f}, P_succ={p_succ:.4f}, "
        f"T_esta={t_esta:.3f} us, rate={rate_khz:.1f} kHz",
        {
            "|r_uncoupled|^2 = 0.81 +- 0.001": abs(r_un - 0.81) <= 0.001,
            "P_succ = 0.36 +- 0.01": abs(p_succ - 0.36) <= 0.01,
            "T_esta = 4.53 +- 0.1 us": abs(t_esta - 4.53) <= 0.1,
            "rate = 221 +- 5 kHz": abs(rate_khz - 221.0) <= 5.0,
        },
    )


def test_criterion_2_balanced_reflection():
    cavity = CavityParams()
    r_un = reflection_amplitude(cavity, False)
    r_c = reflection_amplitude(cavity, True)
    _report(
        2,
        f"balanced reflection: r_uncoupled={r_un.real:.4f}, r_coupled={r_c.real:.4f}",
        {
            "|r_coupled| = |r_uncoupled| +- 0.01": abs(abs(r_c) - abs(r_un)) <= 0.01,
            "opposite signs": r_un.real * r_c.real < 0,
        },
    )


def test_criterion_3_swap_fidelity():
    rho = tensor(bell_state(PSI_PLUS), computational_state("0"))
    out = swap_gate(rho, 1, 2, GateNoiseParams(f_op=0.995))
    fid = fidelity_bell(partial_trace(out, [0, 2]), PSI_PLUS)
    _report(
        3,
        f"three noisy CNOTs transfer the e-bit at fidelity {fid:.5f}",
        {"swap fidelity >= 0.98": fid >= 0.98},
    )


def test_criterion_4_initial_qc_fidelity():
    fid = qc_zone_state(LinkParams(), NOISY).fidelity
    _report(
        4,
        f"herald(0.96) . swap . move(0.96) composition: F0 = {fid:.5f}",
        {"F0 in [0.90, 0.92]": 0.90 <= fid <= 0.92},
    )


def test_criterion_5_purification_convergence():
    noisy_091 = purify_n_rounds(werner(0.91), 6, NOISY).fidelities
    noisy_080 = purify_n_rounds(werner(0.8), 6, NOISY).fidelities
    ideal_091 = purify_n_rounds(werner(0.91), 6, IDEAL_OPS).fidelities
    plateau = fixed_point_fidelity(NOISY)
    dominated = all(
        ideal_091[n] > noisy_091[n] and ideal_091[n] > noisy_080[n] for n in range(1, 7)
    )
    _report(
        5,
        f"purification: F(N=4|0.91)={noisy_091[4]:.5f}, F(N=6|0.8)={noisy_080[6]:.5f}, "
        f"plateau={plateau:.5f}",
        {
            "from 0.91: F >= 0.99 at N = 4": noisy_091[4] >= 0.99,
            "from 0.8: reaches plateau +- 0.005 at N = 6": abs(noisy_080[6] - plateau)
            <= 0.005,
            "ideal curve exceeds both noisy curves at every N >= 1": dominated,
            "ideal matches noisy at N = 0 from 0.91": ideal_091[0] == noisy_091[0],
        },
    )


def test_criterion_6_oracle_equivalence():
    checks = {}
    # full 16x16 circuit vs closed-form Werner recurrence, ideal operations
    for f in (0.8, 0.91, 0.95):
        result = purify_round(werner(f), werner(f), IDEAL_OPS)
        f_ref, p_ref = oracle.werner_purify_step(f)
        checks[f"werner({f}) fidelity matches closed form to 1e-9"] = (
            abs(result.output_fidelity - f_ref) <= 1e-9
        )
        checks[f"werner({f}) success matches closed form to 1e-9"] = (
            abs(result.p_puri - p_ref) <= 1e-9
        )
    # Bell-diagonal fast path vs full simulation, noisy operations
    for w1, w2 in [
        (np.array([0.02, 0.07, 0.88, 0.03]), np.array([0.05, 0.01, 0.9, 0.04])),
        (np.array([0.03, 0.03, 0.91, 0.03]), np.array([0.05, 0.05, 0.8, 0.1])),
    ]:
        kept, sac = BellDiagonalState(w1), BellDiagonalState(w2)
        full = purify_round(kept.to_density_matrix(), sac.to_density_matrix(), NOISY)
        fast, p_fast = purify_round_weights(kept, sac, NOISY)
        full_bd, _ = to_bell_diagonal(full.output_state)
        checks["fast path weights match full simulation to 1e-9"] = checks.get(
            "fast path weights match full simulation to 1e-9", True
        ) and bool(np.max(np.abs(np.asarray(fast.weights) - full_bd.weights)) <= 1e-9)
        checks["fast path success matches full simulation to 1e-9"] = checks.get(
            "fast path success matches full simulation to 1e-9", True
        ) and (abs(p_fast - full.p_puri) <= 1e-9)
    _report(6, "purification oracle equivalences", checks)


def test_criterion_7_rates_and_calibration():
    curve = rate_fidelity_curve(4, CavityParams(), LinkParams(), NOISY)
    rate0_khz = curve[0].effective_rate_hz / 1e3
    rate4_khz = curve[4].effective_rate_hz / 1e3
    # calibration: solve t_proj from the 1.1 kHz target
    _, t_esta = expected_esta(CavityParams(), LinkParams(), 0.1)
    p_list = purify_ladder_weights(qc_zone_state(LinkParams(), NOISY), 4, NOISY)[1]
    t_proj = calibrate_t_proj(1100.0, 4, OperationTimings(), t_esta, 0.1, p_list)
    _report(
        7,
        f"rates: N=0 {rate0_khz:.2f} kHz, N=4 {rate4_khz:.3f} kHz; "
        f"calibrated t_proj = {t_proj:.1f} us",
        {
            "N = 0 rate = 45 +- 2 kHz": abs(rate0_khz - 45.0) <= 2.0,
            "N = 4 rate = 1.1 kHz +- 30%": abs(rate4_khz - 1.1) <= 0.33,
            "calibrated t_proj < 400 us": 0 < t_proj < 400.0,
        },
    )


def test_criterion_8_swapping_oracle():
    checks = {}
    for f in (0.8, 0.9, 0.95, 0.99):
        w = BellDiagonalState.werner(f)
        out = bell_measurement(w, w, IDEAL_OPS)
        expected = oracle.werner_swap_step(f)
        checks[f"M=3 ideal chain at F={f} matches F^2+(1-F)^2/3 to 1e-9"] = (
            abs(out.fidelity - expected) <= 1e-9
        )
    # feedforward branch equivalence, ideal operations
    from qrepsim.noise import noisy_measure_z, noisy_two_qubit_gate
    from qrepsim.states import HADAMARD, PAULI_X, PAULI_Z, DensityMatrix, expand_operator

    pairs = tensor(werner(0.9), werner(0.9))
    rho = noisy_two_qubit_gate(pairs, "cnot", (1, 2), IDEAL_OPS)
    h = expand_operator(HADAMARD, 4, (1,))
    rho = DensityMatrix.from_matrix((h @ rho.matrix @ h.conj().T))
    branch_states = []
    for rec_y in noisy_measure_z(rho, 2, 1.0):
        for rec_x in noisy_measure_z(rec_y.post_state, 1, 1.0):
            corr = np.linalg.matrix_power(PAULI_X, rec_y.outcome ^ 1) @ np.linalg.matrix_power(
                PAULI_Z, rec_x.outcome
            )
            c = expand_operator(corr, 2, (1,))
            branch_states.append(c @ rec_x.post_state.matrix @ c.conj().T)
    spread = max(
        float(np.max(np.abs(s - branch_states[0]))) for s in branch_states[1:]
    )
    checks["feedforward branch equivalence to 1e-9"] = spread <= 1e-9
    _report(8, "entanglement swapping oracles", checks)


def test_criterion_9_distance_trends():
    cavity = CavityParams()
    checks = {}

    # monotone rate vs distance (M = 5, FC on)
    lengths = [5.0, 25.0, 100.0, 250.0, 500.0]
    plans = rate_vs_distance(lengths, [5], (True,), cavity, PIPELINED, NOISY)
    rates = [p.rate_hz for p in plans]
    checks["rate non-increasing in L"] = all(
        b <= a + 1e-12 for a, b in zip(rates, rates[1:])
    )

    # FC crossover below 25 km (M = 5) and improvement everywhere above it
    grid = [2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 50.0, 100.0]
    both = rate_vs_distance(grid, [5], (False, True), cavity, PIPELINED, NOISY)
    by_length = {}
    for plan in both:
        by_length.setdefault(plan.total_length_km, {})[plan.fc_enabled] = plan.rate_hz
    crossover = next(
        (length for length in grid if by_length[length][True] > by_length[length][False]),
        None,
    )
    checks["FC crossover exists below 25 km"] = crossover is not None and crossover <= 25.0
    checks["FC improves rate for all L above the crossover"] = crossover is not None and all(
        by_length[length][True] > by_length[length][False]
        for length in grid
        if length >= crossover
    )

    # more stations win at long distance (no FC, matching the 780 nm curves)
    checks["larger M gives higher rate at L >= 100 km"] = True
    for length in (100.0, 250.0):
        ordered = rate_vs_distance([length], [2, 5, 17], (False,), cavity, PIPELINED, NOISY)
        r = [p.rate_hz for p in ordered]
        checks["larger M gives higher rate at L >= 100 km"] &= r[0] < r[1] < r[2]

    # order-of-magnitude anchors, herald_mode = pipelined (serial heralding is
    # 10-40x slower and does not reach the anchors; recorded here)
    anchors = [
        (5, 25.0, False, 100.0, "M=5, 25 km, no FC"),
        (5, 250.0, True, 10.0, "M=5, 250 km, FC"),
        (17, 500.0, True, 10.0, "M=17, 500 km, FC"),
    ]
    anchor_text = []
    for m_stations, length, fc, target_hz, label in anchors:
        plan = optimize_plan(
            m_stations, length, cavity, PIPELINED, NOISY, fc=fc, fidelity_target=0.99
        )
        anchor_text.append(f"{label}: {plan.rate_hz:.2f} Hz")
        checks[f"{label} within 10x of {target_hz:g} Hz"] = (
            plan.feasible and target_hz / 10 <= plan.rate_hz <= target_hz * 10
        )
        checks[f"{label} satisfies F_M >= 0.99"] = plan.f_m >= 0.99

    # every feasible plan meets the fidelity floor
    checks["all feasible plans have F_M >= 0.99"] = all(
        p.f_m >= 0.99 for p in both + plans if p.feasible
    )

    _report(
        9,
        "distance trends [herald_mode=pipelined]: " + "; ".join(anchor_text),
        checks,
    )


def test_criterion_10_physicality_suite():
    # DensityMatrix construction validates trace/Hermiticity/PSD at 1e-9 on
    # every operation output; spot-check representative states explicitly and
    # check every channel constructor used anywhere above.
    produced = [
        werner(0.91),
        qc_zone_state(LinkParams(), NOISY).to_density_matrix(),
        purify_round(werner(0.91), werner(0.91), NOISY).output_state,
        purify_n_rounds(werner(0.8), 4, NOISY).final_state,
        bell_measurement(
            BellDiagonalState.werner(0.95), BellDiagonalState.werner(0.95), NOISY
        ).to_density_matrix(),
        transport_channel(bell_state(PSI_PLUS), 1, 0.96),
    ]
    checks = {}
    for i, rho in enumerate(produced):
        try:
            rho.validate()
            checks[f"state {i} physical"] = True
        except Exception:
            checks[f"state {i} physical"] = False
    for name, channel in [
        ("identity", identity_channel(2)),
        ("gate noise cnot", gate_noise_channel("cnot", 0.995)),
        ("gate noise cz", gate_noise_channel("cz", 0.995)),
        ("transport depolarizing", depolarizing_channel(1, 4 * (1 - 0.96) / 3)),
        ("two-qubit depolarizing", depolarizing_channel(2, 0.005)),
    ]:
        try:
            channel.validate()
            checks[f"channel {name} CPTP"] = True
        except Exception:
            checks[f"channel {name} CPTP"] = False
    _report(10, "physicality and CPTP suite", checks)
