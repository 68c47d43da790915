import math

import pytest

from qrepsim import (
    CavityParams,
    GateNoiseParams,
    IDEAL_OPS,
    LinkParams,
    OperationTimings,
    calibrate_t_proj,
    classical_delay_us,
    expected_esta,
    BellDiagonalState,
    purify_ladder_weights,
    qc_zone_state,
    rate_fidelity_curve,
    t_eg,
    t_puri,
)

NOISY = GateNoiseParams()


T_ESTA, L_KM = 4.5557, 0.1


def qc_p_list(n=8):
    initial = qc_zone_state(LinkParams(), NOISY)
    return purify_ladder_weights(initial, n, NOISY)[1]


def test_t_puri_values():
    assert t_puri(200.0, 1.0) == pytest.approx(200.0)
    assert t_puri(200.0, 0.887) == pytest.approx(225.5, abs=0.1)
    with pytest.raises(ValueError):
        t_puri(200.0, 0.0)


def test_t_puri_below_bound_at_defaults():
    for p in qc_p_list():
        assert t_puri(200.0, p) < 400.0


def test_t_eg_no_purification():
    result = t_eg(0, OperationTimings(), T_ESTA, L_KM, [])
    assert result.t_eg_us == pytest.approx(22.0, abs=1e-9)
    assert result.effective_rate_hz == pytest.approx(45455.0, abs=2000.0)


def test_t_eg_four_rounds_target_rate():
    result = t_eg(4, OperationTimings(), T_ESTA, L_KM, qc_p_list())
    rate_khz = result.effective_rate_hz / 1e3
    assert rate_khz == pytest.approx(1.1, rel=0.3)


def test_t_eg_rate_consistency():
    result = t_eg(3, OperationTimings(), T_ESTA, L_KM, qc_p_list())
    assert result.effective_rate_hz == pytest.approx(1e6 / result.t_eg_us, rel=1e-9)


def test_t_eg_requires_enough_probabilities():
    with pytest.raises(ValueError):
        t_eg(3, OperationTimings(), T_ESTA, L_KM, [0.9, 0.9])


def test_t_eg_monotone_in_inputs():
    p_list = qc_p_list()
    base = t_eg(3, OperationTimings(), T_ESTA, L_KM, p_list).t_eg_us
    assert t_eg(4, OperationTimings(), T_ESTA, L_KM, p_list).t_eg_us >= base
    assert t_eg(3, OperationTimings(), 50.0, L_KM, p_list).t_eg_us >= base
    longer_proj = OperationTimings(t_proj_us=300.0)
    assert t_eg(3, longer_proj, T_ESTA, L_KM, p_list).t_eg_us >= base
    worse_p = [p * 0.8 for p in p_list]
    assert t_eg(3, OperationTimings(), T_ESTA, L_KM, worse_p).t_eg_us >= base


def test_t_eg_lower_bound():
    p_list = qc_p_list()
    for n in range(5):
        for t_esta in (1.0, 4.5557, 30.0):
            timings = OperationTimings()
            bound = 2**n * (timings.t_swap_us + min(t_esta, timings.t_move_us))
            assert t_eg(n, timings, t_esta, L_KM, p_list).t_eg_us >= bound - 1e-9


def test_sums_run_left_to_right():
    # 1 + 1e16 + 1 rounds differently when summed left to right than when
    # compensated, as sum() is from Python 3.12 on; outputs keep the former
    p_list = [1.0, 1e-16, 1.0]
    timings = OperationTimings(t_proj_us=1.0)
    lc = classical_delay_us(L_KM)
    steps = [t_puri(1.0, p) + lc for p in p_list]
    left_to_right = (steps[0] + steps[1]) + steps[2]
    assert left_to_right != math.fsum(steps)
    assert t_eg(3, timings, T_ESTA, L_KM, p_list).t_eg_us == left_to_right
    inverse = (1.0 / p_list[0] + 1.0 / p_list[1]) + 1.0 / p_list[2]
    assert inverse != math.fsum(1.0 / p for p in p_list)
    t_proj = calibrate_t_proj(1e-3, 3, timings, T_ESTA, L_KM, p_list)
    assert t_proj == (1e9 - 3 * lc) / inverse


def test_t_eg_limiting_rate():
    result = t_eg(0, OperationTimings(), 1e15, L_KM, [])
    assert result.effective_rate_hz < 1e-6


def test_generation_limited_crossover():
    p_list = qc_p_list()
    timings = OperationTimings()
    regimes = [t_eg(n, timings, T_ESTA, L_KM, p_list) for n in range(9)]
    for result in regimes:
        gen = 2**result.n_rounds * timings.stage_time_us(T_ESTA)
        puri = sum(
            t_puri(timings.t_proj_us, p) + classical_delay_us(L_KM)
            for p in p_list[: result.n_rounds]
        )
        assert result.generation_limited == (gen >= puri)
        assert result.t_eg_us == pytest.approx(max(gen, puri), rel=1e-12)
    # generation doubles with N, purification grows linearly: the pipeline is
    # purification-dominated in a middle window and generation-dominated again
    # once 2^N overtakes the linear sum
    flags = [r.generation_limited for r in regimes]
    assert flags[0] is True
    assert False in flags
    last_false = max(i for i, f in enumerate(flags) if not f)
    assert all(flags[last_false + 1 :])


def test_move_accounting_explicit():
    averaged = OperationTimings()
    explicit = OperationTimings(move_accounting="explicit")
    assert explicit.stage_time_us(T_ESTA) == pytest.approx(averaged.stage_time_us(T_ESTA) / 0.9)


def test_parallel_links_scale_rate():
    lanes = OperationTimings(parallel_links=4)
    single = t_eg(0, OperationTimings(), T_ESTA, L_KM, [])
    multi = t_eg(0, lanes, T_ESTA, L_KM, [])
    assert multi.effective_rate_hz == pytest.approx(4 * single.effective_rate_hz)


def test_rate_fidelity_curve_endpoints():
    curve = rate_fidelity_curve(4, CavityParams(), LinkParams(), NOISY)
    assert 0.90 <= curve[0].final_fidelity <= 0.92
    assert curve[0].effective_rate_hz == pytest.approx(45455.0, abs=2000.0)
    assert curve[4].final_fidelity >= 0.99
    assert curve[4].effective_rate_hz == pytest.approx(1100.0, rel=0.3)


def test_rate_fidelity_curve_structure():
    curve = rate_fidelity_curve(6, CavityParams(), LinkParams(), NOISY)
    rates = [r.effective_rate_hz for r in curve]
    fids = [r.final_fidelity for r in curve]
    assert all(b < a for a, b in zip(rates, rates[1:]))
    plateau = max(fids)
    for a, b in zip(fids, fids[1:]):
        assert b >= a - 1e-9 or a >= plateau - 0.005
    # N = 0 rate is exactly one over the stage time
    _, t_esta = expected_esta(CavityParams(), LinkParams(), 0.1)
    stage = max(t_esta + 2.0, 2.0 + 20.0)
    assert curve[0].effective_rate_hz == pytest.approx(1e6 / stage, rel=1e-12)


def test_rate_fidelity_curve_rejects_large_n():
    with pytest.raises(ValueError):
        rate_fidelity_curve(11, CavityParams(), LinkParams(), NOISY)


def test_rate_fidelity_curve_rejects_an_infinite_time():
    # at 1010 km T_esta is finite, but 2^N times the stage time overflows
    with pytest.raises(ValueError, match=r"^t_eg_us must be finite, got inf$"):
        rate_fidelity_curve(10, CavityParams(), LinkParams(length_km=1010.0), NOISY)
    # t_eg itself still reports the overflow
    _, t_esta = expected_esta(CavityParams(), LinkParams(), 1010.0)
    assert t_eg(10, OperationTimings(), t_esta, 1010.0, [0.9] * 10).t_eg_us == float("inf")
    # at 1015 km T_esta itself overflows
    with pytest.raises(ValueError, match=r"^t_esta_us must be finite, got inf$"):
        rate_fidelity_curve(0, CavityParams(), LinkParams(length_km=1015.0), NOISY)


def test_rate_fidelity_curve_ideal_initial_override():
    curve = rate_fidelity_curve(
        2, CavityParams(), LinkParams(), IDEAL_OPS, initial_state=BellDiagonalState.werner(0.8)
    )
    assert curve[0].final_fidelity == pytest.approx(0.8)
    assert curve[2].final_fidelity > 0.9


def test_calibrate_t_proj():
    p_list = qc_p_list()
    t_proj = calibrate_t_proj(1100.0, 4, OperationTimings(), T_ESTA, L_KM, p_list)
    assert 0 < t_proj < 400.0
    # plugging the calibrated value back reproduces the target rate
    recal = OperationTimings(t_proj_us=t_proj)
    result = t_eg(4, recal, T_ESTA, L_KM, p_list)
    assert result.effective_rate_hz == pytest.approx(1100.0, rel=1e-9)


def test_calibrate_t_proj_rejects_generation_limited():
    with pytest.raises(ValueError):
        calibrate_t_proj(40000.0, 1, OperationTimings(), T_ESTA, L_KM, qc_p_list())


def test_timings_validation():
    with pytest.raises(ValueError):
        OperationTimings().stage_time_us(-1.0)
    with pytest.raises(ValueError):
        OperationTimings(p_move=0.0)
    with pytest.raises(ValueError):
        OperationTimings(move_accounting="amortized")
