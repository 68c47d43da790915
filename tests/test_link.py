import numpy as np
import pytest

from qrepsim import (
    CavityParams,
    LinkParams,
    PSI_PLUS,
    bell_state,
    expected_esta,
    herald_success,
    heralded_state,
    link_budget,
    link_transmission,
    reflection_amplitude,
)
from qrepsim.link import cz_success


def test_reflection_uncoupled_default():
    r = reflection_amplitude(CavityParams(), atom_coupled=False)
    assert r.imag == 0.0
    assert r.real == pytest.approx(-0.9, abs=1e-12)
    assert abs(r) ** 2 == pytest.approx(0.81, abs=1e-3)


def test_reflection_coupled_default():
    # 1 - 2*3.8 / (4 + 4*7.6^2/3), checked by independent arithmetic
    r = reflection_amplitude(CavityParams(), atom_coupled=True)
    expected = 1.0 - 2 * 3.8 / (4.0 + 4.0 * 7.6**2 / 3.0)
    assert r.real == pytest.approx(expected, abs=1e-12)
    assert r.real > 0


def test_balanced_reflection_design():
    p = CavityParams()
    r_un = reflection_amplitude(p, False)
    r_c = reflection_amplitude(p, True)
    assert abs(abs(r_c) - abs(r_un)) < 0.01
    assert r_un.real * r_c.real < 0  # opposite signs


def test_reflection_ideal_limits():
    nearly_ideal = CavityParams(g_mhz=5000.0, kappa0_mhz=1e-6)
    assert reflection_amplitude(nearly_ideal, False).real == pytest.approx(-1.0, abs=1e-5)
    assert reflection_amplitude(nearly_ideal, True).real == pytest.approx(1.0, abs=1e-3)


def test_reflection_magnitude_bounded():
    for g in (0.5, 2.0, 7.6, 20.0):
        for kappa0 in (0.01, 0.2, 1.0):
            p = CavityParams(g_mhz=g, kappa0_mhz=kappa0)
            assert abs(reflection_amplitude(p, False)) <= 1 + 1e-12
            assert abs(reflection_amplitude(p, True)) <= 1 + 1e-12


def test_link_transmission_default():
    # 0.1 km at 3 dB/km, two 1 dB circulators, 75% detector
    expected = 10 ** (-(3 * 0.1 + 2 * 1.0) / 10) * 0.75
    assert link_transmission(LinkParams()) == pytest.approx(expected, abs=1e-12)
    assert link_transmission(LinkParams()) == pytest.approx(0.441633, abs=1e-5)


def test_link_transmission_lossless():
    lp = LinkParams(
        length_km=1e-9,
        attenuation_db_per_km=0.0,
        circulator_loss_db=0.0,
        detector_efficiency=1.0,
    )
    assert link_transmission(lp) == pytest.approx(1.0, abs=1e-9)


def test_link_transmission_fc_factor():
    base = link_transmission(LinkParams(attenuation_db_per_km_fc=3.0))
    with_fc = link_transmission(LinkParams(fc_enabled=True, attenuation_db_per_km_fc=3.0))
    assert with_fc == pytest.approx(base * 0.36, abs=1e-12)


def test_herald_success_default():
    assert herald_success(CavityParams(), LinkParams()) == pytest.approx(0.36, abs=0.01)


def test_herald_success_perfect_limit():
    p = CavityParams(g_mhz=1e5, kappa0_mhz=1e-9)
    lp = LinkParams(
        length_km=1e-9,
        attenuation_db_per_km=0.0,
        circulator_loss_db=0.0,
        detector_efficiency=1.0,
    )
    assert herald_success(p, lp) == pytest.approx(1.0, abs=1e-4)


def test_herald_success_with_fc():
    p_base = herald_success(CavityParams(), LinkParams(attenuation_db_per_km_fc=3.0))
    p_fc = herald_success(
        CavityParams(), LinkParams(fc_enabled=True, attenuation_db_per_km_fc=3.0)
    )
    assert p_fc == pytest.approx(p_base * 0.36, abs=1e-12)


def test_cz_accounting_option():
    paper = cz_success(CavityParams(), LinkParams())
    per_cavity = cz_success(CavityParams(), LinkParams(cz_accounting="per_cavity"))
    assert paper == pytest.approx(0.81, abs=1e-12)
    assert per_cavity == pytest.approx(0.81**2, abs=1e-12)


def test_herald_monotonicity():
    base = herald_success(CavityParams(), LinkParams())
    assert herald_success(CavityParams(), LinkParams(length_km=0.2)) < base
    assert herald_success(CavityParams(), LinkParams(attenuation_db_per_km=4.0)) < base
    assert herald_success(CavityParams(), LinkParams(circulator_loss_db=2.0)) < base
    assert herald_success(CavityParams(), LinkParams(detector_efficiency=0.9)) > base


def test_expected_esta_serial_default():
    t_attempt, t_esta = expected_esta(CavityParams(), LinkParams())
    assert t_esta == pytest.approx(4.53, abs=0.1)
    assert 1e3 / t_esta == pytest.approx(221.0, abs=5.0)
    # consistency: serial expected time is one attempt over the success probability
    p = herald_success(CavityParams(), LinkParams())
    assert t_esta * p == pytest.approx(t_attempt, abs=1e-12)


def test_expected_esta_attempt_breakdown():
    # pulse 20/kappa + l/v + l/c with kappa = 2*pi*4e6 rad/s
    t_attempt, _ = expected_esta(CavityParams(), LinkParams())
    c = 299792458.0
    pulse = 20 / (2 * np.pi * 4e6) * 1e6
    flight = 100 / (c / 1.5) * 1e6 + 100 / c * 1e6
    assert t_attempt == pytest.approx(pulse + flight, abs=1e-12)


def test_expected_esta_short_perfect_limit():
    p = CavityParams(g_mhz=1e5, kappa0_mhz=1e-9)
    lp = LinkParams(
        length_km=1e-12,
        attenuation_db_per_km=0.0,
        circulator_loss_db=0.0,
        detector_efficiency=1.0,
    )
    _, t_esta = expected_esta(p, lp)
    pulse = 20 / (2 * np.pi * 4e6) * 1e6
    assert t_esta == pytest.approx(pulse, rel=1e-3)


def test_expected_esta_table_convention():
    _, t_esta = expected_esta(CavityParams(), LinkParams(esta_convention="table"))
    assert t_esta == pytest.approx(3.6, abs=0.1)


def test_pipelined_never_slower():
    for length in (0.1, 1.0, 10.0, 100.0):
        serial = expected_esta(CavityParams(), LinkParams(length_km=length))[1]
        pipe = expected_esta(
            CavityParams(), LinkParams(length_km=length, herald_mode="pipelined")
        )[1]
        assert pipe <= serial


def test_heralded_state_fidelity():
    assert heralded_state(LinkParams()).fidelity == pytest.approx(0.96)
    perfect = heralded_state(LinkParams(technical_fidelity=1.0)).to_density_matrix()
    assert np.allclose(perfect.matrix, bell_state(PSI_PLUS).matrix, atol=1e-12)


def test_link_budget_bundle():
    budget = link_budget(CavityParams(), LinkParams())
    assert budget.p_cz == pytest.approx(0.81, abs=1e-12)
    assert budget.p_succ == pytest.approx(0.36, abs=0.01)
    assert budget.t_esta_us >= budget.t_attempt_us
    budget.heralded_state.to_density_matrix().validate()


def test_cavity_params_validation():
    with pytest.raises(ValueError):
        CavityParams(kappa0_mhz=5.0, kappa_mhz=4.0)
    with pytest.raises(ValueError):
        CavityParams(gamma_mhz=-1.0)


def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(detector_efficiency=0.0)
    with pytest.raises(ValueError):
        LinkParams(length_km=-1.0)
    with pytest.raises(ValueError):
        LinkParams(herald_mode="batched")
