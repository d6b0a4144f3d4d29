"""Tests for the closed-form converter model."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from cavityqfc import (
    CavityParams,
    ConversionResponse,
    PumpDrive,
    WavelengthConfig,
    alpha_tilde_from_finesse,
    bandwidth_nm_to_GHz,
    conversion_amplitude,
    dfg_wavelength,
    finesse_from_reflectances,
    fsr_from_length,
    nocavity_efficiency,
    peak_efficiency,
    power_broadened_fwhm,
    sample_response,
    transmission_amplitude,
)

CAV = CavityParams(fsr_MHz=5200.0, gamma_all_MHz=70.4, gamma_r_ratio=0.7)
CAV_OPEN = CavityParams(fsr_MHz=5200.0, gamma_all_MHz=70.4, gamma_r_ratio=1.0)


def drive_for(coupling, gamma_all=70.4, phase=0.0):
    """Pump drive with dimensionless coupling C, alpha_tilde fixed at 1/144."""
    alpha_tilde = 1.0 / 144.0
    return PumpDrive(coupling / alpha_tilde, alpha_tilde, phase)


class TestAmplitudes:
    def test_no_pump_full_transmission(self):
        t = transmission_amplitude(CAV, PumpDrive(0.0, 1.0 / 144.0), 0.0)
        assert t == pytest.approx(1.0 + 0.0j, abs=0)

    def test_impedance_matched_extinction(self):
        t = transmission_amplitude(CAV, drive_for(1.0), 0.0)
        assert abs(t) == pytest.approx(0.0, abs=1e-15)

    def test_detuned_matched_point(self):
        # C = 1, normalized detuning 1: t = (1 - i)/2, |t|^2 = 1/2
        t = transmission_amplitude(CAV, drive_for(1.0), CAV.gamma_all_MHz)
        assert t == pytest.approx(0.5 - 0.5j, abs=1e-15)
        assert abs(t) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_lossless_matched_conversion(self):
        r = conversion_amplitude(CAV_OPEN, drive_for(1.0), 0.0)
        assert abs(r) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_extraction_limited_conversion(self):
        r = conversion_amplitude(CAV, drive_for(1.0), 0.0)
        assert abs(r) ** 2 == pytest.approx(0.7, abs=1e-15)

    def test_unitarity_random_grid(self):
        rng = np.random.default_rng(1234)
        couplings = np.concatenate([rng.uniform(0, 10, 5000), 10 ** rng.uniform(-6, 1, 5000)])
        detunings = rng.uniform(-50, 50, couplings.size) * CAV_OPEN.gamma_all_MHz
        worst = 0.0
        for c, d in zip(couplings, detunings):
            drv = drive_for(c)
            total = (
                abs(transmission_amplitude(CAV_OPEN, drv, d)) ** 2
                + abs(conversion_amplitude(CAV_OPEN, drv, d)) ** 2
            )
            worst = max(worst, abs(total - 1.0))
        assert worst < 1e-12

    def test_conversion_bounded_by_extraction(self):
        rng = np.random.default_rng(7)
        grid = rng.uniform(-30, 30, 400) * CAV.gamma_all_MHz
        for c in (0.2, 1.0, 3.0):
            r = conversion_amplitude(CAV, drive_for(c), grid)
            assert np.all(np.abs(r) ** 2 <= CAV.gamma_r_ratio + 1e-12)
        # equality only at impedance matching on resonance
        assert abs(conversion_amplitude(CAV, drive_for(1.0), 0.0)) ** 2 == pytest.approx(0.7)
        assert abs(conversion_amplitude(CAV, drive_for(0.9), 0.0)) ** 2 < 0.7

    def test_phase_moves_argument_only(self):
        rng = np.random.default_rng(21)
        for phase in rng.uniform(-np.pi, np.pi, 25):
            base = conversion_amplitude(CAV, drive_for(0.8, phase=0.0), 35.0)
            rotated = conversion_amplitude(CAV, drive_for(0.8, phase=phase), 35.0)
            assert abs(rotated) == pytest.approx(abs(base), rel=1e-14)
            assert np.angle(rotated * np.exp(1j * phase)) == pytest.approx(
                np.angle(base), abs=1e-12
            )

    def test_conversion_fwhm_matches_broadened_width(self):
        drv = drive_for(0.9722222)
        grid = np.linspace(-600, 600, 120001)
        profile = np.abs(conversion_amplitude(CAV, drv, grid)) ** 2
        half = profile.max() / 2.0
        above = grid[profile >= half]
        fwhm_numeric = above[-1] - above[0]
        expected = power_broadened_fwhm(CAV, drv)
        assert fwhm_numeric == pytest.approx(expected, abs=2 * (grid[1] - grid[0]))

    def test_sample_response_shape(self):
        grid = np.linspace(-200, 200, 101)
        resp = sample_response(CAV, drive_for(1.0), grid)
        assert resp.t_ss.shape == grid.shape
        assert np.all(np.abs(resp.t_ss) <= 1 + 1e-12)
        assert np.all(np.abs(resp.r_rs) ** 2 <= CAV.gamma_r_ratio + 1e-12)


class TestScalarModel:
    def test_peak_efficiency_values(self):
        alpha_tilde = 1.0 / 144.0
        assert peak_efficiency(PumpDrive(0.0, alpha_tilde), 0.7) == 0.0
        assert peak_efficiency(PumpDrive(144.0, alpha_tilde), 0.7) == pytest.approx(0.7)
        assert peak_efficiency(PumpDrive(72.0, alpha_tilde), 0.7) == pytest.approx(
            4 * 0.7 * 0.5 / 1.5**2
        )

    def test_peak_efficiency_unimodal_argmax(self):
        alpha_tilde = 1.0 / 144.0
        result = minimize_scalar(
            lambda p: -peak_efficiency(PumpDrive(p, alpha_tilde), 1.0),
            bracket=(1.0, 100.0, 2000.0),
            method="golden",
            options={"xtol": 1e-10},
        )
        assert result.x == pytest.approx(144.0, rel=1e-6)

    def test_power_broadened_fwhm(self):
        cav = CavityParams(5200.0, 70.4, 0.7)
        alpha = 0.49  # MHz/mW
        drive0 = PumpDrive(0.0, alpha / cav.gamma_all_MHz)
        assert power_broadened_fwhm(cav, drive0) == pytest.approx(70.4)
        drive100 = PumpDrive(100.0, alpha / cav.gamma_all_MHz)
        assert power_broadened_fwhm(cav, drive100) == pytest.approx(119.4)
        cav2 = CavityParams(5200.0, 34.4, 0.7)
        assert power_broadened_fwhm(cav2, PumpDrive(0.0, 0.56 / 34.4)) == pytest.approx(34.4)

    def test_finesse(self):
        assert CavityParams(5200.0, 70.4).finesse == pytest.approx(73.8636, abs=1e-3)
        assert CavityParams(5200.0, 34.4).finesse == pytest.approx(151.1628, abs=1e-3)
        assert CavityParams(5200.0, 5200.0).finesse == pytest.approx(1.0)

    def test_fsr_from_length(self):
        # group index back-computed from L = 13.26 mm and FSR = 5.2 GHz
        assert fsr_from_length(13.26, 2.1739) == pytest.approx(5.2, rel=1e-3)
        assert fsr_from_length(2 * 13.26, 2.1739) == pytest.approx(
            fsr_from_length(13.26, 2.1739) / 2.0, rel=1e-14
        )
        assert fsr_from_length(13.26, 1.0) == pytest.approx(11.31, rel=1e-3)
        with pytest.raises(ValueError):
            fsr_from_length(0.0, 1.0)
        with pytest.raises(ValueError):
            fsr_from_length(10.0, -2.0)

    def test_finesse_from_reflectances(self):
        rho = np.sqrt(0.86)
        expected = np.pi * np.sqrt(rho) / (1.0 - rho)
        value = finesse_from_reflectances(0.86, 1.0, 0.0)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(41.65, abs=0.01)
        assert np.isfinite(finesse_from_reflectances(1.0, 1.0, 0.01))
        assert finesse_from_reflectances(1e-8, 1e-8, 0.0) < 0.01
        with pytest.raises(ValueError):
            finesse_from_reflectances(1.0, 1.0, 0.0)

    def test_nocavity_efficiency(self):
        assert nocavity_efficiency(0.0, 17.3e-3) == 0.0
        p_unit = (np.pi / 2) ** 2 / 17.3e-3
        assert p_unit == pytest.approx(142.6, abs=0.1)
        assert nocavity_efficiency(p_unit, 17.3e-3) == pytest.approx(1.0, abs=1e-12)
        assert nocavity_efficiency(np.pi**2 / 17.3e-3, 17.3e-3) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_tilde_from_finesse(self):
        assert alpha_tilde_from_finesse(np.pi, 4.0) == pytest.approx(1.0, rel=1e-14)
        assert alpha_tilde_from_finesse(25.0, np.pi**2 / 4) == pytest.approx(
            25 * np.pi / 16, rel=1e-14
        )
        b_rescaled = 17.3e-3 / (45.0 / 13.26) ** 2
        assert alpha_tilde_from_finesse(74.0, b_rescaled) == pytest.approx(
            74.0 * b_rescaled / (4 * np.pi), rel=1e-14
        )
        assert alpha_tilde_from_finesse(74.0, b_rescaled) == pytest.approx(8.85e-3, rel=1e-3)

    def test_dfg_wavelength(self):
        assert dfg_wavelength(780.0, 1581.0) == pytest.approx(780 * 1581 / 801, rel=1e-14)
        assert dfg_wavelength(780.0, 1581.0) == pytest.approx(1539.55, abs=0.01)
        assert dfg_wavelength(780.0, 1600.0) == pytest.approx(1522.0, abs=0.05)
        assert dfg_wavelength(800.0, 1600.0) == pytest.approx(1600.0, rel=1e-14)
        with pytest.raises(ValueError):
            dfg_wavelength(1581.0, 780.0)
        with pytest.raises(ValueError):
            dfg_wavelength(780.0, 780.0)

    def test_bandwidth_nm_to_GHz(self):
        assert bandwidth_nm_to_GHz(0.03, 1540.0) == pytest.approx(3.79, abs=0.005)
        assert bandwidth_nm_to_GHz(0.03, 1522.0) == pytest.approx(3.88, abs=0.005)
        assert bandwidth_nm_to_GHz(0.03, 1587.0) == pytest.approx(3.57, abs=0.005)
        # (center_nm * 1e-9) ** 2 underflows to 0 at 1e-300 and overflows at 1e300
        for center_nm in (1e-300, 1e300):
            message = f"bandwidth_nm_to_GHz(delta_nm=0.03, center_nm={center_nm}) leaves the float"
            with pytest.raises(ValueError, match=re.escape(message)):
                bandwidth_nm_to_GHz(0.03, center_nm)


class TestDomainTypes:
    def test_cavity_params_validation(self):
        with pytest.raises(ValueError):
            CavityParams(-1.0, 70.4)
        with pytest.raises(ValueError):
            CavityParams(5200.0, 0.0)
        with pytest.raises(ValueError):
            CavityParams(5200.0, 70.4, 1.5)
        with pytest.raises(ValueError):
            CavityParams(100.0, 200.0)  # finesse below one

    def test_cavity_geometry_consistency(self):
        # consistent length/group-index pair is accepted
        CavityParams(5200.0, 70.4, 0.7, length_mm=13.26, group_index=2.1739)
        with pytest.raises(ValueError):
            CavityParams(5200.0, 70.4, 0.7, length_mm=13.26, group_index=2.30)

    def test_pump_drive_validation(self):
        with pytest.raises(ValueError):
            PumpDrive(-1.0, 1.0)
        with pytest.raises(ValueError):
            PumpDrive(1.0, 0.0)
        assert PumpDrive(144.0, 1.0 / 144.0).coupling == pytest.approx(1.0)

    def test_conversion_response_arrays_must_match_the_grid(self):
        grid = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError, match="^grid and amplitude arrays must have equal length$"):
            ConversionResponse(grid, np.ones(5, complex), np.ones(4, complex))

    def test_wavelength_config_round_trip(self):
        converted = dfg_wavelength(780.0, 1581.0)
        WavelengthConfig(780.0, 1581.0, converted)  # exact triple passes
        WavelengthConfig(780.0, 1581.0, 1540.0)  # within 0.1 %
        with pytest.raises(ValueError):
            WavelengthConfig(780.0, 1581.0, 1560.0)
        with pytest.raises(ValueError):
            WavelengthConfig(1581.0, 780.0, 1540.0)


@given(
    finesse=st.floats(1.0, 1e4),
    gamma_r=st.floats(1e-6, 1.0),
    coupling=st.floats(0.0, 1e3),
    detuning=st.floats(-1e3, 1e3),
)
def test_unitarity_property(finesse, gamma_r, coupling, detuning):
    """|t|^2 + |r|^2 <= 1 with equality at gamma_r = 1; |t|^2 + |r|^2/gamma_r = 1."""
    cav = CavityParams(fsr_MHz=100.0 * finesse, gamma_all_MHz=100.0, gamma_r_ratio=gamma_r)
    lossless = CavityParams(fsr_MHz=100.0 * finesse, gamma_all_MHz=100.0, gamma_r_ratio=1.0)
    drive = PumpDrive(coupling, 1.0)
    t2 = abs(transmission_amplitude(cav, drive, 100.0 * detuning)) ** 2
    r2 = abs(conversion_amplitude(cav, drive, 100.0 * detuning)) ** 2
    r2_lossless = abs(conversion_amplitude(lossless, drive, 100.0 * detuning)) ** 2
    assert t2 + r2 <= 1.0 + 1e-12
    assert t2 + r2 / gamma_r == pytest.approx(1.0, abs=1e-12)
    assert t2 + r2_lossless == pytest.approx(1.0, abs=1e-12)
