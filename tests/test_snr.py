"""Tests for the SNR comparison and design operations."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavityqfc import (
    PRESETS,
    DesignReport,
    NoiseParams,
    PumpDrive,
    SnrCurve,
    cavity_dominates,
    comb_rate_in_band,
    low_power_snr_gain,
    min_finesse_for_dominance,
    noise_cavity_per_fsr,
    normalized_snr_curves,
    nv_design_report,
    peak_efficiency,
    snr_cav,
    snr_config_table,
    snr_nocav,
)
from cavityqfc import snr as snr_module


class TestPointwiseSnr:
    def test_snr_cav_limits(self):
        alpha_tilde, alpha_noise = 1.0 / 144.0, 230.0
        zero = snr_cav(0.0, alpha_tilde, alpha_noise)
        assert zero == pytest.approx(8 * alpha_tilde / alpha_noise, rel=1e-14)
        assert zero == pytest.approx(2.415e-4, rel=1e-3)
        assert snr_cav(144.0, alpha_tilde, alpha_noise) == pytest.approx(zero / 4, rel=1e-14)

    def test_snr_cav_strictly_decreasing(self):
        powers = np.linspace(0, 500, 100)
        values = [snr_cav(p, 1.0 / 144.0, 230.0) for p in powers]
        assert np.all(np.diff(values) < 0)

    @given(power=st.floats(1e-3, 1e4), alpha_tilde=st.floats(1e-4, 1.0),
           alpha_noise=st.floats(1e-2, 1e4), ratio=st.floats(1e-3, 1.0))
    def test_snr_cav_is_efficiency_over_noise_bound(self, power, alpha_tilde, alpha_noise, ratio):
        # dual route: eta_cav / (gamma_r * alpha_noise * P / 2) for any extraction,
        # the unsaturated noise, which is the low-power tangent of the saturating law
        expected = snr_cav(power, alpha_tilde, alpha_noise)
        eta = peak_efficiency(PumpDrive(power, alpha_tilde), ratio)
        noise_bound = ratio * alpha_noise * power / 2.0
        assert eta / noise_bound == pytest.approx(expected, rel=1e-13)
        saturating = noise_cavity_per_fsr(NoiseParams(alpha_noise, ratio, alpha_tilde), power)
        assert noise_bound / saturating == pytest.approx(1.0 + alpha_tilde * power, rel=1e-13)
        assert eta / saturating == pytest.approx(
            8.0 * alpha_tilde / (alpha_noise * (1.0 + alpha_tilde * power)), rel=1e-13)

    def test_snr_nocav_values(self):
        B, alpha_noise = np.pi**2 / 4, 1.0
        assert snr_nocav(0.0, B, alpha_noise, 1.0) == pytest.approx(B, rel=1e-14)
        p_unit = (np.pi / 2) ** 2 / B
        assert snr_nocav(p_unit, B, alpha_noise, 1.0) == pytest.approx(1.0, rel=1e-12)
        base = snr_nocav(0.3, B, alpha_noise, 1.0)
        assert snr_nocav(0.3, B, alpha_noise, 0.5) == pytest.approx(2 * base, rel=1e-14)

    @pytest.mark.parametrize(
        "snr, args",
        [(snr_cav, (1.0 / 144.0, 230.0)), (snr_nocav, (np.pi**2 / 4, 1.0, 0.7))],
    )
    def test_array_power_matches_scalar_loop(self, snr, args):
        powers = np.concatenate([[0.0], np.random.default_rng(4).uniform(0.0, 500.0, 5000)])
        loop = [snr(p, *args) for p in powers]
        assert np.array_equal(snr(powers, *args), loop)
        assert type(snr(3.0, *args)) is float
        with pytest.raises(ValueError):
            snr(np.array([1.0, -1e-9, 2.0]), *args)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="power_mW must be"):
                snr(bad, *args)
            with pytest.raises(ValueError, match="power_mW must be"):
                snr(np.array([1.0, bad]), *args)

    @pytest.mark.parametrize("preset", ["1540", "1522"])
    def test_in_band_comb_is_the_tangent_over_one_plus_alpha_tilde_p(self, preset):
        # a band of k whole FSRs holds k teeth of the saturating law wherever its edges
        # lie, so the efficiency over its comb is snr_cav * (1 + alpha_tilde*P) / k
        cav, noise, alpha_tilde = (PRESETS[preset].cavity, PRESETS[preset].noise(),
                                   PRESETS[preset].alpha_tilde_per_mW)
        fsr_GHz = cav.fsr_MHz / 1e3
        for k in (1, 3, 24):
            for power in (1.0, 10.0, 144.0, 250.0):
                eta = peak_efficiency(PumpDrive(power, alpha_tilde), cav.gamma_r_ratio)
                rate = comb_rate_in_band(cav, noise, power, fsr_GHz / 4, fsr_GHz * (k + 0.25))
                expected = snr_cav(power, alpha_tilde, noise.alpha_noise_cps_per_mW)
                assert eta / rate == pytest.approx(
                    expected * (1.0 + alpha_tilde * power) / k, rel=1e-14, abs=0.0)

    def test_band_ratio_domain(self):
        with pytest.raises(ValueError):
            snr_nocav(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            snr_nocav(1.0, 1.0, 1.0, 1.2)


class TestNormalizedCurves:
    def test_anchor_values_f25(self):
        cavity, nocavity = normalized_snr_curves(25.0, 256)
        assert cavity.efficiencies[0] == 0.0
        assert cavity.snr_values[0] == pytest.approx(25 * np.pi / 2, rel=1e-12)
        assert cavity.efficiencies[-1] == pytest.approx(1.0, abs=1e-14)
        assert cavity.snr_values[-1] == pytest.approx(25 * np.pi / 8, rel=1e-12)
        assert nocavity.snr_values[-1] == pytest.approx(1.0, abs=1e-12)
        assert nocavity.efficiencies[-1] == pytest.approx(1.0, abs=1e-14)

    def test_threshold_finesse_parity_at_unit_efficiency(self):
        cavity, _ = normalized_snr_curves(8.0 / np.pi, 64)
        assert cavity.snr_values[-1] == pytest.approx(1.0, abs=1e-9)

    def test_cavity_curve_monotone_decreasing(self):
        cavity, _ = normalized_snr_curves(25.0, 128)
        assert np.all(np.diff(cavity.snr_values) < 0)
        assert np.all(np.diff(cavity.efficiencies) > 0)

    def test_grid_size_guard(self):
        with pytest.raises(ValueError):
            normalized_snr_curves(25.0, 8)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_cavity_efficiency_axis_is_peak_efficiency(self, preset):
        cavity, _ = normalized_snr_curves(PRESETS[preset].cavity.finesse)
        # a unit alpha_tilde makes the coupling exactly x; (x / a) * a can miss x by an ulp
        couplings = np.linspace(0.0, 1.0, len(cavity.efficiencies))
        expected = [peak_efficiency(PumpDrive(x, 1.0), 1.0) for x in couplings]
        assert cavity.efficiencies.tolist() == expected

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            SnrCurve(np.array([0.0, 1.5]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            SnrCurve(np.array([0.0, 0.5]), np.array([1.0]))


class TestDominanceThreshold:
    def test_min_finesse_matches_threshold(self):
        value = min_finesse_for_dominance(1e-3)
        assert value == pytest.approx(8.0 / np.pi, abs=1e-3)

    def test_below_threshold_fails_at_unit_efficiency(self):
        low = 8.0 / np.pi - 0.1
        assert not cavity_dominates(low)
        cavity, nocavity = normalized_snr_curves(low, 64)
        assert cavity.snr_values[-1] < nocavity.snr_values[-1]

    def test_above_threshold_dominates_everywhere(self):
        assert cavity_dominates(10.0)
        # a grid 4 times denser than cavity_dominates' own, inverted as it inverts its grid
        eff = np.linspace(1e-4, 1.0, 2000)
        u = np.sqrt(1.0 - eff)
        snr_c, snr_n = snr_module._normalized_snr(10.0, (1.0 - u) / (1.0 + u),
                                                  np.arcsin(np.sqrt(eff)))
        assert np.all(snr_c >= snr_n)

    def test_the_efficiency_grid_is_fixed(self):
        with pytest.raises(TypeError):
            cavity_dominates(10.0, [0.5, 1.0])

    def test_the_efficiency_grid_ends_at_full_conversion_once(self):
        grid = snr_module._DOMINANCE_GRID
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] == 1.0

    def test_bisection_bracket_holds(self):
        # min_finesse_for_dominance bisects [1, 16] without checking its ends
        assert not cavity_dominates(1.0)
        assert cavity_dominates(16.0)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            min_finesse_for_dominance(0.0)

    def test_threshold_follows_the_law_it_names(self, monkeypatch):
        assert cavity_dominates(3.0)
        law = snr_module.snr_cav
        monkeypatch.setattr(snr_module, "snr_cav", lambda *args: law(*args) / 2.0)
        # the halved cavity SNR at full conversion is 3*pi/16 ~ 0.59, below one
        assert not cavity_dominates(3.0)

    @pytest.mark.parametrize("F", [8.0 / np.pi, 8.0 / np.pi - 1e-9, 8.0 / np.pi + 1e-9, 25.0])
    def test_verdict_agrees_with_the_printed_curves(self, F):
        # the curves end at full conversion, where the threshold binds
        cavity, nocavity = normalized_snr_curves(F, 64)
        assert cavity_dominates(F) == (cavity.snr_values[-1] >= nocavity.snr_values[-1])


class TestConfigTable:
    def test_structure_and_values(self):
        table = snr_config_table(25.0, 1.0)
        assert table["fsr_wide"]["no_cavity"] == 1.0
        assert table["fsr_wide"]["converted_mode"] == pytest.approx(15.915, abs=1e-3)
        assert table["fsr_wide"]["signal_mode"] == pytest.approx(0.3183, abs=1e-4)
        assert table["fwhm_wide"]["no_cavity"] == 25.0
        assert table["fwhm_wide"]["converted_mode"] == pytest.approx(15.915, abs=1e-3)
        assert table["fwhm_wide"]["signal_mode"] == pytest.approx(25 / np.pi, rel=1e-12)
        assert table["fsr_wide"]["converted_mode"] == low_power_snr_gain(25.0)
        with pytest.raises(ValueError):
            snr_config_table(25.0, 0.5)

    def test_parity_at_half_pi(self):
        table = snr_config_table(np.pi / 2, 1.0)
        assert table["fsr_wide"]["converted_mode"] == pytest.approx(1.0, rel=1e-14)

    def test_narrowband_no_cavity_entry(self):
        assert snr_config_table(74.0, 1.0)["fwhm_wide"]["no_cavity"] == 74.0

    def test_consistent_with_low_power_gain(self):
        for F_c in (1.0, 2.5, 25.0, 74.0, 151.0):
            table = snr_config_table(F_c, 1.0)
            assert table["fsr_wide"]["converted_mode"] == pytest.approx(
                low_power_snr_gain(F_c), rel=1e-14
            )

    def test_low_power_gain_values(self):
        assert low_power_snr_gain(np.pi / 2) == pytest.approx(1.0, rel=1e-14)
        assert low_power_snr_gain(74.0) == pytest.approx(47.11, abs=0.01)
        assert low_power_snr_gain(25.0) == pytest.approx(15.92, abs=0.01)


class TestDesignReport:
    def test_design_point(self):
        report = nv_design_report(45.0, 5.0, 0.03, 1587.0)
        assert report.bpf_GHz == pytest.approx(3.571, abs=0.001)
        assert report.suppression_factor > 10.0
        assert report.over_tenfold

    def test_no_confinement_is_no_gain(self):
        report = nv_design_report(1.0, 5.0, 0.03, 1587.0)
        assert report.suppression_factor == pytest.approx(1.0, abs=0.2)
        assert not report.over_tenfold

    def test_over_tenfold_compares_with_the_threshold(self):
        report = nv_design_report(45.0, 5.0, 0.03, 1587.0)
        assert report.threshold == 10.0
        assert report.over_tenfold and not replace(report, suppression_factor=10.0).over_tenfold
        assert [f.name for f in fields(DesignReport)] == ["bpf_GHz", "suppression_factor"]
        with pytest.raises(TypeError):
            replace(report, threshold=1.0)  # a constant, not a field

    def test_wider_window_weaker_suppression(self):
        narrow = nv_design_report(45.0, 5.0, 0.03, 1587.0)
        wide = nv_design_report(45.0, 5.0, 0.0378, 1587.0)  # ~ 0.9 FSR
        assert wide.suppression_factor < narrow.suppression_factor
