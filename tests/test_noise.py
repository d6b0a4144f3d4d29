"""Tests for the anti-Stokes noise model, with quadrature oracles."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from cavityqfc import (
    PRESETS,
    CavityParams,
    CombSpectrum,
    NoiseParams,
    PumpDrive,
    as_spectral_density,
    beta_tilde_from,
    comb_density,
    comb_rate_in_band,
    comb_spectrum,
    half_noise_check,
    noise_cavity_per_fsr,
    noise_nocavity,
    normalized_noise_coefficient,
    power_broadened_fwhm,
    spdc_antiresonant_suppression,
)
from cavityqfc.noise import _wrapped_lorentzian_cdf

CAV = CavityParams(5200.0, 70.4, 0.7)
NOISE = NoiseParams.from_cavity(CAV, 230.0, 1.0 / 144.0)


def quad_total(noise, power, gamma_all_MHz):
    """Independent quadrature of the spectral density over all detunings (GHz)."""
    value, _ = quad(
        lambda d_GHz: as_spectral_density(noise, power, d_GHz * 1e3, gamma_all_MHz),
        -np.inf,
        np.inf,
        limit=400,
    )
    return value


class TestSpectralDensity:
    def test_peak_value_without_broadening(self):
        # the derived coupling is the cold-cavity beta_tilde = F*alpha_noise/(4*pi*FSR)
        for preset in PRESETS.values():
            cav, alpha = preset.cavity, preset.alpha_noise_cps_per_mW
            flat = NoiseParams(alpha, cav.gamma_r_ratio, 0.0)
            beta = beta_tilde_from(cav.finesse, alpha, cav.fsr_MHz * 1e-3)
            assert as_spectral_density(flat, 2.0, 0.0, cav.gamma_all_MHz) == pytest.approx(
                4 * cav.gamma_r_ratio * beta * 2.0, rel=1e-15
            )

    def test_half_width_at_half_maximum(self):
        power = 144.0
        peak = as_spectral_density(NOISE, power, 0.0, 70.4)
        width = 0.5 * 70.4 * (1 + power / 144.0)  # HWHM in MHz
        assert as_spectral_density(NOISE, power, width, 70.4) == pytest.approx(
            peak / 2.0, rel=1e-12
        )
        assert as_spectral_density(NOISE, power, -width, 70.4) == pytest.approx(
            peak / 2.0, rel=1e-12
        )

    @pytest.mark.parametrize(
        "power", [0.01, 0.1, 1.0, 10.0, 100.0, 144.0, 300.0, 1000.0]
    )
    def test_quadrature_matches_closed_form(self, power):
        # beta_tilde built from the linewidth makes one tooth carry the per-FSR law
        numeric = quad_total(NOISE, power, 70.4)
        assert numeric == pytest.approx(noise_cavity_per_fsr(NOISE, power), rel=1e-6)

    def test_beta_derived_from_gamma_all(self):
        # no cavity is needed to build the parameters: the linewidth argument fixes beta_tilde
        bare = NoiseParams(230.0, 0.7, 1.0 / 144.0)
        assert bare == NOISE
        narrow = as_spectral_density(bare, 1.0, 0.0, 35.2)
        assert narrow == pytest.approx(2.0 * as_spectral_density(bare, 1.0, 0.0, 70.4), rel=1e-15)

    @pytest.mark.parametrize("gamma_all", [0.0, -70.4, np.nan, np.inf])
    def test_linewidth_must_be_positive_and_finite(self, gamma_all):
        with pytest.raises(ValueError, match="gamma_all_MHz must be positive and finite"):
            as_spectral_density(NOISE, 1.0, 0.0, gamma_all)


class TestRates:
    def test_low_power_slope(self):
        eps = 1e-9
        slope = noise_cavity_per_fsr(NOISE, eps) / eps
        assert slope == pytest.approx(0.7 * 230.0 / 2.0, rel=1e-6)
        assert slope == pytest.approx(80.5, rel=1e-6)

    def test_saturating_value_at_matching_power(self):
        assert noise_cavity_per_fsr(NOISE, 144.0) == pytest.approx(5796.0, rel=1e-12)

    def test_closed_cavity_is_dark(self):
        closed = NoiseParams(230.0, 0.0, 1.0 / 144.0)
        for power in (0.0, 10.0, 500.0):
            assert noise_cavity_per_fsr(closed, power) == 0.0

    def test_saturation_bound(self):
        powers = np.logspace(-3, 3, 40)
        for power in powers:
            bound = 0.7 * 230.0 * power / 2.0
            value = noise_cavity_per_fsr(NOISE, power)
            assert value < bound
        # approaches the bound from below as P -> 0
        tiny = 1e-8
        assert noise_cavity_per_fsr(NOISE, tiny) / (0.7 * 230.0 * tiny / 2.0) > 1 - 1e-7

    def test_array_power_matches_scalar_loop(self):
        powers = np.concatenate([[0.0], np.random.default_rng(2).uniform(0.0, 500.0, 2000)])
        loop = [noise_cavity_per_fsr(NOISE, p) for p in powers]
        assert np.array_equal(noise_cavity_per_fsr(NOISE, powers), loop)
        assert type(noise_cavity_per_fsr(NOISE, 3.0)) is float
        with pytest.raises(ValueError):
            noise_cavity_per_fsr(NOISE, np.array([1.0, -1e-9, 2.0]))

    @pytest.mark.parametrize(
        "law",
        [
            lambda p: as_spectral_density(NOISE, p, 35.0, 70.4),
            lambda p: half_noise_check(NOISE, p),
            lambda p: noise_nocavity(230.0, p, 3.79, 5.2),
            lambda p: noise_cavity_per_fsr(NOISE, p),
        ],
        ids=["as_spectral_density", "half_noise_check", "noise_nocavity",
             "noise_cavity_per_fsr"],
    )
    def test_power_guard_and_array_power(self, law):
        powers = np.concatenate([[0.0], np.random.default_rng(4).uniform(0.0, 500.0, 2000)])
        assert np.array_equal(law(powers), [law(p) for p in powers])
        assert np.array_equal(law(list(powers[:5])), law(powers[:5]))
        assert type(law(3.0)) is float
        with pytest.raises(ValueError, match="non-negative"):
            law(-10.0)
        with pytest.raises(ValueError, match="non-negative"):
            law(np.array([1.0, -1e-9, 2.0]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="must be non-negative and finite"):
                law(bad)
            with pytest.raises(ValueError, match="must be non-negative and finite"):
                law(np.array([1.0, bad, 2.0]))
        with pytest.raises(ValueError, match="non-negative"):
            law(-np.inf)

    def test_extraction_ratio_cancels(self):
        for ratio in (0.1, 0.5, 0.7, 1.0):
            varied = NoiseParams(230.0, ratio, 1.0 / 144.0)
            assert noise_cavity_per_fsr(varied, 77.0) / ratio == pytest.approx(
                noise_cavity_per_fsr(NOISE, 77.0) / 0.7, rel=1e-14
            )

    def test_nocavity_linear(self):
        assert noise_nocavity(230.0, 50.0, 5.2, 5.2) == pytest.approx(230.0 * 50.0)
        assert noise_nocavity(230.0, 0.0, 3.79, 5.2) == 0.0
        assert noise_nocavity(230.0, 100.0, 3.79, 5.2) == pytest.approx(
            230.0 * 100.0 * 3.79 / 5.2, rel=1e-14
        )
        # doubling power or bandwidth doubles the rate exactly
        base = noise_nocavity(230.0, 30.0, 1.3, 5.2)
        assert noise_nocavity(230.0, 60.0, 1.3, 5.2) == pytest.approx(2 * base, rel=1e-14)
        assert noise_nocavity(230.0, 30.0, 2.6, 5.2) == pytest.approx(2 * base, rel=1e-14)
        with pytest.raises(ValueError):
            noise_nocavity(230.0, 10.0, 6.0, 5.2)

    def test_half_noise_check(self):
        no_upconversion = NoiseParams(230.0, 0.7, 0.0)
        assert half_noise_check(no_upconversion, 10.0) == pytest.approx(0.5, rel=1e-14)
        assert half_noise_check(NOISE, 0.0) == 0.5
        assert half_noise_check(NOISE, 0.01 * 144.0) == pytest.approx(0.5 / 1.01, rel=1e-12)
        assert half_noise_check(NOISE, 144.0) == pytest.approx(0.25, rel=1e-12)

    def test_beta_tilde_from(self):
        assert beta_tilde_from(4 * np.pi, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta_tilde_from(74.0, 230.0, 5.2) == pytest.approx(
            74.0 * 230.0 / (4 * np.pi * 5.2), rel=1e-14
        )
        assert beta_tilde_from(74.0, 230.0, 5.2) == pytest.approx(260.46, abs=0.01)


class TestComb:
    def test_peak_spacing_is_fsr(self):
        spectrum = comb_spectrum(CAV, NOISE, 100.0, span_GHz=26.0, samples=26001)
        dens = spectrum.density
        interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
        peaks = spectrum.frequencies_GHz[1:-1][interior]
        spacings = np.diff(peaks)
        assert np.allclose(spacings, 5.2, atol=0.01)

    def test_cold_tooth_width(self):
        cold = comb_spectrum(CAV, NOISE, 1e-9, span_GHz=5.2, samples=200001)
        dens, freqs = cold.density, cold.frequencies_GHz
        half = dens.max() / 2.0
        above = freqs[dens >= half]
        # FWHM of the central tooth ~ cold linewidth (70.4 MHz)
        assert above[-1] - above[0] == pytest.approx(70.4e-3, rel=2e-3)
        assert cold.fwhm_GHz == pytest.approx(70.4e-3, rel=1e-9)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("power", [1.0, 50.0, 144.0, 400.0])
    def test_pumped_tooth_width_is_the_power_broadened_fwhm(self, preset, power):
        cav, noise = PRESETS[preset].cavity, PRESETS[preset].noise()
        spectrum = comb_spectrum(cav, noise, power, span_GHz=12.0, samples=400)
        expected = power_broadened_fwhm(cav, PumpDrive(power, noise.alpha_tilde_per_mW))
        assert spectrum.fwhm_GHz * 1e3 == pytest.approx(expected, rel=1e-12)

    def test_per_fsr_integral_matches_closed_form(self):
        density = comb_density(CAV, NOISE, 100.0)
        total, _ = quad(density, -2.6, 2.6, limit=400)
        assert total == pytest.approx(noise_cavity_per_fsr(NOISE, 100.0), rel=1e-3)

    def test_integral_independent_of_window_placement(self):
        density = comb_density(CAV, NOISE, 60.0)
        expected = noise_cavity_per_fsr(NOISE, 60.0)
        rng = np.random.default_rng(5)
        for start in rng.uniform(-8.0, 8.0, 4):
            total, _ = quad(density, start, start + 5.2, limit=600)
            assert total == pytest.approx(expected, rel=1e-3)

    def test_band_rate_matches_quadrature(self):
        density = comb_density(CAV, NOISE, 100.0)
        numeric, _ = quad(density, -1.895, 1.895, limit=400)
        exact = comb_rate_in_band(CAV, NOISE, 100.0, -1.895, 1.895)
        assert exact == pytest.approx(numeric, rel=1e-8)

    def test_band_rate_on_arrays_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        lo = rng.uniform(-12.0, 12.0, 2000)
        hi = lo + rng.uniform(0.0, 6.0, 2000)
        power = rng.uniform(0.0, 400.0, 2000)
        loop = [comb_rate_in_band(CAV, NOISE, p, a, b) for p, a, b in zip(power, lo, hi)]
        assert np.array_equal(comb_rate_in_band(CAV, NOISE, power, lo, hi), loop)
        # a scalar power broadcasts over array band edges
        loop = [comb_rate_in_band(CAV, NOISE, 100.0, a, b) for a, b in zip(lo, hi)]
        assert np.array_equal(comb_rate_in_band(CAV, NOISE, 100.0, lo, hi), loop)
        assert type(comb_rate_in_band(CAV, NOISE, 100.0, -1.0, 1.0)) is float

    @pytest.mark.parametrize(
        "power, lo, hi",
        [
            (100.0, 1.0, 0.5),
            (100.0, np.array([0.0, 2.0, 3.0]), np.array([1.0, 1.9, 4.0])),
            (np.array([100.0, -1.0]), 0.0, 1.0),
        ],
    )
    def test_band_rate_rejects_inverted_band_or_negative_power(self, power, lo, hi):
        with pytest.raises(ValueError):
            comb_rate_in_band(CAV, NOISE, power, lo, hi)

    def test_density_must_match_the_grid(self):
        with pytest.raises(ValueError, match="^grid and density must have equal length$"):
            CombSpectrum(np.linspace(0.0, 10.0, 5), np.ones(4), 0.1)

    def test_undersampled_grid_rejected(self):
        with pytest.raises(ValueError):
            comb_spectrum(CAV, NOISE, 100.0, span_GHz=26.0, samples=40)


def tooth_sum_suppression(F, fsr, bpf, teeth=4000):
    """Independent oracle: sum per-tooth Lorentzian masses inside the window."""
    hwhm = fsr / F / 2.0
    lo, hi = fsr / 2.0 - bpf / 2.0, fsr / 2.0 + bpf / 2.0
    centers = np.arange(-teeth, teeth + 1) * fsr
    mass = (np.arctan((hi - centers) / hwhm) - np.arctan((lo - centers) / hwhm)) / np.pi
    return (bpf / fsr) / mass.sum()


def cdf_difference_suppression(F, fsr, bpf):
    """The wrapped-Lorentzian CDF at both window edges, accurate for F <= 1e3."""
    rho = 1.0 / np.tanh(np.pi / (2.0 * F))
    w = bpf / (2.0 * fsr)

    def cdf(u):
        k = np.round(u)
        return k + np.arctan(rho * np.tan(np.pi * (u - k))) / np.pi

    return (bpf / fsr) / (cdf(0.5 + w) - cdf(0.5 - w))


class TestAntiResonantSuppression:
    def test_against_tooth_sum_oracle(self):
        for args in [(45.0, 5.0, 3.57), (45.0, 5.0, 3.79), (10.0, 5.2, 2.0), (151.0, 5.2, 3.88)]:
            assert spdc_antiresonant_suppression(*args) == pytest.approx(
                tooth_sum_suppression(*args), rel=5e-3
            )

    def test_design_point_exceeds_tenfold(self):
        factor = spdc_antiresonant_suppression(45.0, 5.0, 3.57)
        assert factor > 10.0
        # value frozen from the tooth-sum / quadrature oracles
        assert factor == pytest.approx(15.52, abs=0.02)

    def test_monotone_in_finesse(self):
        values = [spdc_antiresonant_suppression(F, 5.0, 3.57) for F in (5, 15, 45, 135, 405)]
        assert np.all(np.diff(values) > 0)

    def test_wide_window_reduces_suppression(self):
        narrow = spdc_antiresonant_suppression(45.0, 5.0, 0.7 * 5.0)
        wide = spdc_antiresonant_suppression(45.0, 5.0, 0.999 * 5.0)
        assert wide < narrow

    def test_peaked_comb_beats_flat(self):
        assert spdc_antiresonant_suppression(np.pi * 1.01, 5.0, 3.0) > 1.0

    def test_matches_cdf_difference_at_moderate_finesse(self):
        for F in (1.0, 3.0, 45.0, 151.0, 1e3):
            for ratio in (0.001, 0.1, 0.714, 0.99):
                assert spdc_antiresonant_suppression(F, 5.0, ratio * 5.0) == pytest.approx(
                    cdf_difference_suppression(F, 5.0, ratio * 5.0), rel=1e-9
                )

    @given(F=st.floats(1.0, 1e3), ratio=st.floats(0.001, 0.99))
    def test_property_matches_cdf_difference(self, F, ratio):
        assert spdc_antiresonant_suppression(F, 5.0, ratio * 5.0) == pytest.approx(
            cdf_difference_suppression(F, 5.0, ratio * 5.0), rel=1e-9
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            spdc_antiresonant_suppression(45.0, 5.0, 5.0)
        with pytest.raises(ValueError):
            spdc_antiresonant_suppression(45.0, 5.0, 6.0)
        with pytest.raises(ValueError):
            spdc_antiresonant_suppression(0.5, 5.0, 3.0)


class TestNormalizedCoefficient:
    def test_values(self):
        assert normalized_noise_coefficient(230.0, 13.26, 3.79, 0.08, 1.0) == pytest.approx(
            230.0 / (13.26 * 3.79 * 0.08), rel=1e-14
        )
        assert normalized_noise_coefficient(230.0, 13.26, 3.79, 0.08) == pytest.approx(
            57.21, abs=0.01
        )
        assert normalized_noise_coefficient(970.0, 45.0, 12.6, 0.09) == pytest.approx(
            19.01, abs=0.01
        )
        assert normalized_noise_coefficient(85.0, 13.26, 3.88, 0.08, 0.7) == pytest.approx(
            29.50, abs=0.01
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            normalized_noise_coefficient(230.0, 0.0, 3.79, 0.08)


class TestNoiseParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(-1.0, 0.7, 1.0 / 144.0)
        with pytest.raises(ValueError):
            NoiseParams(230.0, 1.3, 1.0 / 144.0)
        with pytest.raises(ValueError):
            NoiseParams(230.0, 0.7, -0.1)

    def test_from_cavity_consistency(self):
        built = NoiseParams.from_cavity(CAV, 230.0, 1.0 / 144.0)
        assert built == NoiseParams(230.0, CAV.gamma_r_ratio, 1.0 / 144.0)
        # the comb coupling the density uses is the one beta_tilde_from gives the cavity
        expected = beta_tilde_from(CAV.finesse, 230.0, CAV.fsr_MHz * 1e-3)
        peak = as_spectral_density(built, 1.0, 0.0, CAV.gamma_all_MHz)
        assert peak == pytest.approx(4 * CAV.gamma_r_ratio * expected / (1 + 1.0 / 144.0) ** 2,
                                     rel=1e-15)

    def test_has_three_fields(self):
        names = [f.name for f in fields(NoiseParams)]
        assert names == ["alpha_noise_cps_per_mW", "gamma_r_ratio", "alpha_tilde_per_mW"]


@given(
    hwhm_ratio=st.floats(1e-4, 10.0),
    u=arrays(float, st.integers(2, 200), elements=st.floats(-50.0, 50.0)),
)
def test_wrapped_comb_cdf_is_monotone_with_unit_mass_per_period(hwhm_ratio, u):
    u = np.sort(u)
    cdf = _wrapped_lorentzian_cdf(u, hwhm_ratio)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert np.allclose(_wrapped_lorentzian_cdf(u + 1.0, hwhm_ratio) - cdf, 1.0,
                       rtol=0.0, atol=1e-9)
