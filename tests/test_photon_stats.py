"""Tests for the correlation chain and the Monte Carlo simulator."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.stats import chi2

from cavityqfc import (
    CavityParams,
    CoincidenceHistogram,
    G2Record,
    PumpDrive,
    SourceModel,
    broadband_conversion_efficiency,
    expected_histogram,
    flat_top_spectrum,
    g2_from_histogram,
    g2_out,
    gaussian_spectrum,
    lorentzian_spectrum,
    noise_rate_for_intensity_ratio,
    peak_efficiency,
    predict_nocavity_g2,
    sample_response,
    simulate_coincidences,
    thermal_source_g2,
    zeta_from_g2,
)
from cavityqfc.errors import CoverageError
from cavityqfc.photon_stats import _click_probabilities


class TestMixingFormula:
    def test_limits(self):
        assert g2_out(3.819, np.inf) == pytest.approx(3.819)
        assert g2_out(3.819, 0.0) == pytest.approx(1.0)

    def test_measured_chain_values(self):
        assert g2_out(3.819, 2.1) == pytest.approx(2.9096, abs=1e-4)
        assert zeta_from_g2(3.819, 2.94) == pytest.approx(2.2071, abs=1e-4)
        assert predict_nocavity_g2(3.819, 2.1, 18.0) == pytest.approx(1.2945, abs=1e-4)

    def test_monotone_and_bounded(self):
        zetas = np.linspace(0.0, 50.0, 200)
        values = [g2_out(3.819, z) for z in zetas]
        assert np.all(np.diff(values) > 0)
        assert np.all((np.asarray(values) >= 1.0) & (np.asarray(values) <= 3.819))

    def test_midpoint_intensity_ratio(self):
        g2_in = 3.819
        assert zeta_from_g2(g2_in, (g2_in + 1) / 2) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            g2_in = rng.uniform(1.01, 10.0)
            zeta = rng.uniform(1e-3, 1e3)
            away = g2_out(g2_in, zeta)
            assert zeta_from_g2(g2_in, away) == pytest.approx(zeta, rel=1e-9)
            assert g2_out(g2_in, zeta_from_g2(g2_in, away)) == pytest.approx(away, rel=1e-12)

    def test_classical_threshold(self):
        g2_in = 3.819
        boundary = 1.0 / (g2_in - 2.0)
        for zeta in (0.1, 0.5, boundary * 0.999):
            assert g2_out(g2_in, zeta) < 2.0
        for zeta in (boundary * 1.001, 2.0, 50.0):
            assert g2_out(g2_in, zeta) > 2.0
        assert g2_out(g2_in, boundary) == pytest.approx(2.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            zeta_from_g2(3.819, 3.9)
        with pytest.raises(ValueError):
            zeta_from_g2(3.819, 1.0)
        with pytest.raises(ValueError):
            g2_out(0.5, 1.0)
        with pytest.raises(ValueError):
            predict_nocavity_g2(3.819, 2.1, 0.5)

    def test_enhancement_limits(self):
        assert predict_nocavity_g2(3.819, 2.1, 1.0) == pytest.approx(g2_out(3.819, 2.1))
        assert predict_nocavity_g2(3.819, 2.1, 1e12) == pytest.approx(1.0, abs=1e-9)


def brute_force_g2(mu, eta_h, eta_s, nu=0.0, n_terms=400):
    """Oracle: direct sum over the thermal pair-number distribution."""
    n = np.arange(n_terms)
    pn = mu**n / (1.0 + mu) ** (n + 1)
    p_h = 1.0 - (1.0 - eta_h) ** n
    p_s = 1.0 - (1.0 - eta_s) ** n * np.exp(-nu)
    return float((pn * p_h * p_s).sum() / ((pn * p_h).sum() * (pn * p_s).sum()))


class TestThermalSourceG2:
    def test_matches_brute_force(self):
        for mu, eta in [(0.55, 0.1), (0.3, 0.05), (1.0, 0.02)]:
            assert thermal_source_g2(mu, eta, eta) == pytest.approx(
                brute_force_g2(mu, eta, eta), rel=1e-12
            )
        assert thermal_source_g2(0.55, 0.1, 0.05, 0.01) == pytest.approx(
            brute_force_g2(0.55, 0.1, 0.05, 0.01), rel=1e-12
        )

    def test_low_efficiency_limit(self):
        assert thermal_source_g2(0.55, 1e-7, 1e-7) == pytest.approx(2 + 1 / 0.55, rel=1e-6)

    def test_finite_efficiency_value(self):
        # finite-efficiency correction pulls the correlation below 2 + 1/mu
        assert thermal_source_g2(0.55, 0.1, 0.1) == pytest.approx(3.5515, abs=1e-4)
        assert thermal_source_g2(0.55, 0.1, 0.1) < 2 + 1 / 0.55

    def test_intensity_ratio_helper(self):
        mu, eta, zeta = 0.55, 0.05, 2.1
        nu = noise_rate_for_intensity_ratio(mu, eta, zeta)
        signal_rate = mu * eta / (1 + mu * eta)
        assert (1 - np.exp(-nu)) * zeta == pytest.approx(signal_rate, rel=1e-12)
        assert type(nu) is float
        with pytest.raises(ValueError):
            noise_rate_for_intensity_ratio(1e6, 1.0, 1e-9)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.55, 0.05, 0.0), "zeta"),
            ((0.55, 1.5, 2.1), r"^eta_signal must lie in \[0, 1\], got 1.5"),
            ((-1.0, 0.05, 2.1), "^mu must be positive and finite, got -1.0"),
            # no noise rate gives a signal arm that never clicks any zeta
            ((0.55, 0.0, 2.1), "no noise rate gives zeta=2.1"),
            ((0.55, 0.0, 1e-9), "no noise rate gives zeta=1e-09"),
            ((1e-300, 1e-300, 2.1), "no noise rate gives zeta=2.1"),  # mu*eta underflows
        ],
    )
    def test_intensity_ratio_helper_rejects_bad_input(self, args, message):
        with pytest.raises(ValueError, match=message):
            noise_rate_for_intensity_ratio(*args)

    # 50-digit references; a joint probability taken as the difference of
    # near-equal terms loses up to about 1e-10 relative at these points
    @pytest.mark.parametrize(
        "params, p11, g2",
        [
            ((1e-4, 1e-4, 1e-4, 1e-6), 1.0101989546955432e-12, 100.01974999981244),
            ((1e-4, 1e-4, 1e-4, 0.0), 1.0001999599950013e-12, 10001.999799990005),
        ],
    )
    def test_full_precision_at_low_efficiency(self, params, p11, g2):
        assert _click_probabilities(SourceModel(*params))[3] == pytest.approx(p11, rel=1e-14, abs=0)
        assert thermal_source_g2(*params) == pytest.approx(g2, rel=1e-14, abs=0)

    def test_noise_alone_in_the_signal_arm_is_uncorrelated(self):
        value = thermal_source_g2(0.55, 0.1, 0.0, 0.01)
        assert type(value) is float
        assert value == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.55, 1.5, 0.1), r"^eta_herald must lie in \[0, 1\], got 1.5"),
            ((0.55, np.nan, 0.1), r"^eta_herald must lie in \[0, 1\], got nan"),
            ((0.55, 0.1, 0.1, np.inf), "noise_rate_per_bin must be finite"),
            ((0.0, 0.1, 0.1), "^mu must be positive and finite, got 0.0"),
            ((0.55, 0.0, 0.1), "g2 is undefined"),
            ((0.55, 0.1, 0.0), "g2 is undefined"),
            # both arms click, but too rarely for p11 to be a normal float
            ((1e-5, 1e-160, 1e-160), "p11 underflows"),
        ],
    )
    def test_rejects_what_the_model_rejects_and_a_blind_arm(self, args, message):
        with pytest.raises(ValueError, match=message):
            thermal_source_g2(*args)


class TestBroadbandEfficiency:
    def setup_method(self):
        self.cav = CavityParams(5200.0, 70.4, 0.7)
        self.drive = PumpDrive(140.0, 1.0 / 144.0)
        grid = np.linspace(-12000.0, 12000.0, 48001)
        self.response = sample_response(self.cav, self.drive, grid)
        self.peak = peak_efficiency(self.drive, 0.7)

    def test_narrowband_limit_recovers_peak(self):
        narrow = flat_top_spectrum(1e-3, samples=101)  # 1 MHz wide
        value = broadband_conversion_efficiency(narrow, self.response)
        assert value == pytest.approx(self.peak, rel=1e-4)

    def test_flat_top_reference_value(self):
        spectrum = flat_top_spectrum(3.8, samples=6001)
        value = broadband_conversion_efficiency(spectrum, self.response)
        # analytic oracle: eta_pk * q * gamma * atan over the window / width
        x = 140.0 / 144.0
        q = (1.0 + x) / 2.0
        oracle = (
            0.7 * x * (70.4e-3 / q) * 2.0 * np.arctan((1.9 / 70.4e-3) / q) / 3.8
        )
        assert value == pytest.approx(oracle, rel=1e-3)
        assert value == pytest.approx(0.0392, abs=2e-4)

    def test_matched_lorentzian_gives_half_peak(self):
        fwhm = 70.4 * (1 + 140.0 / 144.0) * 1e-3  # GHz, matches the response
        spectrum = lorentzian_spectrum(fwhm, span_GHz=150 * fwhm, samples=120001)
        value = broadband_conversion_efficiency(spectrum, self.response)
        assert value == pytest.approx(self.peak / 2.0, rel=1e-2)

    def test_never_exceeds_peak(self):
        for spectrum in (
            flat_top_spectrum(2.0),
            lorentzian_spectrum(1.0, 20.0),
            gaussian_spectrum(3.0, 18.0),
        ):
            value = broadband_conversion_efficiency(spectrum, self.response)
            assert value <= self.peak + 1e-12

    def test_coverage_error(self):
        small = sample_response(self.cav, self.drive, np.linspace(-500.0, 500.0, 501))
        with pytest.raises(CoverageError):
            broadband_conversion_efficiency(flat_top_spectrum(3.8), small)

    def test_spectrum_must_be_in_GHz(self):
        spectrum = flat_top_spectrum(3.8)
        in_ns = type(spectrum)(spectrum.abscissa, spectrum.values, unit="ns")
        with pytest.raises(ValueError, match="^photon spectrum abscissa must be tagged GHz$"):
            broadband_conversion_efficiency(in_ns, self.response)

    def test_normalization_required(self):
        spectrum = flat_top_spectrum(3.8)
        bad = type(spectrum)(spectrum.abscissa, spectrum.values * 2.0, unit="GHz")
        with pytest.raises(ValueError):
            broadband_conversion_efficiency(bad, self.response)


class TestSimulator:
    def test_matches_exact_thermal_statistics(self):
        model = SourceModel(0.55, 0.1, 0.1, bins=2_000_000, seed=314)
        histogram = simulate_coincidences(model)
        record = g2_from_histogram(histogram, histogram.resolution_ns)
        expected = thermal_source_g2(0.55, 0.1, 0.1)
        assert abs(record.g2 - expected) < 3 * record.stderr

    def test_noise_admixture_matches_mixing_formula(self):
        mu, eta, zeta = 0.55, 0.1, 2.1
        pure = SourceModel(mu, eta, eta, bins=2_000_000, seed=11)
        rec_pure = g2_from_histogram(simulate_coincidences(pure), 0.8)
        nu = noise_rate_for_intensity_ratio(mu, eta, zeta)
        mixed = SourceModel(mu, eta, eta, nu, bins=2_000_000, seed=12)
        rec_mixed = g2_from_histogram(simulate_coincidences(mixed), 0.8)
        predicted = g2_out(rec_pure.g2, zeta)
        sigma = np.hypot(rec_mixed.stderr, rec_pure.stderr * zeta / (zeta + 1))
        assert abs(rec_mixed.g2 - predicted) < 3 * sigma

    def test_noise_dominated_limit(self):
        # weak source, signal arm dominated by uncorrelated noise: g2 -> 1
        model = SourceModel(0.01, 0.5, 0.002, noise_rate_per_bin=0.1, bins=1_000_000, seed=5)
        assert thermal_source_g2(0.01, 0.5, 0.002, 0.1) == pytest.approx(1.0, abs=0.02)
        record = g2_from_histogram(simulate_coincidences(model), 0.8)
        assert abs(record.g2 - 1.0) < 3 * record.stderr

    def test_seed_determinism(self):
        model = SourceModel(0.55, 0.1, 0.1, bins=100_000, seed=77)
        first = simulate_coincidences(model)
        second = simulate_coincidences(model)
        assert np.array_equal(first.counts, second.counts)
        other = simulate_coincidences(SourceModel(0.55, 0.1, 0.1, bins=100_000, seed=78))
        assert not np.array_equal(first.counts, other.counts)

    def test_pinned_seed_realization(self):
        # a change of random stream or of draw order changes these counts
        model = SourceModel(0.55, 0.1, 0.1, 0.01, bins=200_000, seed=7)
        expected = [
            621, 621, 634, 621, 641, 639, 650, 633, 661, 627, 636, 610,
            636, 655, 576, 647, 668, 622, 661, 603, 650, 613, 663, 632,
            614, 608, 611, 616, 606, 623, 1996, 599, 647, 645, 632, 642,
            605, 631, 629, 676, 632, 623, 607, 667, 641, 672, 618, 640,
            630, 612, 645, 584, 586, 660, 610, 610, 605, 635, 644, 629,
            663,
        ]
        assert simulate_coincidences(model).counts.tolist() == expected

    def test_low_statistics_reads_the_delay_zero_count(self):
        # a few bins may hold many coincidences, and many bins only a few
        few_bins = simulate_coincidences(SourceModel(0.55, 0.5, 0.5, bins=5_000, seed=1))
        assert few_bins.counts[30] >= 10 and not few_bins.low_statistics
        sparse = SourceModel(0.01, 0.5, 0.002, 0.001, bins=300_000, seed=1)  # 4.5 expected
        many_bins = simulate_coincidences(sparse)
        assert many_bins.counts[30] < 10 and many_bins.low_statistics

    def test_peak_sits_at_zero_delay(self):
        model = SourceModel(0.55, 0.3, 0.3, bins=500_000, seed=9)
        histogram = simulate_coincidences(model)
        assert histogram.delay_bins_ns[np.argmax(histogram.counts)] == 0.0
        assert histogram.accidental_level > 0

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"resolution_ns": 0.0}, "resolution_ns"),
            ({"resolution_ns": -0.8}, "resolution_ns"),
            ({"resolution_ns": np.nan}, "resolution_ns"),
            ({"resolution_ns": np.inf}, "resolution_ns"),
            ({"delay_span_bins": 2.7}, "delay_span_bins"),
            ({"delay_span_bins": 0}, "delay_span_bins"),
            # no pair lies 1000 bins apart in 1000 bins; 10^12 would not fit in memory
            ({"delay_span_bins": 1_001}, "delay_span_bins must not exceed model.bins"),
            ({"delay_span_bins": 10**12}, "delay_span_bins must not exceed model.bins"),
            # a bool is an int: True ran with k = 1 and returned resolution_ns=True
            ({"delay_span_bins": True}, "delay_span_bins"),
            ({"resolution_ns": True}, "resolution_ns"),
        ],
    )
    def test_arguments_checked_before_sampling(self, monkeypatch, kwargs, message):
        from cavityqfc import photon_stats

        def no_sampling(model):
            raise AssertionError("sampled before the arguments were checked")

        monkeypatch.setattr(photon_stats, "_click_chunks", no_sampling)
        with pytest.raises(ValueError, match=message):
            simulate_coincidences(SourceModel(0.55, 0.1, 0.1, bins=1_000, seed=1), **kwargs)

    def test_span_as_wide_as_the_run(self):
        histogram = simulate_coincidences(SourceModel(0.55, 0.5, 0.5, bins=40, seed=1),
                                          delay_span_bins=40)
        assert histogram.counts.shape == (81,)
        assert histogram.counts[0] == histogram.counts[-1] == 0

    def test_model_validation(self):
        with pytest.raises(ValueError):
            SourceModel(0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            SourceModel(0.55, 1.2, 0.1)
        with pytest.raises(ValueError):
            SourceModel(0.55, 0.1, 0.1, noise_rate_per_bin=-1.0)
        with pytest.raises(ValueError):
            SourceModel(0.55, 0.1, 0.1, bins=0)

    # past 2**44 the sampler's int64 cumsum and the pair codes could wrap
    @pytest.mark.parametrize("bins", [2.5, True, 10**7 + 0.5, 1e7, np.float64(100.0), -3,
                                      2**44 + 1, 2**62, 10**20])
    def test_bins_must_be_a_positive_integer(self, bins):
        # the run would truncate a fractional or boolean bin count, so it is refused
        with pytest.raises(ValueError, match="bins"):
            SourceModel(0.55, 0.1, 0.1, bins=bins)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # rejected at construction, not later inside the random stream's seeding
        with pytest.raises(ValueError, match="seed"):
            SourceModel(0.55, 0.1, 0.1, bins=1_000, seed=seed)

    def test_numpy_integers_are_accepted(self):
        model = SourceModel(0.55, 0.1, 0.1, bins=np.int64(1_000), seed=np.uint32(2**32 - 1))
        assert simulate_coincidences(model, delay_span_bins=5).counts.shape == (11,)


class TestExpectedHistogram:
    def test_saturated_model_expects_every_pair(self):
        # every bin clicks in both arms but for about 1e-12 per bin
        bins = 1_003
        model = SourceModel(1e12, 1.0, 1.0, noise_rate_per_bin=50.0, bins=bins, seed=4)
        expected = expected_histogram(model, 5)
        assert expected.dtype == float
        np.testing.assert_allclose(expected, bins - np.abs(np.arange(-5, 6)), rtol=1e-11, atol=0)

    def test_peak_over_accidentals_is_thermal_source_g2(self):
        bins = 1_000_000
        expected = expected_histogram(SourceModel(0.55, 0.1, 0.05, 0.01, bins=bins), 3)
        ratio = expected[3] / expected[4] * (bins - 1) / bins
        assert ratio == pytest.approx(thermal_source_g2(0.55, 0.1, 0.05, 0.01), rel=1e-14)
        assert expected[2] == expected[4]

    @pytest.mark.parametrize(
        "params, bins",
        [((0.55, 0.1, 0.1, 0.01), 1_000_000), ((0.01, 0.5, 0.002, 0.001), 10_000_000)],
        ids=["dense", "sparse"],
    )
    def test_mean_over_seeds(self, params, bins):
        # each delay's count is close to Poisson, so the summed counts of 40
        # seeds give a chi-square near one per delay; single delays reach
        # |z| = 3.6, so no delay is bounded on its own
        seeds = range(1, 41)
        total = sum(
            simulate_coincidences(SourceModel(*params, bins=bins, seed=seed)).counts
            for seed in seeds
        )
        expected = len(seeds) * expected_histogram(SourceModel(*params, bins=bins), 30)
        chi_square = float(((total - expected) ** 2 / expected).sum())
        assert chi2.sf(chi_square, expected.size) > 1e-3, chi_square / expected.size

    @pytest.mark.parametrize(
        "span, message",
        [
            (0, "at least 1"),
            (2.7, "at least 1"),
            (True, "at least 1"),
            (1_001, "must not exceed model.bins"),
        ],
    )
    def test_span_checked_as_the_simulator_checks_it(self, span, message):
        model = SourceModel(0.55, 0.1, 0.1, bins=1_000, seed=1)
        for run in (expected_histogram, simulate_coincidences):
            with pytest.raises(ValueError, match=message):
                run(model, span)


class TestRecordsHoldFiniteValues:
    G2 = {"g2": 3.5, "stderr": 0.1}

    @pytest.mark.parametrize("field", sorted(G2))
    def test_g2_record(self, field):
        with pytest.raises(ValueError, match=field):
            G2Record(**{**self.G2, field: -1.0})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("counts", -1.0),
            ("herald_clicks", -1.0),
            ("signal_clicks", -1.0),
            ("counts", 2.0**53 + 2),
            ("herald_clicks", 2**53 + 1),
            ("herald_clicks", 2.0**53 + 2),
            ("signal_clicks", 2**53 + 1),
            ("bins", 0.0),
            ("bins", 2**53 + 1),
            ("resolution_ns", 0.0),
            ("resolution_ns", -0.8),
        ],
    )
    def test_coincidence_histogram(self, field, value):
        kwargs = self.histogram_fields()
        if np.ndim(kwargs[field]):
            kwargs[field][1] = value
        else:
            kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            CoincidenceHistogram(**kwargs)

    @staticmethod
    def histogram_fields():
        return {
            "counts": np.array([10.0, 10.0, 30.0, 10.0, 10.0]),
            "herald_clicks": 1000.0,
            "signal_clicks": 1000.0,
            "bins": 100_000.0,
            "resolution_ns": 0.8,
        }

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"counts": np.full(4, 10.0)}, "^counts must cover delays \\[-k, \\+k\\]"),
            ({"counts": 10.0}, "^counts must cover delays"),
            ({"herald_clicks": 29.0}, "^the delay-0 count and the singles do not fit"),
            ({"bins": 1_969.0}, "^the delay-0 count and the singles do not fit"),
        ],
        ids=["even_length", "scalar", "over_an_arm", "over_bins"],
    )
    def test_coincidence_histogram_counts_fit_the_run(self, changes, message):
        fields = self.histogram_fields()  # n11 = 30 and H = S = 1000
        CoincidenceHistogram(**{**fields, "herald_clicks": 30.0})  # the bounds hold: n11 = H
        CoincidenceHistogram(**{**fields, "bins": 1_970.0})  # and H + S - n11 = N
        with pytest.raises(ValueError, match=message):
            CoincidenceHistogram(**{**fields, **changes})

    # the floats built a histogram whose level read inf, so g2 read 0.0 +- 0.0; the
    # integers raised a bare OverflowError; the count rule rejects the counts first
    @pytest.mark.parametrize(
        "singles, bins",
        [(1e200, 1e200), (np.float64(1e200), np.float64(1e200)), (10**400, 10**400)],
        ids=["float", "numpy_float", "integer_quotient"],
    )
    def test_accidental_level_must_be_finite(self, singles, bins):
        with pytest.raises(ValueError, match=r"^counts must lie in \[0, 2\*\*53\]$"):
            CoincidenceHistogram(np.array([0.0, 1e200, 0.0]), singles, singles, bins, 0.8)

    # past 2**53 the integer singles raised a bare OverflowError, and the float counts
    # built a histogram whose window sum leaves the float range in g2_from_histogram
    @pytest.mark.parametrize(
        "fields, name",
        [
            ((np.array([0, 1, 0]), 2**64, 2**64, 2**66, 0.8), "herald_clicks"),
            ((np.array([0.0, 1.0, 0.0]), 10**400, 1, 10**400, 0.8), "herald_clicks"),
            ((np.array([0.0, 0.0, 1.0, 1e308, 1e308]), 10.0, 10.0, 100.0, 0.8), "counts"),
            ((np.array([2**53 + 1, 0, 0]), 1, 1, 1, 0.8), "counts"),
        ],
        ids=["integer_singles", "integer_singles_past_the_float_range", "float_counts",
             "integer_counts"],
    )
    def test_counts_past_2_53_are_rejected_by_name(self, fields, name):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 2\*\*53\]"):
            CoincidenceHistogram(*fields)


class TestG2FromHistogram:
    @staticmethod
    def histogram(counts, resolution=0.8):
        counts = np.asarray(counts, dtype=np.int64)
        bins = 10.0**8
        # the off-delay mean as the level
        singles = np.sqrt(np.delete(counts, len(counts) // 2).mean() * bins)
        return CoincidenceHistogram(counts, singles, singles, bins, resolution)

    def test_flat_histogram_is_unity(self):
        record = g2_from_histogram(self.histogram([1000] * 41), 0.8)
        assert record.g2 == pytest.approx(1.0, rel=1e-12)
        assert record.stderr > 0
        assert not record.nonclassical

    def test_synthetic_ratio(self):
        counts = [1000] * 20 + [3819] + [1000] * 20
        record = g2_from_histogram(self.histogram(counts), 0.8)
        assert record.g2 == pytest.approx(3.819, rel=1e-12)
        assert record.nonclassical

    def test_window_dilution(self):
        counts = [1000] * 20 + [3819] + [1000] * 20
        narrow = g2_from_histogram(self.histogram(counts), 0.8)
        wide = g2_from_histogram(self.histogram(counts), 1.6)
        wider = g2_from_histogram(self.histogram(counts), 3.2)
        assert narrow.g2 > wide.g2 > wider.g2 > 1.0

    def test_window_must_be_integer_bins(self):
        with pytest.raises(ValueError):
            g2_from_histogram(self.histogram([10] * 41), 1.0)

    @pytest.mark.parametrize("window", [np.inf, -np.inf, np.nan])
    def test_window_must_be_finite(self, window):
        with pytest.raises(ValueError, match="window_ns must be finite"):
            g2_from_histogram(self.histogram([10] * 41), window)

    def test_zero_accidentals(self):
        with pytest.raises(ValueError, match="^zero accidental counts"):
            g2_from_histogram(self.histogram([0] * 41), 0.8)

    def test_an_arm_that_clicks_in_every_bin_gives_no_spread(self):
        # 1/n11 - 1/H - 1/S + (2*g2 - 1)/N is 0 here, and rounds to just below it
        histogram = CoincidenceHistogram(np.array([0, 2, 0]), 2, 7, 7, 0.8)
        record = g2_from_histogram(histogram, 0.8)
        assert (record.g2, record.stderr) == (1.0, 0.0)

    def test_window_opens_at_delay_zero(self):
        # exact g2 1.499; a window searched for the highest total took the 17 counts at
        # +14.4 ns and read 2.684 +- 0.665, nonclassical
        model = SourceModel(0.01, 0.5, 0.002, 0.004, bins=300_000, seed=47)
        histogram = simulate_coincidences(model)
        record = g2_from_histogram(histogram, 0.8)
        k = len(histogram.counts) // 2
        assert record.g2 == histogram.counts[k] / histogram.accidental_level
        assert not record.nonclassical

    @given(k=st.integers(1, 30), data=st.data())
    def test_g2_times_the_window_accidentals_is_the_window_counts(self, k, data):
        bins = data.draw(st.integers(1, 2**53))  # the whole count range
        herald, signal = data.draw(st.integers(1, bins)), data.draw(st.integers(1, bins))
        counts = data.draw(st.lists(st.integers(0, 2**53), min_size=2 * k + 1,
                                    max_size=2 * k + 1))
        # a delay-0 count the singles allow: no more than either arm, and room in the bins
        counts[k] = data.draw(st.integers(max(0, herald + signal - bins), min(herald, signal)))
        histogram = CoincidenceHistogram(np.array(counts), herald, signal, bins, 0.8)
        level = herald * signal / bins
        assert histogram.accidental_level == level
        assert histogram.low_statistics == (counts[k] < 10)
        assert np.array_equal(histogram.delay_bins_ns, np.arange(-k, k + 1) * 0.8)
        for m in range(1, k + 2):
            record = g2_from_histogram(histogram, 0.8 * m)
            assert record.g2 * m * level == pytest.approx(sum(counts[k : k + m]), rel=1e-12)
            assert record.stderr >= 0

    def test_window_past_the_last_delay_is_rejected(self):
        flat = self.histogram([10] * 41)  # delays -16 to +16 ns
        assert g2_from_histogram(flat, 16.8).g2 == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError, match=r"^window_ns=17.6 runs past the last delay: "
                           r"at most 16.8 ns from delay 0$"):
            g2_from_histogram(flat, 17.6)


@given(g2_in=st.floats(1.01, 1e4), zeta=st.floats(1e-6, 1e6))
def test_g2_out_and_zeta_from_g2_are_inverses(g2_in, zeta):
    observed = g2_out(g2_in, zeta)
    assume(1.0 < observed < g2_in)
    assert zeta_from_g2(g2_in, observed) == pytest.approx(zeta, rel=1e-6)
    assert g2_out(g2_in, zeta_from_g2(g2_in, observed)) == pytest.approx(observed, rel=1e-12)
