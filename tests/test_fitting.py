"""Tests for the estimation module: fits, linewidths, periodograms."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares

from cavityqfc import (
    PRESETS,
    CavityParams,
    FitResult,
    NoiseParams,
    PumpDrive,
    ScanSeries,
    bandwidth_nm_to_GHz,
    comb_rate_in_band,
    enhancement_factor,
    extract_fsr,
    extract_fwhm,
    fit_linear,
    fit_saturating_noise,
    periodogram,
    sample_response,
)
from cavityqfc import cli, fitting
from cavityqfc.errors import NoPeriodicity, NumericFailure, SamplingError, ShapeError
from cavityqfc.fitting import _half_crossings, _median


def linear_scan(alpha, gamma_all, pmax=250.0, points=26):
    power = np.linspace(0.0, pmax, points)
    return ScanSeries(power, gamma_all + alpha * power, unit="mW")


def noise_scan(alpha_noise, alpha_tilde, gamma_r, pmax=250.0, points=12):
    power = np.linspace(pmax / points, pmax, points)
    values = gamma_r * alpha_noise * power / (2.0 * (1.0 + alpha_tilde * power))
    return ScanSeries(power, values, unit="mW")


def lorentzian_scan(center, fwhm, amplitude=1.0, offset=0.0, span_factor=6.0, points=241):
    x = center + np.linspace(-span_factor / 2, span_factor / 2, points) * fwhm
    y = offset + amplitude / (1.0 + ((x - center) / (fwhm / 2.0)) ** 2)
    return ScanSeries(x, y, unit="GHz")


class TestLinearFit:
    @pytest.mark.parametrize("alpha,gamma", [(0.49, 70.4), (0.56, 34.4)])
    def test_noiseless_recovery(self, alpha, gamma):
        result = fit_linear(linear_scan(alpha, gamma))
        assert result.parameters["slope"] == pytest.approx(alpha, rel=1e-10)
        assert result.parameters["intercept"] == pytest.approx(gamma, rel=1e-10)
        assert result.converged

    def test_converged_is_a_constant_not_a_field(self):
        result = fit_linear(linear_scan(0.49, 70.4))
        assert [f.name for f in dataclasses.fields(FitResult)] == [
            "parameters", "std_errors", "residual_norm", "iterations"]
        with pytest.raises(TypeError):
            dataclasses.replace(result, converged=False)

    def test_two_points_interpolate(self):
        result = fit_linear(ScanSeries(np.array([0.0, 10.0]), np.array([70.4, 75.3]), unit="mW"))
        assert result.residual_norm == pytest.approx(0.0, abs=1e-18)
        assert result.parameters["slope"] == pytest.approx(0.49, rel=1e-12)

    def test_weighted_fit_uses_sigma(self):
        scan = linear_scan(0.49, 70.4)
        weighted = ScanSeries(scan.abscissa, scan.values, 0.05 * scan.values, unit="mW")
        result = fit_linear(weighted)
        assert result.parameters["slope"] == pytest.approx(0.49, rel=1e-10)
        assert result.std_errors["slope"] > 0

    def test_degenerate_abscissa(self):
        # the series rejects equal abscissa values, so a line fit never sees them
        with pytest.raises(ValueError, match="^abscissa must be strictly increasing$"):
            fit_linear(ScanSeries(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]), unit="mW"))

    def test_one_point_is_rejected(self):
        with pytest.raises(ValueError, match="^need at least 2 points for a line$"):
            fit_linear(ScanSeries(np.array([1.0]), np.array([2.0]), unit="mW"))


class TestSaturatingFit:
    @pytest.mark.parametrize(
        "alpha_noise,alpha_tilde", [(230.0, 1.0 / 144.0), (85.0, 1.0 / 61.0)]
    )
    def test_noiseless_recovery(self, alpha_noise, alpha_tilde):
        result = fit_saturating_noise(noise_scan(alpha_noise, alpha_tilde, 0.7), 0.7)
        assert result.parameters["alpha_noise"] == pytest.approx(alpha_noise, rel=1e-3)
        assert result.parameters["alpha_tilde"] == pytest.approx(alpha_tilde, rel=1e-3)
        assert result.converged
        assert result.iterations <= 200

    def test_linear_limit(self):
        # data with no saturation: slope pins alpha_noise, alpha_tilde ~ 0
        power = np.linspace(5.0, 250.0, 12)
        values = 0.7 * 230.0 * power / 2.0
        result = fit_saturating_noise(ScanSeries(power, values, unit="mW"), 0.7)
        assert result.parameters["alpha_noise"] == pytest.approx(230.0, rel=1e-6)
        alpha_tilde = result.parameters["alpha_tilde"]
        assert alpha_tilde <= max(result.std_errors["alpha_tilde"], 1e-9)

    @pytest.mark.parametrize("alpha_tilde", [1.0, 10.0])
    def test_deep_saturation_recovery(self, alpha_tilde):
        # alpha_tilde*P_max of 250 and 2500 put the saturation share within 4e-3 of 1
        result = fit_saturating_noise(noise_scan(230.0, alpha_tilde, 0.7), 0.7)
        assert result.parameters["alpha_noise"] == pytest.approx(230.0, rel=1e-6)
        assert result.parameters["alpha_tilde"] == pytest.approx(alpha_tilde, rel=1e-6)

    def test_iterations_count_the_search_steps(self):
        # the golden-section bracket on [0, 1) shrinks by 1/phi a step, below 1e-12 in all
        assert fitting._INV_PHI ** fitting._GOLDEN_STEPS < 1e-12
        result = fit_saturating_noise(noise_scan(230.0, 1.0 / 144.0, 0.7), 0.7)
        assert result.iterations == fitting._GOLDEN_STEPS == 58

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fit_saturating_noise(noise_scan(230.0, 1 / 144, 0.7, points=4), 0.7)
        narrow = ScanSeries(
            np.linspace(100.0, 200.0, 8),
            np.linspace(1.0, 2.0, 8),
            unit="mW",
        )
        with pytest.raises(ValueError):
            fit_saturating_noise(narrow, 0.7)
        with pytest.raises(ValueError):
            fit_saturating_noise(noise_scan(230.0, 1 / 144, 0.7), 0.0)

    def test_falling_noise_is_rejected(self):
        power = np.linspace(10.0, 100.0, 8)
        with pytest.raises(ValueError, match="^noise values must rise with power$"):
            fit_saturating_noise(ScanSeries(power, -power, unit="mW"), 0.7)

    def test_noisy_recovery_within_three_sigma(self):
        rng = np.random.default_rng(99)
        hits = 0
        trials = 40
        for _ in range(trials):
            scan = noise_scan(230.0, 1.0 / 144.0, 0.7)
            sigma = 0.05 * scan.values
            noisy = ScanSeries(scan.abscissa, scan.values + rng.normal(0, sigma), sigma, "mW")
            result = fit_saturating_noise(noisy, 0.7)
            ok_a = abs(result.parameters["alpha_noise"] - 230.0) <= 3 * result.std_errors["alpha_noise"]
            ok_b = abs(result.parameters["alpha_tilde"] - 1 / 144) <= 3 * result.std_errors["alpha_tilde"]
            hits += ok_a and ok_b
        assert hits >= 0.9 * trials


# a valid linear scan up to 10^4 mW on which a Levenberg-Marquardt trial step once
# overflowed the model (b = e^700 in the noise law) and `fit model=noise` exited 4
OVERFLOW_SCAN = ScanSeries(
    np.linspace(10000.0 / 7, 10000.0, 7),
    np.array([34888.0, 62933.0, 149697.0, 143068.0, 137039.0, 193268.0, 287341.0]),
    np.array([7143.0, 14286.0, 21429.0, 28571.0, 35714.0, 42857.0, 50000.0]),
    unit="mW",
)


class TestSaturatingFitSolverRule:
    def test_the_scan_fits_to_its_least_squares_minimum_without_a_warning(self):
        # the least-squares minimum that scipy's least squares finds from 15 starts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit_saturating_noise(OVERFLOW_SCAN, 0.5)
        assert result.parameters["alpha_noise"] == pytest.approx(102.0988, abs=1e-4)
        assert result.std_errors["alpha_noise"] == pytest.approx(17.11, abs=0.01)
        assert result.parameters["alpha_tilde"] == pytest.approx(1.777e-6, rel=1e-3)
        assert result.residual_norm == pytest.approx(6.436473, abs=1e-6)

    def test_the_cli_fits_the_scan(self, tmp_path):
        path = tmp_path / "scan.csv"
        columns = [OVERFLOW_SCAN.abscissa, OVERFLOW_SCAN.values, OVERFLOW_SCAN.sigma]
        np.savetxt(path, np.column_stack(columns), delimiter=",",
                   header="power_mW,counts,sigma", comments="")
        argv = ["fit", "--param", "model=noise", "--param", "gamma_r_ratio=0.5",
                "--input", str(path), "--output", str(tmp_path / "out")]
        assert cli.main(argv) == 0

    def test_no_noise_params_are_built(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the fit built a NoiseParams")

        monkeypatch.setattr(NoiseParams, "__post_init__", refuse)
        result = fit_saturating_noise(noise_scan(230.0, 1.0 / 144.0, 0.7), 0.7)
        assert result.parameters["alpha_noise"] == pytest.approx(230.0, rel=1e-3)

    def test_coefficients_out_of_the_float_range_are_a_value_error(self):
        with pytest.raises(ValueError, match=r"^fit_saturating_noise\(.*gamma_r_ratio=5e-324\) "
                           "leaves the float range$"):
            fit_saturating_noise(noise_scan(230.0, 1.0 / 144.0, 0.7), 5e-324)

    def test_a_start_point_without_finite_residuals_is_a_numeric_failure(self):
        def model(theta):
            return np.array([np.nan]), np.ones((1, 1))

        with pytest.raises(NumericFailure, match="start point"):
            fitting._levenberg_marquardt(model, [1.0])

    def test_a_trial_whose_cost_leaves_the_float_range_is_rejected_without_a_warning(self):
        # |r|^2 is least at e^theta = 2; from theta = -5.5 the first damped step lands
        # near theta = 438, where the residuals (1e190) and Jacobian are finite but
        # their squared sum overflows
        def model(theta):
            e = np.exp(theta)
            return np.concatenate([e - 1.0, e - 3.0]), np.vstack([e, e])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, r, _ = fitting._levenberg_marquardt(model, [-5.5])
        assert theta[0] == pytest.approx(np.log(2.0), rel=1e-9)
        assert r @ r == pytest.approx(2.0, rel=1e-12)

    def test_a_cost_that_falls_forever_stops_after_200_trials(self):
        def model(theta):
            return np.exp(-theta), -np.exp(-theta)[:, None]

        with pytest.raises(NumericFailure, match="^Levenberg-Marquardt did not converge in 200 "
                           "trial steps: residual="):
            fitting._levenberg_marquardt(model, [0.0])

    def test_a_singular_normal_matrix_takes_the_pseudo_inverse(self):
        jac = np.ones((3, 2))  # rank 1: np.linalg.inv refuses J^T J
        scan = ScanSeries(np.arange(3.0), np.arange(3.0), np.ones(3))
        assert np.array_equal(fitting._covariance(jac, 0.0, scan), np.linalg.pinv(jac.T @ jac))


class TestExtractFwhm:
    def test_cold_linewidth(self):
        fwhm, err = extract_fwhm(lorentzian_scan(0.0, 70.4, amplitude=0.9, offset=0.05))
        assert fwhm == pytest.approx(70.4, abs=0.5)
        assert err < 0.5

    def test_broadened_linewidth(self):
        target = 70.4 + 0.49 * 140.0
        fwhm, _ = extract_fwhm(lorentzian_scan(0.0, target))
        assert fwhm == pytest.approx(target, rel=0.01)

    def test_scale_and_shift_invariance(self):
        base = lorentzian_scan(0.0, 50.0, amplitude=2.0, offset=0.3)
        ref, _ = extract_fwhm(base)
        scaled, _ = extract_fwhm(ScanSeries(base.abscissa, 7.3 * base.values, unit="GHz"))
        shifted, _ = extract_fwhm(ScanSeries(base.abscissa + 500.0, base.values, unit="GHz"))
        assert scaled == pytest.approx(ref, rel=1e-8)
        assert shifted == pytest.approx(ref, rel=1e-8)

    def test_flat_series_rejected(self):
        x = np.linspace(0, 10, 50)
        with pytest.raises(ShapeError):
            extract_fwhm(ScanSeries(x, np.full_like(x, 3.0), unit="GHz"))

    def test_double_peak_rejected(self):
        x = np.linspace(-10, 10, 201)
        y = 1 / (1 + (x - 4) ** 2) + 1 / (1 + (x + 4) ** 2)
        with pytest.raises(ShapeError):
            extract_fwhm(ScanSeries(x, y, unit="GHz"))

    @pytest.mark.parametrize("seed", range(5))
    def test_noisy_double_peak_rejected(self, seed):
        x = np.linspace(-10, 10, 401)
        y = 1 / (1 + (x - 4) ** 2) + 1 / (1 + (x + 4) ** 2)
        noisy = y + np.random.default_rng(seed).normal(0.0, 0.01, x.size)
        with pytest.raises(ShapeError, match="2 peaks"):
            extract_fwhm(ScanSeries(x, noisy, unit="GHz"))

    def test_underresolved_peak_rejected(self):
        x = np.linspace(-50, 50, 11)
        y = 1 / (1 + (x / 0.5) ** 2)
        with pytest.raises(ShapeError):
            extract_fwhm(ScanSeries(x, y, unit="GHz"))

    @pytest.mark.parametrize("seed", [369, 2609, 6955, 7478, 7571])
    def test_noisy_single_peak_is_not_split(self, seed):
        # 1 % noise on a converted-mode line: these seeds used to cross half
        # maximum twice on one flank and raise "series has 2 peaks"
        rng = np.random.default_rng(seed)
        preset = PRESETS["1540"]
        pump = rng.uniform(30.0, 150.0)
        grid = np.linspace(-600.0, 600.0, 801)
        drive = PumpDrive(pump, preset.alpha_tilde_per_mW)
        efficiency = np.abs(sample_response(preset.cavity, drive, grid).r_rs) ** 2
        sigma = np.full(grid.size, 0.01 * efficiency.max())
        noisy = efficiency + sigma * rng.normal(0.0, 1.0, grid.size)
        fwhm, err = extract_fwhm(ScanSeries(grid, noisy, sigma))
        true_fwhm = preset.cavity.gamma_all_MHz * (1.0 + preset.alpha_tilde_per_mW * pump)
        assert abs(fwhm - true_fwhm) <= 4.0 * err

    @pytest.mark.parametrize("seed", [22, 31, 100])
    def test_fit_wider_than_the_scan_falls_back(self, seed):
        # 12 % noise on a 12-unit line: at these seeds the Lorentzian converged
        # to a width of 20.1-23.5 on this 20-unit scan
        x = np.linspace(-10.0, 10.0, 41)
        noisy = 1.0 / (1.0 + (x / 6.0) ** 2) + np.random.default_rng(seed).normal(0.0, 0.12, x.size)
        fwhm, err = extract_fwhm(ScanSeries(x, noisy))
        assert fwhm <= np.ptp(x)
        assert fwhm == pytest.approx(12.0, rel=0.3)
        assert err == pytest.approx(0.5)

    def test_failed_fit_falls_back_to_the_half_maximum_crossings(self, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericFailure("Levenberg-Marquardt did not converge")

        monkeypatch.setattr(fitting, "_levenberg_marquardt", fail)
        # steps of 5, 1, 0.25, 1 and 5 around a 4-wide line off the grid
        x = np.concatenate([np.linspace(-30.0, -10.0, 5), np.linspace(-5.0, -1.0, 5),
                            np.linspace(-0.75, 1.75, 11), np.linspace(2.0, 6.0, 5),
                            np.linspace(11.0, 31.0, 5)])
        y = 1.0 / (1.0 + ((x - 0.3) / 2.0) ** 2)
        half = y.min() + 0.5 * (y.max() - y.min())
        peak = int(np.argmax(y))
        left = np.interp(half, y[: peak + 1], x[: peak + 1])
        right = np.interp(half, y[peak:][::-1], x[peak:][::-1])
        fwhm, err = extract_fwhm(ScanSeries(x, y))
        assert fwhm == pytest.approx(right - left, rel=1e-12)
        assert err == np.max(np.diff(x)) == 5.0

    def test_a_start_point_out_of_the_float_range_falls_back_without_a_warning(self):
        # (x - center) / hwhm overflows at the far point, so the start point has no
        # finite cost: a NumericFailure, which the half-maximum crossings answer
        x = np.append(np.linspace(-1e-150, 1e-150, 41), 1e300)
        y = np.append(1.0 / (1.0 + (x[:-1] / 2e-151) ** 2), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fwhm, err = extract_fwhm(ScanSeries(x, y))
        assert fwhm == pytest.approx(4e-151, rel=1e-12)
        assert err == 1e300

    def test_fewer_than_8_points_are_rejected(self):
        x = np.linspace(-1.0, 1.0, 7)
        with pytest.raises(ShapeError, match="^need at least 8 points$"):
            extract_fwhm(ScanSeries(x, 1.0 / (1.0 + x * x)))

    def test_peak_at_the_scan_edge_is_rejected(self):
        x = np.linspace(0.0, 10.0, 81)  # only the right half of the line
        with pytest.raises(ShapeError, match="^peak is not resolved within the scan$"):
            extract_fwhm(ScanSeries(x, 1.0 / (1.0 + (x / 2.0) ** 2)))

    def test_half_crossings_interpolate_linearly(self):
        x = np.arange(9.0)
        assert np.array_equal(
            _half_crossings(x, np.array([0, 1, 2, 3, 4, 3, 2, 1, 0.0]), 2.5), [2.5, 5.5]
        )
        assert np.array_equal(
            _half_crossings(x[:5], np.array([0, 2, 0, 4, 0.0]), 1.0), [0.5, 1.5, 2.25, 3.75]
        )
        assert _half_crossings(x, np.ones(9), 2.0).size == 0


class TestUnweightedErrors:
    """Without sigmas the errors equal those of a fit weighted by the residual rms."""

    @staticmethod
    def rms_weighted(scan, residual_norm, n_params):
        rms = np.sqrt(residual_norm / (len(scan) - n_params))
        return ScanSeries(scan.abscissa, scan.values, np.full(len(scan), rms), scan.unit)

    def test_fit_linear(self):
        scan = linear_scan(0.49, 70.4)
        scan = ScanSeries(scan.abscissa, scan.values + np.random.default_rng(1).normal(0, 2, 26),
                          unit="mW")
        bare = fit_linear(scan)
        weighted = fit_linear(self.rms_weighted(scan, bare.residual_norm, 2))
        for name in ("slope", "intercept"):
            assert bare.std_errors[name] == pytest.approx(weighted.std_errors[name], rel=1e-9)

    def test_fit_saturating_noise(self):
        scan = noise_scan(230.0, 1.0 / 144.0, 0.7)
        noisy = scan.values * (1 + np.random.default_rng(2).normal(0, 0.05, len(scan)))
        scan = ScanSeries(scan.abscissa, noisy, unit="mW")
        bare = fit_saturating_noise(scan, 0.7)
        weighted = fit_saturating_noise(self.rms_weighted(scan, bare.residual_norm, 2), 0.7)
        for name in ("alpha_noise", "alpha_tilde"):
            assert bare.std_errors[name] == pytest.approx(weighted.std_errors[name], rel=1e-6)

    def test_extract_fwhm(self):
        scan = lorentzian_scan(0.0, 70.4, amplitude=0.9, offset=0.05)
        noisy = scan.values + np.random.default_rng(3).normal(0, 0.01, len(scan))
        scan = ScanSeries(scan.abscissa, noisy, unit="GHz")
        x = scan.abscissa
        fit = least_squares(
            lambda t: t[3] + t[2] / (1 + ((x - t[0]) / t[1]) ** 2) - noisy,
            [0.0, 35.0, 0.9, 0.05], method="lm", xtol=1e-12, ftol=1e-12,
        )
        fwhm, err = extract_fwhm(scan)
        weighted_fwhm, weighted_err = extract_fwhm(self.rms_weighted(scan, 2 * fit.cost, 4))
        assert fwhm == pytest.approx(2 * abs(fit.x[1]), rel=1e-6)
        assert weighted_fwhm == pytest.approx(fwhm, rel=1e-6)
        assert err == pytest.approx(weighted_err, rel=1e-4)


def reference_fit(residuals, theta0, sigma, jac="3-point", **kwargs):
    """scipy's least squares (finite-difference Jacobian by default) and its errors."""
    fit = least_squares(residuals, theta0, jac=jac, xtol=1e-12, ftol=1e-12, gtol=1e-12,
                        **kwargs)
    cov = np.linalg.inv(fit.jac.T @ fit.jac)
    if sigma is None:
        cov *= 2.0 * fit.cost / (fit.fun.size - fit.x.size)
    return fit.x, np.sqrt(np.diag(cov))


class TestScipyParity:
    """Both nonlinear fits land where scipy's least squares does, errors included."""

    @staticmethod
    def law_reference(scan, gamma_r, theta0):
        x, y = scan.abscissa, scan.values
        w = np.ones_like(x) if scan.sigma is None else 1.0 / scan.sigma

        def law(theta):
            a, b = np.exp(theta)
            return gamma_r * a * x / (2.0 * (1.0 + b * x))

        def jacobian(theta):
            # analytic: near the floor a finite difference in log(alpha_tilde)
            # changes the law by less than its rounding error
            bx = np.exp(theta[1]) * x
            return np.column_stack([law(theta), -law(theta) * bx / (1.0 + bx)]) * w[:, None]

        floor = np.log(1e-12 / x.max())
        theta, err_log = reference_fit(lambda t: (law(t) - y) * w, np.log(theta0),
                                       scan.sigma, jac=jacobian,
                                       bounds=([-np.inf, floor], np.inf), method="trf")
        return np.exp(theta), np.exp(theta) * err_log

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_saturating_noise(self, weighted):
        power = np.linspace(250.0 / 12, 250.0, 12)
        for seed in range(50):
            rng = np.random.default_rng([11, seed])
            truth = (rng.uniform(100.0, 300.0), 1.0 / rng.uniform(60.0, 200.0))
            clean = 0.7 * truth[0] * power / (2.0 * (1.0 + truth[1] * power))
            sigma = 0.05 * clean
            scan = ScanSeries(power, clean + rng.normal(0.0, sigma),
                              sigma if weighted else None, "mW")
            result = fit_saturating_noise(scan, 0.7)
            values, errors = self.law_reference(scan, 0.7, truth)
            for k, name in enumerate(("alpha_noise", "alpha_tilde")):
                assert result.parameters[name] == pytest.approx(values[k], rel=1e-6)
                assert result.std_errors[name] == pytest.approx(errors[k], rel=1e-6)

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_saturating_noise_at_lower_clip(self, weighted):
        # linear data that bend slightly upward push alpha_tilde to its floor
        power = np.linspace(5.0, 250.0, 12)
        clipped = 0
        for seed in range(10):
            rng = np.random.default_rng([12, seed])
            clean = 0.7 * 230.0 * power / 2.0 * (1.0 + 0.01 * power / 250.0)
            sigma = 0.02 * clean
            scan = ScanSeries(power, clean + rng.normal(0.0, sigma),
                              sigma if weighted else None, "mW")
            result = fit_saturating_noise(scan, 0.7)
            values, errors = self.law_reference(scan, 0.7, (230.0, 1e-3 / 250.0))
            floor = 1e-12 / 250.0
            if values[1] > 1.01 * floor:
                continue
            clipped += 1
            assert result.parameters["alpha_tilde"] == pytest.approx(floor, rel=1e-12)
            assert result.parameters["alpha_noise"] == pytest.approx(values[0], rel=1e-6)
            for k, name in enumerate(("alpha_noise", "alpha_tilde")):
                assert result.std_errors[name] == pytest.approx(errors[k], rel=1e-6)
        assert clipped >= 5

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_extract_fwhm(self, weighted):
        x = np.linspace(-600.0, 600.0, 801)
        for seed in range(50):
            rng = np.random.default_rng([13, seed])
            truth = [rng.uniform(-50.0, 50.0), rng.uniform(30.0, 100.0),
                     rng.uniform(0.5, 2.0), rng.uniform(-0.1, 0.1)]
            clean = truth[3] + truth[2] / (1.0 + ((x - truth[0]) / truth[1]) ** 2)
            sigma = np.full(x.size, 0.01 * truth[2])
            noisy = clean + sigma * rng.normal(0.0, 1.0, x.size)
            w = 1.0 / sigma if weighted else 1.0
            theta, err = reference_fit(
                lambda t: (t[3] + t[2] / (1.0 + ((x - t[0]) / t[1]) ** 2) - noisy) * w,
                truth, sigma if weighted else None, method="lm",
            )
            fwhm, fwhm_err = extract_fwhm(ScanSeries(x, noisy, sigma if weighted else None))
            assert fwhm == pytest.approx(2.0 * abs(theta[1]), rel=1e-6)
            assert fwhm_err == pytest.approx(2.0 * err[1], rel=1e-6)


class TestMedian:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 600, 601])
    def test_bit_identical_to_numpy(self, n):
        rng = np.random.default_rng(n)
        arrays = [rng.normal(0.0, scale, n) for scale in (1e-300, 1.0, 1e300)]
        for a in arrays + [np.round(rng.normal(0.0, 1.0, n)), np.full(n, -0.0)]:
            assert np.float64(_median(a)).tobytes() == np.median(a).tobytes()


class TestPeriodogram:
    def test_energy_conservation(self):
        rng = np.random.default_rng(17)
        x = np.linspace(0.0, 10.0, 257)
        y = rng.normal(0, 1, x.size) + 3.0 + 0.2 * x
        freqs, power = periodogram(ScanSeries(x, y, unit="GHz"))
        design = np.column_stack([x, np.ones_like(x)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        detrended = y - design @ coef
        assert power.sum() == pytest.approx(np.sum(detrended**2), rel=1e-9)
        assert freqs.shape == power.shape


def comb_scan(power=100.0, step_nm=0.01, span_nm=2.0, bpf_nm=0.03):
    """Synthetic bandpass-filtered comb scan over wavelength."""
    cav = CavityParams(5200.0, 70.4, 0.7)
    noise = NoiseParams.from_cavity(cav, 230.0, 1.0 / 144.0)
    ghz_per_nm = bandwidth_nm_to_GHz(1.0, 1540.0)
    lam = 1540.0 + np.arange(-span_nm / 2, span_nm / 2 + step_nm / 2, step_nm)
    offsets = (lam - 1540.0) * ghz_per_nm
    half = bpf_nm * ghz_per_nm / 2.0
    counts = np.array(
        [comb_rate_in_band(cav, noise, power, f - half, f + half) for f in offsets]
    )
    return lam, counts


class TestExtractFsr:
    def test_clean_comb_scan(self):
        lam, counts = comb_scan()
        value, err = extract_fsr(ScanSeries(lam, counts, unit="nm"))
        assert value == pytest.approx(5.2, abs=0.1)
        assert err == pytest.approx(0.107, abs=0.01)

    def test_poisson_noisy_comb_scan(self):
        lam, counts = comb_scan()
        rng = np.random.default_rng(42)
        noisy = rng.poisson(counts * (25.0 / counts.mean())).astype(float)
        value, _ = extract_fsr(ScanSeries(lam, noisy, unit="nm"))
        assert value == pytest.approx(5.2, abs=0.2)

    def test_offset_and_trend_invariance(self):
        lam, counts = comb_scan()
        ref, _ = extract_fsr(ScanSeries(lam, counts, unit="nm"))
        shifted, _ = extract_fsr(ScanSeries(lam, counts + 1e4, unit="nm"))
        trended, _ = extract_fsr(ScanSeries(lam, counts + 40.0 * (lam - 1539.0), unit="nm"))
        assert shifted == pytest.approx(ref, rel=1e-9)
        assert trended == pytest.approx(ref, rel=1e-9)

    def test_delay_fringe(self):
        tau = np.arange(0.0, 8.0, 0.02)
        values = 100.0 * (1.0 + 0.8 * np.cos(2 * np.pi * 5.2 * tau)) * np.exp(-tau / 6.0)
        value, err = extract_fsr(ScanSeries(tau, values, unit="ns"))
        assert value == pytest.approx(5.2, abs=err)

    def test_constant_series(self):
        x = np.linspace(0, 10, 64)
        with pytest.raises(NoPeriodicity):
            extract_fsr(ScanSeries(x, np.full_like(x, 5.0), unit="GHz"))

    def test_nonuniform_sampling_rejected(self):
        rng = np.random.default_rng(3)
        x = np.cumsum(rng.uniform(0.5, 1.5, 64))
        y = np.sin(2 * np.pi * x / 3.0)
        with pytest.raises(SamplingError):
            extract_fsr(ScanSeries(x, y, unit="GHz"))

    def test_fewer_than_16_samples_are_rejected(self):
        x = np.linspace(0.0, 1.0, 15)
        with pytest.raises(ValueError, match="^need at least 16 samples$"):
            extract_fsr(ScanSeries(x, np.sin(20.0 * x), unit="GHz"))

    def test_flat_spectrum_has_no_dominant_peak(self):
        impulse = np.zeros(64)
        impulse[32] = 1.0
        with pytest.raises(NoPeriodicity, match="^dominant peak below 3x the median"):
            extract_fsr(ScanSeries(np.arange(64.0), impulse, unit="GHz"))

    def test_fewer_than_4_periods_are_rejected(self):
        x = np.arange(64.0)
        with pytest.raises(NoPeriodicity, match="^fewer than 4 oscillation periods"):
            extract_fsr(ScanSeries(x, np.sin(2 * np.pi * 2 * x / 64), unit="GHz"))

    def test_power_scan_rejected(self):
        x = np.linspace(1, 100, 32)
        with pytest.raises(ValueError):
            extract_fsr(ScanSeries(x, np.sin(x), unit="mW"))


class TestEnhancementFactor:
    def test_reference_cases(self):
        value = enhancement_factor(0.49 / 70.4, 17.3e-3, 45.0, 13.26)
        assert value == pytest.approx(18.5, abs=0.1)
        value2 = enhancement_factor(0.56 / 34.4, 3.6e-3, 20.0, 13.26)
        assert value2 == pytest.approx(41.2, abs=0.1)

    def test_identity_case(self):
        assert enhancement_factor(0.25, 1.0, 10.0, 10.0) == pytest.approx(1.0, rel=1e-14)

    def test_quadratic_length_scaling(self):
        base = enhancement_factor(0.01, 0.01, 10.0, 10.0)
        for scale in (2.0, 3.0, 7.5):
            assert enhancement_factor(0.01, 0.01, 10.0 * scale, 10.0) == pytest.approx(
                base * scale**2, rel=1e-12
            )

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            enhancement_factor(0.0, 1.0, 1.0, 1.0)


class TestScanSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScanSeries(np.array([1.0, 1.0]), np.array([1.0, 2.0]), unit="mW")
        with pytest.raises(ValueError):
            ScanSeries(np.array([1.0, 2.0]), np.array([1.0]), unit="mW")
        with pytest.raises(ValueError):
            ScanSeries(np.array([1.0, 2.0]), np.array([1.0, 2.0]), unit="parsec")
        with pytest.raises(ValueError):
            ScanSeries(
                np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([1.0, 0.0]), "mW"
            )

    def test_sigma_must_match_the_abscissa(self):
        with pytest.raises(ValueError, match="^sigma must match the abscissa length$"):
            ScanSeries(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.ones(3), "mW")
