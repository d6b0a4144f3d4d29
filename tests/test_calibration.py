"""Coverage of the stated uncertainties: one seeded test per estimator.

Each test draws an estimate and its stated error over 100 fixed seeds and
checks that the z-scores against the exact value have a spread within
[0.8, 1.25] and a mean within 0.2, so that "k stderr" means k sigma.
"""

import numpy as np
import pytest

from cavityqfc import (PRESETS, NoiseParams, PumpDrive, ScanSeries, extract_fwhm,
                       fit_saturating_noise, noise_cavity_per_fsr, power_broadened_fwhm,
                       sample_response)
from cavityqfc.photon_stats import (SourceModel, _click_probabilities, expected_histogram,
                                    g2_from_histogram, simulate_coincidences, thermal_source_g2)

SEEDS = range(1, 101)
SPARSE = (0.01, 0.5, 0.002, 0.001)  # delay 0 expects 4.5 counts in 3e5 bins, 15 in 1e6
PRESET = PRESETS["1540"]


def assert_one_sigma(scores, label):
    mean, spread = np.mean(scores), np.std(scores, ddof=1)
    assert abs(mean) < 0.2, f"{label}: z mean {mean:.3f}"
    assert 0.8 <= spread <= 1.25, f"{label}: z spread {spread:.3f}"


@pytest.mark.parametrize("params", [(0.55, 0.1, 0.1, 0.01), (1.0, 0.1, 0.1, 0.0)],
                         ids=["acceptance", "mu_1"])
def test_g2_stderr_is_one_sigma(params):
    z = {1: [], 2: []}
    for seed in SEEDS:
        model = SourceModel(*params, bins=1_000_000, seed=seed)
        _, p10, p01, p11 = _click_probabilities(model)
        level = model.bins * (p10 + p11) * (p01 + p11)  # the exact level behind H*S/N
        expected = expected_histogram(model, 1)
        histogram = simulate_coincidences(model, delay_span_bins=6)
        assert not histogram.low_statistics
        for m, scores in z.items():
            record = g2_from_histogram(histogram, 0.8 * m)
            exact = expected[1 : 1 + m].sum() / (m * level)  # the window's ratio from delay 0
            scores.append((record.g2 - exact) / record.stderr)
    for m, scores in z.items():
        assert_one_sigma(scores, f"window of {m}")


def test_fwhm_stderr_is_one_sigma():
    # the converted line of preset 1540 at 30-150 mW, 801 points over +-600 MHz,
    # with Gaussian noise of 0.5 % of its peak
    cav, grid = PRESET.cavity, np.linspace(-600.0, 600.0, 801)
    z = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        drive = PumpDrive(rng.uniform(30.0, 150.0), PRESET.alpha_tilde_per_mW)
        line = np.abs(sample_response(cav, drive, grid).r_rs) ** 2
        sigma = np.full(grid.size, 0.005 * line.max())
        width, stderr = extract_fwhm(ScanSeries(grid, line + rng.normal(0.0, sigma), sigma))
        z.append((width - power_broadened_fwhm(cav, drive)) / stderr)
    assert_one_sigma(z, "FWHM")


def test_saturating_noise_stderr_is_one_sigma():
    # 12 powers up to 250 mW with 5 % errors, over laws from the linear regime
    # (alpha_tilde 1/200 per mW) to well into saturation (1/60 per mW)
    powers, ratio = np.linspace(250.0 / 12, 250.0, 12), PRESET.cavity.gamma_r_ratio
    z = {"alpha_noise": [], "alpha_tilde": []}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        truth = {"alpha_noise": rng.uniform(100.0, 300.0),
                 "alpha_tilde": 1.0 / rng.uniform(60.0, 200.0)}
        counts = noise_cavity_per_fsr(NoiseParams(truth["alpha_noise"], ratio,
                                                  truth["alpha_tilde"]), powers)
        sigma = 0.05 * counts
        fit = fit_saturating_noise(ScanSeries(powers, counts + rng.normal(0.0, sigma), sigma,
                                              "mW"), ratio)
        for name, scores in z.items():
            scores.append((fit.parameters[name] - truth[name]) / fit.std_errors[name])
    for name, scores in z.items():
        assert_one_sigma(scores, name)


@pytest.mark.parametrize("bins", [300_000, 1_000_000])
def test_low_statistics_flags_every_estimate_beyond_3_sigma(bins):
    # where delay 0 holds few counts the error is not one sigma: at 3e5 bins 13 of 200
    # seeds land beyond 3 stderr, where one sigma would put 0.5
    exact = thermal_source_g2(*SPARSE)
    flags = []
    for seed in range(1, 201):
        histogram = simulate_coincidences(SourceModel(*SPARSE, bins=bins, seed=seed), 1)
        record = g2_from_histogram(histogram, 0.8)
        if abs(record.g2 - exact) > 3 * record.stderr:
            flags.append(histogram.low_statistics)
    assert flags and all(flags), f"{sum(flags)} of {len(flags)} beyond 3 stderr flagged"
