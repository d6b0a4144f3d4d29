"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here, not calibrated later.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

import cavityqfc as q

SEED = 20240601


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} [{name}]: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} [{name}]: PASS")


def test_01_unitarity():
    with criterion(1, "unitarity of the two-port amplitudes"):
        cav = q.CavityParams(5200.0, 70.4, gamma_r_ratio=1.0)
        rng = np.random.default_rng(SEED)
        couplings = 10 ** rng.uniform(-6, 1, 10_000)
        detunings = rng.uniform(-50, 50, 10_000) * cav.gamma_all_MHz
        start = time.perf_counter()
        worst = 0.0
        for c, d in zip(couplings, detunings):
            drive = q.PumpDrive(c * 144.0, 1.0 / 144.0)
            total = (
                abs(q.transmission_amplitude(cav, drive, d)) ** 2
                + abs(q.conversion_amplitude(cav, drive, d)) ** 2
            )
            worst = max(worst, abs(total - 1.0))
        elapsed = time.perf_counter() - start
        assert worst < 1e-12, f"max unitarity deviation {worst:.3e}"
        assert elapsed < 1.0, f"runtime {elapsed:.2f} s exceeds 1 s"


def test_02_noise_density_consistency():
    with criterion(2, "spectral density integral vs closed-form total"):
        cav = q.CavityParams(5200.0, 70.4, 0.7)
        noise = q.NoiseParams.from_cavity(cav, 230.0, 1.0 / 144.0)
        for power in (1.0, 10.0, 100.0, 144.0, 300.0):
            numeric, _ = quad(
                lambda f: q.as_spectral_density(noise, power, f * 1e3, 70.4),
                -np.inf,
                np.inf,
                limit=400,
            )
            closed = q.noise_cavity_per_fsr(noise, power)
            assert numeric == pytest.approx(closed, rel=1e-6), f"P={power}"


def test_03_normalized_snr_curve_anchors():
    with criterion(3, "normalized SNR curve anchor values"):
        cavity25, nocavity = q.normalized_snr_curves(25.0, 256)
        assert nocavity.snr_values[-1] == pytest.approx(1.0, abs=1e-12)
        assert cavity25.snr_values[0] == pytest.approx(39.27, abs=0.01)
        assert cavity25.snr_values[0] == pytest.approx(25 * np.pi / 2, rel=1e-12)
        assert cavity25.snr_values[-1] == pytest.approx(9.82, abs=0.01)
        assert cavity25.snr_values[-1] == pytest.approx(25 * np.pi / 8, rel=1e-12)
        threshold_curve, _ = q.normalized_snr_curves(8.0 / np.pi, 256)
        assert threshold_curve.snr_values[-1] == pytest.approx(1.0, abs=1e-9)


def test_04_minimum_finesse_threshold():
    with criterion(4, "minimum finesse for SNR dominance"):
        value = q.min_finesse_for_dominance(1e-3)
        assert value == pytest.approx(8.0 / np.pi, abs=1e-3), f"got {value:.6f}"
        assert value == pytest.approx(2.546, abs=2e-3)


def _linear_scan(alpha, gamma, rng=None, rel_noise=0.0):
    power = np.linspace(0.0, 250.0, 26)
    values = gamma + alpha * power
    if rng is None:
        return q.ScanSeries(power, values, unit="mW")
    sigma = rel_noise * values
    return q.ScanSeries(power, values + rng.normal(0, sigma), sigma, "mW")


def _noise_scan(alpha_noise, alpha_tilde, rng=None, rel_noise=0.0):
    power = np.linspace(250.0 / 12, 250.0, 12)
    values = 0.7 * alpha_noise * power / (2.0 * (1.0 + alpha_tilde * power))
    if rng is None:
        return q.ScanSeries(power, values, unit="mW")
    sigma = rel_noise * values
    return q.ScanSeries(power, values + rng.normal(0, sigma), sigma, "mW")


def test_05_fit_recovery():
    with criterion(5, "fit recovery, noiseless and 5 percent noise"):
        start = time.perf_counter()
        for alpha, gamma in [(0.49, 70.4), (0.56, 34.4)]:
            result = q.fit_linear(_linear_scan(alpha, gamma))
            assert result.parameters["slope"] == pytest.approx(alpha, rel=1e-3)
            assert result.parameters["intercept"] == pytest.approx(gamma, rel=1e-3)
        for alpha_noise, alpha_tilde in [(230.0, 1 / 144), (85.0, 1 / 61)]:
            result = q.fit_saturating_noise(_noise_scan(alpha_noise, alpha_tilde), 0.7)
            assert result.parameters["alpha_noise"] == pytest.approx(alpha_noise, rel=1e-3)
            assert result.parameters["alpha_tilde"] == pytest.approx(alpha_tilde, rel=1e-3)

        trials = 200
        rng = np.random.default_rng(SEED)
        for family, truth in [
            ("linear", (0.49, 70.4)),
            ("linear", (0.56, 34.4)),
            ("saturating", (230.0, 1 / 144)),
            ("saturating", (85.0, 1 / 61)),
        ]:
            hits = 0
            for _ in range(trials):
                if family == "linear":
                    result = q.fit_linear(_linear_scan(*truth, rng=rng, rel_noise=0.05))
                    names = ("slope", "intercept")
                else:
                    result = q.fit_saturating_noise(
                        _noise_scan(*truth, rng=rng, rel_noise=0.05), 0.7
                    )
                    names = ("alpha_noise", "alpha_tilde")
                hits += all(
                    abs(result.parameters[n] - t) <= 3 * result.std_errors[n]
                    for n, t in zip(names, truth)
                )
            assert hits >= 0.95 * trials, f"{family} {truth}: {hits}/{trials} inside 3 sigma"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.1f} s exceeds 30 s"


def test_06_finesse_and_enhancement_arithmetic():
    with criterion(6, "finesse and enhancement arithmetic"):
        f1540 = q.CavityParams(5200.0, 70.4).finesse
        f1522 = q.CavityParams(5200.0, 34.4).finesse
        assert f1540 == pytest.approx(73.9, abs=0.05)
        assert abs(f1540 - 74.0) <= 1.0
        assert f1522 == pytest.approx(151.2, abs=0.05)
        assert abs(f1522 - 151.0) <= 1.0
        e1540 = q.enhancement_factor(0.49 / 70.4, 17.3e-3, 45.0, 13.26)
        e1522 = q.enhancement_factor(0.56 / 34.4, 3.6e-3, 20.0, 13.26)
        assert e1540 == pytest.approx(18.5, abs=0.05)
        assert abs(e1540 - 18.0) <= 1.0
        assert e1522 == pytest.approx(41.15, abs=0.05)
        assert abs(e1522 - 41.0) <= 1.0
        assert f1540 / np.pi == pytest.approx(23.5, abs=0.05)
        assert f1522 / np.pi == pytest.approx(48.1, abs=0.05)


def _comb_scan(rng=None):
    cav = q.CavityParams(5200.0, 70.4, 0.7)
    noise = q.NoiseParams.from_cavity(cav, 230.0, 1.0 / 144.0)
    ghz_per_nm = q.bandwidth_nm_to_GHz(1.0, 1540.0)
    lam = 1540.0 + np.arange(-1.0, 1.0 + 0.005, 0.01)
    offsets = (lam - 1540.0) * ghz_per_nm
    half = 0.03 * ghz_per_nm / 2.0
    counts = np.array(
        [q.comb_rate_in_band(cav, noise, 100.0, f - half, f + half) for f in offsets]
    )
    if rng is not None:
        counts = rng.poisson(counts * (25.0 / counts.mean())).astype(float)
    return q.ScanSeries(lam, counts, unit="nm")


def test_07_fsr_extraction():
    with criterion(7, "free-spectral-range extraction from comb scans"):
        value, err = q.extract_fsr(_comb_scan())
        assert abs(value - 5.2) <= 0.1, f"clean scan: {value:.4f} GHz"
        assert err <= 0.11
        noisy_value, _ = q.extract_fsr(_comb_scan(rng=np.random.default_rng(SEED)))
        assert abs(noisy_value - 5.2) <= 0.2, f"noisy scan: {noisy_value:.4f} GHz"


def test_08_g2_chain():
    with criterion(8, "second-order correlation chain"):
        out = q.g2_out(3.819, 2.1)
        assert out == pytest.approx(2.91, abs=5e-3)
        assert abs(out - 2.94) <= 0.05
        zeta = q.zeta_from_g2(3.819, 2.94)
        assert zeta == pytest.approx(2.21, abs=5e-3)
        assert abs(zeta - 2.1) <= 0.15
        nocav = q.predict_nocavity_g2(3.819, 2.1, 18.0)
        assert nocav == pytest.approx(1.29, abs=5e-3)
        assert abs(nocav - 1.3) <= 0.05


def test_09_monte_carlo_validation():
    with criterion(9, "Monte Carlo vs analytic photon statistics"):
        start = time.perf_counter()
        bins = 10_000_000

        # low-efficiency regime where the 2 + 1/mu law holds
        model = q.SourceModel(0.55, 0.01, 0.01, bins=bins, seed=SEED)
        record = q.g2_from_histogram(q.simulate_coincidences(model), 0.8)
        target = 2.0 + 1.0 / 0.55
        assert abs(record.g2 - target) < 3 * record.stderr, (
            f"g2={record.g2:.4f} +- {record.stderr:.4f}, target {target:.4f}"
        )

        # noise admixture vs the mixing formula over a 3x3 grid
        eta = 0.05
        for i, mu in enumerate((0.3, 0.55, 1.0)):
            pure_model = q.SourceModel(mu, eta, eta, bins=bins, seed=SEED + 10 * i)
            pure = q.g2_from_histogram(q.simulate_coincidences(pure_model), 0.8)
            for j, zeta in enumerate((1.0, 2.1, 5.0)):
                nu = q.noise_rate_for_intensity_ratio(mu, eta, zeta)
                mixed_model = q.SourceModel(
                    mu, eta, eta, nu, bins=bins, seed=SEED + 10 * i + j + 1
                )
                mixed = q.g2_from_histogram(q.simulate_coincidences(mixed_model), 0.8)
                predicted = q.g2_out(pure.g2, zeta)
                sigma = np.hypot(mixed.stderr, pure.stderr * zeta / (zeta + 1.0))
                assert abs(mixed.g2 - predicted) < 3 * sigma, (
                    f"mu={mu}, zeta={zeta}: mc {mixed.g2:.4f}, "
                    f"mixing formula {predicted:.4f}, sigma {sigma:.4f}"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"runtime {elapsed:.1f} s exceeds 2 min"


def _tooth_sum_suppression(F, fsr, bpf, teeth=4000):
    hwhm = fsr / F / 2.0
    lo, hi = fsr / 2.0 - bpf / 2.0, fsr / 2.0 + bpf / 2.0
    centers = np.arange(-teeth, teeth + 1) * fsr
    mass = (np.arctan((hi - centers) / hwhm) - np.arctan((lo - centers) / hwhm)) / np.pi
    return (bpf / fsr) / mass.sum()


def test_10_antiresonant_design_point():
    with criterion(10, "anti-resonant noise suppression design point"):
        factor = q.spdc_antiresonant_suppression(45.0, 5.0, 3.57)
        oracle = _tooth_sum_suppression(45.0, 5.0, 3.57)
        assert factor == pytest.approx(oracle, rel=5e-3), "disagrees with tooth-sum oracle"
        assert factor > 10.0, f"factor {factor:.2f} not over tenfold"
        # Pinned anchor 13.6 +- 1.  Both integration routes above agree on
        # 15.52 for the 3.57 GHz window; 13.6 is reproduced only by the
        # 3.79 GHz default bandwidth, so this assertion documents a known
        # inconsistency and is expected to fail (see the test output).
        assert abs(factor - 13.6) <= 1.0, (
            f"factor at 3.57 GHz is {factor:.2f} (two independent integration "
            f"routes agree); the 13.6 anchor corresponds to a 3.79 GHz window, "
            f"where the model gives "
            f"{q.spdc_antiresonant_suppression(45.0, 5.0, 3.79):.2f}"
        )


def test_11_normalized_noise_coefficients():
    with criterion(11, "normalized noise coefficient comparison"):
        ours = q.normalized_noise_coefficient(230.0, 13.26, 3.79, 0.08)
        assert ours == pytest.approx(57.2, abs=0.05)
        assert abs(ours - 60.0) <= 0.10 * 60.0
        reference = q.normalized_noise_coefficient(970.0, 45.0, 12.6, 0.09)
        assert reference == pytest.approx(19.0, abs=0.05)
        # quoted ~25 for the reference device: only same-order agreement holds
        assert 0.5 < reference / 25.0 < 2.0


def test_12_broadband_efficiency():
    with criterion(12, "broadband-photon conversion efficiency"):
        cav = q.CavityParams(5200.0, 70.4, 0.7)
        drive = q.PumpDrive(140.0, 1.0 / 144.0)
        response = q.sample_response(cav, drive, np.linspace(-2500.0, 2500.0, 20001))
        value = q.broadband_conversion_efficiency(q.flat_top_spectrum(3.8, 6001), response)
        # analytic oracle for the flat-top overlap
        x = 140.0 / 144.0
        half_width = (1.0 + x) / 2.0
        oracle = (
            0.7 * x * (70.4e-3 / half_width)
            * 2.0 * np.arctan((1.9 / 70.4e-3) / half_width) / 3.8
        )
        assert value == pytest.approx(oracle, rel=1e-3)
        assert round(value, 2) == 0.04
        assert 0.3 <= value / 0.07 <= 3.0, "order-of-magnitude agreement with 0.07"
