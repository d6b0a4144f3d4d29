"""One parameter rule for the public laws, the public dataclasses and the CLI.

Every numeric parameter of a public law is checked by ``conversion._require``:
NaN, +inf and -inf raise ``ValueError`` naming the parameter, whatever its
range.  The only non-finite value a law accepts is ``g2_out``'s
``zeta = inf``, the noise-free limit, which ``predict_nocavity_g2`` passes on.
Every public dataclass checks its fields through ``_require_finite`` and
``_require`` the same way.  A finite argument that drives a public law out of
the float range raises ``ValueError`` naming the law, with no numpy warning.
A CLI call whose float ``--param`` is NaN or infinite exits 4 naming the key
and writes nothing; one whose float ``--param`` drives a law out of the float
range exits 4 too.

Each surface is one table, checked against the package's own list: ``LAWS``
against the laws in each module's ``__all__``, ``CONSTRUCTORS`` against its
public dataclasses, and the CLI sweep is read from ``cli._MODES``.  The
parameters a row checks are its numbers, arrays and dicts, so a new law,
record or key needs only its row.
"""

import contextlib
import dataclasses
import importlib
import io
import math
import pkgutil
import warnings

import numpy as np
import pytest

import cavityqfc
from cavityqfc import PRESETS, cli, conversion, fitting, noise, photon_stats, snr
from cavityqfc.conversion import (
    CavityParams,
    ConversionResponse,
    PumpDrive,
    WavelengthConfig,
    _is_integer,
    _require,
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
from cavityqfc.fitting import (
    FitResult,
    ScanSeries,
    enhancement_factor,
    extract_fsr,
    extract_fwhm,
    fit_linear,
    fit_saturating_noise,
    periodogram,
)
from cavityqfc.noise import (
    CombSpectrum,
    NoiseParams,
    as_spectral_density,
    beta_tilde_from,
    comb_density,
    comb_rate_in_band,
    comb_spectrum,
    half_noise_check,
    noise_cavity_per_fsr,
    noise_nocavity,
    normalized_noise_coefficient,
    spdc_antiresonant_suppression,
)
from cavityqfc.photon_stats import (
    CoincidenceHistogram,
    G2Record,
    SourceModel,
    broadband_conversion_efficiency,
    expected_histogram,
    flat_top_spectrum,
    g2_from_histogram,
    g2_out,
    gaussian_spectrum,
    lorentzian_spectrum,
    noise_rate_for_intensity_ratio,
    predict_nocavity_g2,
    simulate_coincidences,
    thermal_source_g2,
    zeta_from_g2,
)
from cavityqfc.presets import Preset
from cavityqfc.snr import (
    DesignReport,
    SnrCurve,
    cavity_dominates,
    low_power_snr_gain,
    min_finesse_for_dominance,
    normalized_snr_curves,
    nv_design_report,
    snr_cav,
    snr_config_table,
    snr_nocav,
)

PRESET = PRESETS["1540"]
CAV, NOISE = PRESET.cavity, PRESET.noise()
DRIVE = PumpDrive(50.0, PRESET.alpha_tilde_per_mW)
POWERS = np.linspace(10.0, 250.0, 12)
NOISE_SCAN = ScanSeries(POWERS, noise_cavity_per_fsr(NOISE, POWERS), unit="mW")
HISTOGRAM = CoincidenceHistogram(np.full(41, 10.0), 1000.0, 1000.0, 100_000.0, 0.8)
_GRID = np.linspace(-2.0, 2.0, 5)

_MODEL = SourceModel(0.55, 0.1, 0.1, bins=1000, seed=1)
_FRINGES = np.arange(0.0, 40.0, 0.1)
_LINE = np.linspace(-200.0, 200.0, 81)

# each public law and valid keyword arguments; its numbers, arrays and dicts are the
# parameters the rule checks
LAWS = [
    (peak_efficiency, {"drive": DRIVE, "gamma_r_ratio": 0.7}),
    (transmission_amplitude, {"cav": CAV, "drive": DRIVE, "detuning_MHz": 5.0}),
    (conversion_amplitude, {"cav": CAV, "drive": DRIVE, "detuning_MHz": 5.0}),
    (sample_response, {"cav": CAV, "drive": DRIVE, "detunings_MHz": 50.0 * _GRID}),
    (power_broadened_fwhm, {"cav": CAV, "drive": DRIVE}),
    (fsr_from_length, {"length_mm": 20.0, "group_index": 2.2}),
    (finesse_from_reflectances, {"r_front": 0.9, "r_rear": 0.95, "internal_loss_per_pass": 0.01}),
    (nocavity_efficiency, {"power_mW": 50.0, "B_per_mW": 0.01}),
    (alpha_tilde_from_finesse, {"F_cold": 74.0, "B_per_mW": 0.01}),
    (dfg_wavelength, {"signal_nm": 780.0, "pump_nm": 1581.0}),
    (bandwidth_nm_to_GHz, {"delta_nm": 0.03, "center_nm": 1540.0}),
    (as_spectral_density,
     {"noise": NOISE, "power_mW": 10.0, "detuning_MHz": 5.0, "gamma_all_MHz": 70.4}),
    (noise_cavity_per_fsr, {"noise": NOISE, "power_mW": 50.0}),
    (noise_nocavity, {"alpha_noise": 230.0, "power_mW": 10.0, "bpf_GHz": 1.0, "fsr_GHz": 5.2}),
    (half_noise_check, {"noise": NOISE, "power_mW": 50.0}),
    (beta_tilde_from, {"F_cold": 74.0, "alpha_noise": 230.0, "fsr": 5.2}),
    (comb_density, {"cav": CAV, "noise": NOISE, "power_mW": 10.0}),
    (comb_rate_in_band,
     {"cav": CAV, "noise": NOISE, "power_mW": 10.0, "f_lo_GHz": -0.5, "f_hi_GHz": 0.5}),
    (comb_spectrum,
     {"cav": CAV, "noise": NOISE, "power_mW": 10.0, "span_GHz": 12.0, "samples": 400}),
    (spdc_antiresonant_suppression, {"F": 45.0, "fsr_GHz": 5.0, "bpf_GHz": 3.57}),
    (normalized_noise_coefficient,
     {"alpha_noise": 230.0, "length_mm": 20.0, "bpf_GHz": 3.8, "t_circ": 0.8,
      "gamma_r_ratio_opt": 0.7}),
    (snr_cav, {"power_mW": 50.0, "alpha_tilde": 1.0 / 144.0, "alpha_noise": 230.0}),
    (snr_nocav, {"power_mW": 50.0, "B": 0.01, "alpha_noise": 230.0, "band_ratio": 0.5}),
    (normalized_snr_curves, {"F_cold": 25.0, "grid_size": 64}),
    (cavity_dominates, {"F_cold": 25.0}),
    (min_finesse_for_dominance, {"tolerance": 1e-3}),
    (snr_config_table, {"F_c": 74.0, "F_s": 1.0}),
    (low_power_snr_gain, {"F_cold": 74.0}),
    # the report no longer holds the finesse and FSR, so the law alone checks them
    (nv_design_report, {"F": 45.0, "fsr_GHz": 5.0, "bpf_nm": 0.03, "center_nm": 1587.0}),
    (fit_linear, {"data": NOISE_SCAN}),
    (fit_saturating_noise, {"data": NOISE_SCAN, "gamma_r_ratio": 0.7}),
    (extract_fwhm, {"data": ScanSeries(_LINE, 1.0 / (1.0 + (_LINE / 35.0) ** 2))}),
    (periodogram, {"data": NOISE_SCAN}),
    (extract_fsr, {"data": ScanSeries(_FRINGES, 2.0 + np.cos(2.0 * np.pi * _FRINGES / 5.2))}),
    (enhancement_factor, {"alpha_tilde": 1.0 / 144.0, "B_ref": 0.01, "L_ref": 40.0, "L": 20.0}),
    (g2_out, {"g2_in": 3.8, "zeta": 2.0}),
    (zeta_from_g2, {"g2_in": 3.8, "g2_out_value": 2.5}),
    (predict_nocavity_g2, {"g2_in": 3.8, "zeta": 2.0, "enhancement": 5.0}),
    (thermal_source_g2,
     {"mu": 0.55, "eta_herald": 0.1, "eta_signal": 0.1, "noise_rate_per_bin": 0.01}),
    (noise_rate_for_intensity_ratio, {"mu": 0.55, "eta_signal": 0.1, "zeta": 2.1}),
    (expected_histogram, {"model": _MODEL, "delay_span_bins": 5}),
    (flat_top_spectrum, {"width_GHz": 1.0}),
    (lorentzian_spectrum, {"fwhm_GHz": 0.1, "span_GHz": 2.0}),
    (gaussian_spectrum, {"fwhm_GHz": 0.1, "span_GHz": 2.0}),
    (broadband_conversion_efficiency,
     {"photon_spectrum": flat_top_spectrum(1.0, 401),
      "response": sample_response(CAV, DRIVE, np.linspace(-2500.0, 2500.0, 2001))}),
    (simulate_coincidences, {"model": _MODEL, "delay_span_bins": 5, "resolution_ns": 0.8}),
    (g2_from_histogram, {"histogram": HISTOGRAM, "window_ns": 0.8}),
]

_NONFINITE = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}


def _parameters(kwargs: dict) -> list[str]:
    """The arguments under the rule: numbers, arrays and dicts of them.  A bool is not a number."""
    return [name for name, value in kwargs.items()
            if isinstance(value, (int, float, np.ndarray, dict)) and not isinstance(value, bool)]


def _cases():
    for law, kwargs in LAWS:
        for name in _parameters(kwargs):
            for label, bad in _NONFINITE.items():
                if law in (g2_out, predict_nocavity_g2) and (name, label) == ("zeta", "+inf"):
                    continue  # the noise-free limit, tested below
                yield pytest.param(law, kwargs, name, bad, id=f"{law.__name__}-{name}-{label}")


@pytest.mark.parametrize("law, kwargs", LAWS, ids=[law.__name__ for law, _ in LAWS])
def test_valid_arguments_are_accepted(law, kwargs):
    # the float rule hands a numpy scalar or 0-d array result back as a Python number
    result = law(**kwargs)
    assert not isinstance(result, np.generic)
    assert not (isinstance(result, np.ndarray) and result.ndim == 0)


@pytest.mark.parametrize("law, kwargs, name, bad", _cases())
def test_nonfinite_float_is_rejected_by_name(law, kwargs, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must "):
        law(**{**kwargs, name: bad})


def test_infinite_zeta_is_the_noise_free_limit():
    assert g2_out(3.8, math.inf) == 3.8
    assert predict_nocavity_g2(3.8, math.inf, 5.0) == 3.8


@pytest.mark.parametrize(
    "call, message",
    [
        # each returned a value before its law checked the argument
        (lambda: snr_cav(50.0, -0.007, 230.0), "alpha_tilde must be positive and finite"),
        (lambda: snr_nocav(50.0, 0.01, 0.0, 0.5), "alpha_noise must be positive and finite"),
        (lambda: noise_nocavity(-1.0, 10.0, 1.0, 5.2), "alpha_noise must be non-negative"),
        (lambda: finesse_from_reflectances(1.5, 0.9), r"r_front must lie in \[0, 1\], got 1.5"),
        (lambda: snr_config_table(0.5, 1.0), "F_c must be at least 1"),
        (lambda: fit_saturating_noise(NOISE_SCAN, 0.0), r"gamma_r_ratio must lie in \(0, 1\]"),
        # a float grid size raised a bare TypeError
        (lambda: normalized_snr_curves(8.0, 100.5),
         r"^grid_size must be an integer of at least 32, got 100.5$"),
        (lambda: normalized_snr_curves(8.0, 64.0), "^grid_size must be an integer"),
        (lambda: normalized_snr_curves(8.0, True), "^grid_size must be an integer"),
    ],
)
def test_out_of_range_is_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestRequire:
    @pytest.mark.parametrize(
        "rule, good, bad",
        [
            ("finite", [-1e308, 0.0, 3], [math.nan, math.inf, -math.inf]),
            ("positive", [5e-324, 1e308, 10**400], [0.0, -1.0, math.inf]),
            ("non-negative", [0.0, 2.0], [-5e-324, math.inf]),
            ("[0, 1]", [0.0, 1.0, 0.5], [-1e-9, 1.0 + 1e-9, math.nan]),
            ("(0, 1]", [5e-324, 1.0], [0.0, 1.5]),
            ("at least 1", [1.0, 1e308], [1.0 - 1e-12, math.nan, math.inf]),
        ],
    )
    def test_rule_bounds(self, rule, good, bad):
        for value in good:
            _require(rule, x=value)
        for value in bad:
            with pytest.raises(ValueError, match="x must"):
                _require(rule, x=value)

    def test_arrays_are_checked_element_by_element(self):
        _require("[0, 1]", eff=np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match=r"^eff must lie in \[0, 1\]$"):
            _require("[0, 1]", eff=np.array([0.0, np.nan, 1.0]))

    def test_a_bool_is_not_a_number(self):
        with pytest.raises(ValueError, match="flag must be positive and finite, got True"):
            _require("positive", flag=True)

    def test_first_failing_name_is_reported(self):
        with pytest.raises(ValueError, match="^b must be positive and finite, got -1.0$"):
            _require("positive", a=1.0, b=-1.0, c=math.nan)

    @pytest.mark.parametrize(
        "call, name",
        [
            # each was accepted as 0/1 floats, as a bool scalar is not
            (lambda: CoincidenceHistogram(np.array([False, True, False]), 1, 1, 1, 0.8), "counts"),
            (lambda: sample_response(CAV, DRIVE, np.array([True, False])), "detunings_MHz"),
            (lambda: noise_cavity_per_fsr(NOISE, np.bool_(True)), "power_mW"),
            # a bare OverflowError from the float cast
            (lambda: CoincidenceHistogram([0, 10**400, 0], 1, 1, 1, 0.8), "counts"),
            # a TypeError from isfinite, which takes no object array
            (lambda: CoincidenceHistogram(np.array([0, 10**30, 0], dtype=object), 1, 1, 1, 0.8),
             "counts"),
            (lambda: CoincidenceHistogram(np.array([0, math.nan, 0], dtype=object), 1, 1, 1, 0.8),
             "counts"),
            # a ComplexWarning, then the real part
            (lambda: noise_cavity_per_fsr(NOISE, np.array([1 + 0j])), "power_mW"),
            # text cast to a float and accepted
            (lambda: noise_cavity_per_fsr(NOISE, np.array(["1"])), "power_mW"),
            (lambda: sample_response(CAV, DRIVE, ["1", "2"]), "detunings_MHz"),
            # a scan cast its arrays to float before any check
            (lambda: ScanSeries(np.array([False, True]), np.array([1.0, 2.0])), "abscissa"),
            (lambda: ScanSeries(np.array(["1", "2"]), np.array([1.0, 2.0])), "abscissa"),
            (lambda: ScanSeries(np.array([1.0, 2.0]), np.array([1 + 1j, 2 + 0j])), "values"),
        ],
        ids=["bool-counts", "bool-detunings", "numpy-bool-power", "list-int-past-float",
             "object-array", "object-array-nan", "complex-power", "text-power",
             "text-detunings", "bool-abscissa", "text-abscissa", "complex-values"],
    )
    def test_an_array_of_other_than_integers_or_floats_is_rejected_by_name(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must "):
            call()

    def test_lists_of_numbers_pass(self):
        _require("[0, 2**53]", counts=[0, 3, 2.5], ints=[0, 2**53], mixed=[1, 2.0, np.int64(3)])
        assert CoincidenceHistogram([0, 2, 0], 3, 3, 10**15, 0.8).counts == [0, 2, 0]

    def test_an_integer_is_a_python_or_numpy_integer_but_not_a_bool(self):
        for value in (0, -3, 10**20, np.int64(7), np.uint32(2**32 - 1)):
            assert _is_integer(value)
        for value in (True, np.bool_(True), 2.0, 2.5, np.float64(3.0), "3", None):
            assert not _is_integer(value)


SPECTRA = [
    lambda n: flat_top_spectrum(1.0, samples=n),
    lambda n: lorentzian_spectrum(0.1, 2.0, samples=n),
    lambda n: gaussian_spectrum(0.1, 2.0, samples=n),
    lambda n: comb_spectrum(CAV, NOISE, 10.0, 12.0, n),
]
_SPECTRUM_IDS = ["flat_top", "lorentzian", "gaussian", "comb"]


# 1 divided by zero, 0 gave an empty spectrum, 2.5 a TypeError; the comb truncated 100.7 and True
@pytest.mark.parametrize("samples", [1, 0, -5, 2.5, 100.7, 4001.0, True, None])
@pytest.mark.parametrize("spectrum", SPECTRA, ids=_SPECTRUM_IDS)
def test_samples_must_be_an_integer_of_at_least_2(spectrum, samples):
    with pytest.raises(ValueError, match="^samples must be an integer of at least 2"):
        spectrum(samples)


@pytest.mark.parametrize("spectrum", SPECTRA, ids=_SPECTRUM_IDS)
def test_numpy_integer_samples_are_accepted(spectrum):
    assert spectrum(np.int64(400)) is not None


@pytest.mark.parametrize(
    "call, message",
    [
        # each exited 5 from a later check, or ran out its iterations; a nested law names itself
        (lambda: snr_config_table(1.7e308, 1.0),
         r"^low_power_snr_gain\(F_cold=1.7e\+308\) leaves the float range$"),
        (lambda: snr_config_table(1e200, 1e200), r"^snr_config_table\(F_c=1e\+200, F_s=1e\+200\)"),
        (lambda: g2_out(3.8, 1.7e308), r"^g2_out\(g2_in=3.8, zeta=1.7e\+308\)"),
        (lambda: min_finesse_for_dominance(5e-324), "tolerance must be at least"),
        (lambda: min_finesse_for_dominance(np.spacing(16.0) / 2), "tolerance must be at least"),
        # each returned inf
        (lambda: enhancement_factor(1.7e308, 0.01, 40.0, 20.0),
         r"^enhancement_factor\(alpha_tilde=1.7e\+308, "),
        (lambda: enhancement_factor(1.0 / 144.0, 5e-324, 40.0, 20.0),
         r"^enhancement_factor\(.* B_ref=5e-324, "),
        (lambda: enhancement_factor(1.0 / 144.0, 0.01, 40.0, 5e-324),
         r"^enhancement_factor\(.* L=5e-324\) leaves the float range$"),
        # raised OverflowError from a Python float's power
        (lambda: enhancement_factor(1.0 / 144.0, 0.01, 1.7e308, 20.0),
         r"^enhancement_factor\(.* L_ref=1.7e\+308, "),
        # each underflowed below the normal floats; the bandwidth returned 0.0
        (lambda: bandwidth_nm_to_GHz(5e-324, 1540.0),
         r"^bandwidth_nm_to_GHz\(delta_nm=5e-324, center_nm=1540.0\) leaves the float range$"),
        (lambda: alpha_tilde_from_finesse(5e-324, 0.01),
         r"^alpha_tilde_from_finesse\(F_cold=5e-324, B_per_mW=0.01\) leaves the float range$"),
        (lambda: enhancement_factor(1.0 / 144.0, 0.01, 5e-324, 20.0),
         r"^enhancement_factor\(.* L_ref=5e-324, L=20.0\) leaves the float range$"),
        # a dataclass argument is named by its fields, an array by its size
        (lambda: noise_cavity_per_fsr(NoiseParams(230.0, 0.7, 1.7e308), POWERS),
         r"^noise_cavity_per_fsr\(noise.alpha_noise_cps_per_mW=230.0, noise.gamma_r_ratio=0.7, "
         r"noise.alpha_tilde_per_mW=1.7e\+308, power_mW=<12 values>\) leaves the float range$"),
        (lambda: as_spectral_density(NoiseParams(230.0, 0.7, 1.0), 3e154, 0.0, 70.4),
         r"^as_spectral_density\(.* power_mW=3e\+154, .*\) leaves the float range$"),
        (lambda: peak_efficiency(PumpDrive(1.7e308, 1.0), 0.7),
         r"^peak_efficiency\(drive.power_mW=1.7e\+308, drive.alpha_tilde_per_mW=1.0, "
         r"gamma_r_ratio=0.7\) leaves the float range$"),
    ],
)
def test_result_out_of_the_float_range_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _numbers(result):
    """The numbers in a law's result: scalars, arrays, and those in tuples, dicts and dataclasses."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, field.name) for field in dataclasses.fields(result)]
    if isinstance(result, dict):
        result = list(result.values())
    if isinstance(result, (list, tuple)):
        return [number for item in result for number in _numbers(item)]
    if isinstance(result, (float, complex, np.ndarray)):
        return [result]
    return []


def _extreme_cases():
    for law, kwargs in LAWS:
        for name in _parameters(kwargs):
            for value in (1.7e308, -1.7e308, 5e-324):
                yield pytest.param(law, kwargs, name, value, id=f"{law.__name__}-{name}={value}")


@pytest.mark.parametrize("law, kwargs, name, value", _extreme_cases())
def test_finite_extreme_gives_a_finite_result_or_a_value_error(law, kwargs, name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = law(**{**kwargs, name: value})
        except ValueError:
            return
    assert all(np.isfinite(number).all() for number in _numbers(result))


# the density divides by the broadened half-width squared, (C/2)**2 at C = P here; squaring
# 1 + C before quartering it overflowed from a power of about 1.34e154 to 2.68e154
@pytest.mark.parametrize("power", [1.3e154, 1.4e154])
def test_squared_half_width_keeps_the_density_in_the_float_range(power):
    density = as_spectral_density(NoiseParams(230.0, 0.7, 1.0), power, 0.0, 70.4)
    assert density == pytest.approx(0.7 * 230.0 / (np.pi * 70.4e-3 * power), rel=1e-12)


LAW_MODULES = [conversion, noise, snr, photon_stats, fitting]


def _public_laws(module) -> list:
    laws = [getattr(module, name) for name in module.__all__]
    return [law for law in laws if not isinstance(law, type)]


@pytest.mark.parametrize("module", LAW_MODULES, ids=[m.__name__ for m in LAW_MODULES])
def test_every_public_law_is_under_the_float_rule(module):
    laws = _public_laws(module)
    assert laws and all(hasattr(law, "__wrapped__") for law in laws)


def test_the_comb_density_closure_is_under_the_float_rule():
    density = comb_density(CAV, NOISE, 10.0)
    assert hasattr(density, "__wrapped__")
    with pytest.raises(ValueError, match=r"^density\(f_GHz=inf\) leaves the float range$"):
        density(math.inf)  # cos(inf) is an invalid operation


def test_the_smallest_accepted_tolerance_converges():
    assert min_finesse_for_dominance(np.spacing(16.0)) == pytest.approx(8.0 / np.pi, abs=1e-14)


# each public dataclass, valid keyword arguments for it, and one out-of-range case
CONSTRUCTORS = [
    (CavityParams, {"fsr_MHz": 5200.0, "gamma_all_MHz": 70.4, "gamma_r_ratio": 0.7,
                    "length_mm": 13.26, "group_index": 2.1739},
     {"fsr_MHz": -1.0}, "fsr_MHz must be positive"),
    (PumpDrive, {"power_mW": 50.0, "alpha_tilde_per_mW": 1.0 / 144.0},
     {"power_mW": -1.0}, "power_mW must be non-negative"),
    (WavelengthConfig, {"signal_nm": 780.0, "pump_nm": 1581.0, "converted_nm": 1540.0},
     {"signal_nm": 0.0}, "signal_nm must be positive"),
    (ConversionResponse, {"detunings_MHz": 50.0 * _GRID, "t_ss": np.full(5, 0.5 + 0.1j),
                          "r_rs": np.full(5, 0.3 - 0.2j)},
     {"r_rs": np.full(4, 0.3 - 0.2j)}, "grid and amplitude arrays must have equal length"),
    (NoiseParams, {"alpha_noise_cps_per_mW": 230.0, "gamma_r_ratio": 0.7,
                   "alpha_tilde_per_mW": 1.0 / 144.0},
     {"gamma_r_ratio": 1.5}, r"gamma_r_ratio must lie in \[0, 1\]"),
    (CombSpectrum, {"frequencies_GHz": _GRID, "density": np.full(5, 2.0), "fwhm_GHz": 0.07},
     {"fwhm_GHz": -1.0}, "fwhm_GHz must be positive"),
    (SnrCurve, {"efficiencies": np.linspace(0.0, 1.0, 5), "snr_values": np.full(5, 3.0)},
     {"snr_values": np.array([3.0, -1.0, 3.0, 3.0, 3.0])}, "snr_values must be non-negative"),
    (DesignReport, {"bpf_GHz": 3.57, "suppression_factor": 15.5},
     {"bpf_GHz": 0.0}, "bpf_GHz must be positive"),
    (ScanSeries, {"abscissa": _GRID, "values": np.ones(5), "sigma": np.full(5, 0.1),
                  "unit": "mW"},
     {"sigma": np.array([0.1, 0.0, 0.1, 0.1, 0.1])}, "sigma must be positive"),
    (FitResult, {"parameters": {"slope": 0.5, "intercept": 70.0},
                 "std_errors": {"slope": 0.01, "intercept": 0.1}, "residual_norm": 1.0,
                 "iterations": 0},
     {"residual_norm": -1.0}, "residual_norm must be non-negative"),
    (G2Record, {"g2": 3.8, "stderr": 0.1},
     {"stderr": -0.1}, "stderr must be non-negative"),
    (SourceModel, {"mean_pairs_per_bin": 0.55, "herald_efficiency": 0.1,
                   "signal_efficiency": 0.1, "noise_rate_per_bin": 0.01, "bins": 1000,
                   "seed": 1},
     {"herald_efficiency": 1.2}, r"herald_efficiency must lie in \[0, 1\]"),
    (CoincidenceHistogram, {"counts": np.full(5, 10.0), "herald_clicks": 1000.0,
                            "signal_clicks": 1000.0, "bins": 100_000.0, "resolution_ns": 0.8},
     {"resolution_ns": 0.0}, "resolution_ns must be positive"),
    (Preset, {"name": "test", "cavity": CAV, "alpha_tilde_per_mW": 1.0 / 144.0,
              "alpha_noise_cps_per_mW": 230.0, "wavelengths": PRESET.wavelengths,
              "broadening_MHz_per_mW": 0.49},
     {"alpha_tilde_per_mW": -1.0}, "alpha_tilde_per_mW must be positive"),
]
_CONSTRUCTOR_IDS = [cls.__name__ for cls, *_ in CONSTRUCTORS]


def _public_dataclasses() -> set:
    found = set()
    for info in pkgutil.iter_modules(cavityqfc.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"cavityqfc.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                found.add(obj)
    return found


def test_the_constructor_table_covers_every_public_dataclass():
    assert {cls for cls, *_ in CONSTRUCTORS} == _public_dataclasses()


def test_the_law_table_covers_every_public_law():
    public = {law.__name__ for module in LAW_MODULES for law in _public_laws(module)}
    assert {law.__name__ for law, _ in LAWS} == public


# each result record's fields, and the inputs it must not echo: its caller holds them
_RESULT_FIELDS = [
    (G2Record, ["g2", "stderr"], ["window_ns", "resolution_ns"]),
    (DesignReport, ["bpf_GHz", "suppression_factor"], ["finesse", "fsr_GHz"]),
    (ConversionResponse, ["detunings_MHz", "t_ss", "r_rs"], ["power_mW"]),
    (CombSpectrum, ["frequencies_GHz", "density", "fwhm_GHz"], ["fsr_GHz"]),
    (SnrCurve, ["efficiencies", "snr_values"], ["label"]),
]


@pytest.mark.parametrize("cls, names, removed", _RESULT_FIELDS,
                         ids=[cls.__name__ for cls, *_ in _RESULT_FIELDS])
def test_a_result_record_holds_only_what_its_law_computed(cls, names, removed):
    assert [field.name for field in dataclasses.fields(cls)] == names
    row = next(kwargs for table_cls, kwargs, *_ in CONSTRUCTORS if table_cls is cls)
    record = cls(**row)
    for name in removed:
        with pytest.raises(TypeError):
            dataclasses.replace(record, **{name: 1.0})


def _with_one_bad_entry(value, bad):
    """``value`` with ``bad`` in place of its scalar, one array element or one dict value."""
    if isinstance(value, dict):
        return {**value, next(iter(value)): bad}
    if isinstance(value, np.ndarray):
        value = value.copy()
        value[1] = bad
        return value
    return bad


def _field_cases():
    for cls, kwargs, _, _ in CONSTRUCTORS:
        for name in _parameters(kwargs):
            for label, bad in _NONFINITE.items():
                yield pytest.param(cls, kwargs, name, bad, id=f"{cls.__name__}-{name}-{label}")


@pytest.mark.parametrize("cls, kwargs, bad_kwargs, message", CONSTRUCTORS, ids=_CONSTRUCTOR_IDS)
def test_valid_fields_are_accepted(cls, kwargs, bad_kwargs, message):
    cls(**kwargs)


@pytest.mark.parametrize("cls, kwargs, name, bad", _field_cases())
def test_nonfinite_field_is_rejected_by_name(cls, kwargs, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        cls(**{**kwargs, name: _with_one_bad_entry(kwargs[name], bad)})


@pytest.mark.parametrize("cls, kwargs, bad_kwargs, message", CONSTRUCTORS, ids=_CONSTRUCTOR_IDS)
def test_out_of_range_field_is_rejected_by_name(cls, kwargs, bad_kwargs, message):
    with pytest.raises(ValueError, match=message):
        cls(**{**kwargs, **bad_kwargs})


@pytest.fixture(scope="module")
def noise_scan(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("scan") / "noise.csv")
    assert cli.main(["generate", "--param", "model=noise", "--output", path]) == 0
    return path


def _valid_text(parser) -> str:
    """A value the ``--param`` parser accepts: a noise kind or a number."""
    for text in ("gauss", "poisson", "2.0"):
        try:
            parser(text)
            return text
        except (ValueError, cli.UsageError):
            pass
    raise AssertionError(f"no valid text for {parser}")


def _float_keys():
    """Every float ``--param`` key of every mode, with the arguments that reach it."""
    for command, modes in cli._MODES.items():
        pick = cli._SUBCOMMANDS[command][1]
        for mode, (_, schema) in modes.items():
            base = [command] + ([] if pick is None else ["--param", f"{pick}={mode}"])
            if "bins" in schema:  # a Monte Carlo mode: a short run
                base += ["--param", "bins=20000"]
            for key, (parser, _) in schema.items():
                if parser not in (float, cli._floats):
                    continue
                needed = cli._NEEDS.get(key)
                needs = [] if needed is None else [
                    "--param", f"{needed}={_valid_text(schema[needed][0])}"]
                yield [*base, *needs], key, f"{command}-{mode}-{key}"


def _cli_cases(values):
    for base, key, label in _float_keys():
        for value in values:
            yield pytest.param([*base, "--param", f"{key}={value}"], key, id=f"{label}={value}")


def test_float_sweeps_cover_every_float_key():
    # a change to the shape of the mode table that hides keys from the sweeps fails here,
    # not silently
    assert len(list(_float_keys())) == 42


def _run(argv, noise_scan, output):
    """``cli.main`` on ``argv`` writing to ``output``; its exit code, stdout and stderr."""
    argv = [*argv, "--output", str(output)]
    if argv[0] == "fit":
        argv += ["--input", noise_scan]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("argv, key", _cli_cases(["1.7e308", "-1.7e308", "5e-324"]))
def test_float_extreme_exits_0_or_4_without_a_warning(argv, key, noise_scan, tmp_path):
    code, _, stderr = _run(argv, noise_scan, tmp_path / "out")
    assert code in (0, 4), stderr


@pytest.mark.parametrize("argv, key", _cli_cases(["nan", "inf", "-inf"]))
def test_nonfinite_float_key_exits_4_by_name_and_writes_nothing(argv, key, noise_scan, tmp_path):
    code, stdout, stderr = _run(argv, noise_scan, tmp_path / "out")
    assert code == 4, stderr
    assert f"--param {key} must be finite" in stderr
    assert stdout == "" and not (tmp_path / "out").exists()
