"""Toolkit for cavity-enhanced quantum frequency conversion.

Closed-form conversion and anti-Stokes noise models for a waveguide
converter whose cavity confines only the converted mode, SNR comparisons
across converter configurations, estimators for the scan data such devices
produce, and a Monte Carlo coincidence simulator for photon-statistics
checks.  See the ``cavityqfc`` command-line entry point for file-based
workflows.
"""

from .conversion import (
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
from .errors import (
    CoverageError,
    NoPeriodicity,
    NumericFailure,
    ParseError,
    SamplingError,
    ShapeError,
    SingularFit,
    WorkbenchError,
)
from .fitting import (
    FitResult,
    ScanSeries,
    enhancement_factor,
    extract_fsr,
    extract_fwhm,
    fit_linear,
    fit_saturating_noise,
    periodogram,
)
from .noise import (
    CombSpectrum,
    NoiseParams,
    as_spectral_density,
    as_total_rate,
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
from .photon_stats import (
    CoincidenceHistogram,
    G2Record,
    SourceModel,
    broadband_conversion_efficiency,
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
from .presets import DEFAULT_PRESET, PRESETS, Preset
from .snr import (
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

__version__ = "0.1.0"
