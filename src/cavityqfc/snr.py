"""Signal-to-noise comparison of cavity and cavity-free converters.

The figure of merit is conversion efficiency divided by the anti-Stokes
noise rate inside the detection band.  For the cavity converter that rate
is the unsaturated ``gamma_r_ratio*alpha_noise*P/2``, the low-power tangent
of the saturating per-FSR law ``noise.noise_cavity_per_fsr``, not that law
itself.  The extraction ratio cancels between numerator and denominator,
leaving

    SNR_cav   = 8*alpha_tilde / (alpha_noise * (1 + alpha_tilde*P)^2),
    SNR_nocav = B * sinc^2(sqrt(B*P)) / (alpha_noise * bpf/fsr),

with ``sinc(x) = sin(x)/x``.  ``snr_cav`` is the efficiency over that noise,
``4*alpha_tilde / (noise._slope(alpha_noise, 1) * (1 + alpha_tilde*P)^2)``,
and the cavity curve's efficiency axis is ``conversion._efficiency``, the law
of ``peak_efficiency``.  Normalized curves use ``B/alpha_noise =
pi^2/4`` so the no-cavity SNR equals one at unit efficiency, which makes
the cavity advantage read off directly: the cavity curve sits at
``F*pi/2`` for vanishing efficiency and ``F*pi/8`` at full conversion, so
a cold finesse of at least ``8/pi`` keeps it on top everywhere.

Dividing by the saturating rate instead gives ``snr_cav * (1 + alpha_tilde*P)``,
which is ``k * peak_efficiency / noise.comb_rate_in_band`` for a band of ``k``
whole FSRs, wherever its edges lie.  Its curve sits at ``F*pi/4`` at full
conversion, and the dominance threshold becomes ``pi/2``, set at vanishing
efficiency, in place of ``8/pi``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conversion import (_efficiency, _guard, _is_integer, _pump_power, _require, _require_finite,
                         alpha_tilde_from_finesse, bandwidth_nm_to_GHz)
from .noise import _slope, spdc_antiresonant_suppression

__all__ = [
    "SnrCurve",
    "DesignReport",
    "snr_cav",
    "snr_nocav",
    "normalized_snr_curves",
    "cavity_dominates",
    "min_finesse_for_dominance",
    "snr_config_table",
    "low_power_snr_gain",
    "nv_design_report",
]


@dataclass(frozen=True)
class SnrCurve:
    """Normalized SNR parameterized by conversion efficiency."""

    efficiencies: np.ndarray
    snr_values: np.ndarray

    def __post_init__(self):
        _require_finite(self)
        _require("[0, 1]", efficiencies=self.efficiencies)
        _require("non-negative", snr_values=self.snr_values)
        if np.shape(self.efficiencies) != np.shape(self.snr_values):
            raise ValueError("efficiencies and snr_values must have equal length")


@dataclass(frozen=True)
class DesignReport:
    """Outcome of the anti-resonant SPDC-noise design check: the filter band in GHz and
    the suppression factor; the finesse and FSR are the caller's.  ``over_tenfold``
    compares the suppression factor with ``threshold``, a constant 10, not a field."""

    bpf_GHz: float
    suppression_factor: float
    threshold = 10.0  # the paper's tenfold target

    def __post_init__(self):
        _require_finite(self)
        _require("positive", bpf_GHz=self.bpf_GHz, suppression_factor=self.suppression_factor)

    @property
    def over_tenfold(self) -> bool:
        return bool(self.suppression_factor > self.threshold)


def _sinc(x):
    """Unnormalized sinc ``sin(x)/x`` with the limit value at zero."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = x != 0
    out[nz] = np.sin(x[nz]) / x[nz]
    return out


def snr_cav(power_mW, alpha_tilde: float, alpha_noise: float):
    """SNR of the cavity converter, strictly decreasing in pump power (scalar or array)."""
    power = _pump_power(power_mW)
    _require("positive", alpha_tilde=alpha_tilde, alpha_noise=alpha_noise)
    # float_power is libm pow for scalars and arrays; ndarray ** 2 may differ by 1 ulp
    broadening = np.float_power(1.0 + alpha_tilde * power, 2)
    return 4.0 * alpha_tilde / (_slope(alpha_noise, 1.0) * broadening)


def snr_nocav(power_mW, B: float, alpha_noise: float, band_ratio: float):
    """SNR of a plain converter behind a ``band_ratio*fsr`` bandpass (scalar or array power)."""
    power = _pump_power(power_mW)
    _require("positive", B=B, alpha_noise=alpha_noise)
    _require("(0, 1]", band_ratio=band_ratio)
    return B * np.float_power(_sinc(np.sqrt(B * power)), 2) / (alpha_noise * band_ratio)


_B = np.pi**2 / 4.0  # B/alpha_noise of the normalized curves


def _normalized_snr(F_cold: float, x, y):
    """Normalized cavity SNR at ``x = alpha_tilde*P`` and no-cavity SNR at
    ``y = sqrt(B*P)``, both with ``alpha_noise = 1`` and a full-FSR band."""
    alpha_tilde = alpha_tilde_from_finesse(F_cold, _B)
    return (snr_cav(x / alpha_tilde, alpha_tilde, 1.0),
            snr_nocav(np.float_power(y, 2) / _B, _B, 1.0, 1.0))


def normalized_snr_curves(F_cold: float, grid_size: int = 256) -> tuple[SnrCurve, SnrCurve]:
    """Normalized SNR vs conversion efficiency for both converter types.

    The cavity curve runs over the undercoupled branch ``P in [0,
    1/alpha_tilde]`` with ``alpha_tilde = F_cold*B/(4*pi)`` and unit
    extraction; the no-cavity curve over ``B*P in [0, (pi/2)^2]``.  Both
    use ``B/alpha_noise = pi^2/4`` so the no-cavity value at unit
    efficiency is exactly one.  Returns ``(cavity, no_cavity)``, unlabelled:
    the caller holds ``F_cold``.
    """
    if not _is_integer(grid_size) or grid_size < 32:
        raise ValueError(f"grid_size must be an integer of at least 32, got {grid_size!r}")
    if grid_size > 1_000_000:
        raise ValueError("grid_size must be at most 1000000")
    x = np.linspace(0.0, 1.0, grid_size)  # alpha_tilde * P
    y = np.linspace(0.0, np.pi / 2.0, grid_size)  # sqrt(B * P)
    snr_c, snr_n = _normalized_snr(F_cold, x, y)
    return SnrCurve(_efficiency(1.0, x), snr_c), SnrCurve(np.sin(y) ** 2, snr_n)


_DOMINANCE_GRID = np.logspace(-4, 0, 511)  # ends at exactly 1.0, full conversion


def cavity_dominates(F_cold: float) -> bool:
    """True if the cavity curve is at or above the no-cavity curve everywhere.

    Each efficiency of a fixed grid, 1e-4 to 1 on a log scale, is inverted to both
    curves' abscissae: the cavity's undercoupled branch ``x = (1-u)/(1+u)`` with
    ``u = sqrt(1-eff)``, stable for small efficiencies, and ``y = arcsin(sqrt(eff))``.
    """
    eff = _DOMINANCE_GRID
    u = np.sqrt(1.0 - eff)
    snr_c, snr_n = _normalized_snr(F_cold, (1.0 - u) / (1.0 + u), np.arcsin(np.sqrt(eff)))
    return np.all(snr_c >= snr_n)


def min_finesse_for_dominance(tolerance: float = 1e-3) -> float:
    """Smallest cold finesse whose cavity SNR dominates at every efficiency.

    Bisection over the finesse with the dominance predicate evaluated on a
    dense efficiency grid.  The binding point is full conversion, where the
    curves cross at ``F = 8/pi``.
    """
    lo, hi = 1.0, 16.0  # dominance fails at 1 and holds at 16: the curves cross at 8/pi
    _require("positive", tolerance=tolerance)
    if tolerance < np.spacing(hi):  # below the float spacing the bracket stops shrinking
        raise ValueError(f"tolerance must be at least {np.spacing(hi):g}, got {tolerance:g}")
    while True:  # the spacing rule ends it within 52 halvings
        mid = 0.5 * (lo + hi)
        if cavity_dominates(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo < tolerance:
            return 0.5 * (lo + hi)


def snr_config_table(F_c: float, F_s: float) -> dict[str, dict[str, float]]:
    """Low-power SNR factors for the six converter configurations.

    Rows select the bandpass width (one FSR or one cavity FWHM), columns
    the confined mode; every entry is normalized to the no-cavity,
    FSR-wide case.  Confining the converted mode gathers the noise comb
    into half the band (factor 2) and boosts efficiency by ``F_c/pi``;
    confining the signal mode boosts efficiency by ``F_s/pi`` without
    touching the noise.
    """
    _require("at least 1", F_c=F_c, F_s=F_s)
    return {
        "fsr_wide": {
            "no_cavity": 1.0,
            "converted_mode": low_power_snr_gain(F_c),
            "signal_mode": F_s / np.pi,
        },
        "fwhm_wide": {
            "no_cavity": F_c,
            "converted_mode": low_power_snr_gain(F_c),
            "signal_mode": F_c * F_s / np.pi,
        },
    }


def low_power_snr_gain(F_cold: float) -> float:
    """Cavity-over-no-cavity SNR ratio at vanishing pump, full-FSR band.

    ``8*alpha_tilde/B = 2*F_cold/pi``: the ``F/pi`` efficiency enhancement
    times the factor two from halving the generated noise.
    """
    _require("positive", F_cold=F_cold)
    return 2.0 * F_cold / np.pi


def nv_design_report(
    F: float, fsr_GHz: float, bpf_nm: float, center_nm: float
) -> DesignReport:
    """Evaluate the anti-resonant noise-suppression design point.

    Converts the filter bandwidth to frequency at the detection wavelength
    and reports it with the suppression factor against the tenfold target;
    ``F`` and ``fsr_GHz`` stay with the caller.
    """
    _require("positive", bpf_nm=bpf_nm)  # bandwidth_nm_to_GHz would name it delta_nm
    bpf_GHz = bandwidth_nm_to_GHz(bpf_nm, center_nm)
    factor = spdc_antiresonant_suppression(F, fsr_GHz, bpf_GHz)
    return DesignReport(bpf_GHz=bpf_GHz, suppression_factor=factor)


_guard(globals())
