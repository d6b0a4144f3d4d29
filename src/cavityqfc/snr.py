"""Signal-to-noise comparison of cavity and cavity-free converters.

The figure of merit is conversion efficiency divided by the anti-Stokes
noise rate inside the detection band.  For the cavity converter the
extraction ratio cancels between numerator and denominator, leaving

    SNR_cav   = 8*alpha_tilde / (alpha_noise * (1 + alpha_tilde*P)^2),
    SNR_nocav = B * sinc^2(sqrt(B*P)) / (alpha_noise * bpf/fsr),

with ``sinc(x) = sin(x)/x``.  Normalized curves use ``B/alpha_noise =
pi^2/4`` so the no-cavity SNR equals one at unit efficiency, which makes
the cavity advantage read off directly: the cavity curve sits at
``F*pi/2`` for vanishing efficiency and ``F*pi/8`` at full conversion, so
a cold finesse of at least ``8/pi`` keeps it on top everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conversion import _pump_power, bandwidth_nm_to_GHz
from .errors import NumericFailure
from .noise import spdc_antiresonant_suppression

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
    label: str = ""

    def __post_init__(self):
        eff = np.asarray(self.efficiencies, dtype=float)
        snr = np.asarray(self.snr_values, dtype=float)
        if eff.shape != snr.shape:
            raise ValueError("efficiencies and snr_values must have equal length")
        if np.any(eff < 0) or np.any(eff > 1):
            raise ValueError("efficiencies must lie in [0, 1]")
        if np.any(snr < 0):
            raise ValueError("snr_values must be non-negative")


@dataclass(frozen=True)
class DesignReport:
    """Outcome of the anti-resonant SPDC-noise design check."""

    finesse: float
    fsr_GHz: float
    bpf_GHz: float
    suppression_factor: float
    threshold: float = 10.0

    @property
    def over_tenfold(self) -> bool:
        return bool(self.suppression_factor > self.threshold)


def _sinc(x):
    """Unnormalized sinc ``sin(x)/x`` with the limit value at zero."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = x != 0
    out[nz] = np.sin(x[nz]) / x[nz]
    return out if out.ndim else float(out)


def snr_cav(power_mW, alpha_tilde: float, alpha_noise: float):
    """SNR of the cavity converter, strictly decreasing in pump power (scalar or array)."""
    power = _pump_power(power_mW)
    # float_power is libm pow for scalars and arrays; ndarray ** 2 may differ by 1 ulp
    out = 8.0 * alpha_tilde / (alpha_noise * np.float_power(1.0 + alpha_tilde * power, 2))
    return out if out.ndim else float(out)


def snr_nocav(power_mW, B: float, alpha_noise: float, band_ratio: float):
    """SNR of a plain converter behind a ``band_ratio*fsr`` bandpass (scalar or array power)."""
    power = _pump_power(power_mW)
    if not 0.0 < band_ratio <= 1.0:
        raise ValueError("band_ratio must lie in (0, 1]")
    out = B * np.float_power(_sinc(np.sqrt(B * power)), 2) / (alpha_noise * band_ratio)
    return out if out.ndim else float(out)


def _snr_cav_of_eff(eff, F_cold: float):
    """Normalized cavity SNR at given efficiency, undercoupled branch.

    Inverting ``eta = 4x/(1+x)^2`` on the branch ``x <= 1`` gives
    ``x = (1-u)/(1+u)`` with ``u = sqrt(1-eta)``, numerically stable for
    small efficiencies.
    """
    u = np.sqrt(1.0 - np.asarray(eff, dtype=float))
    x = (1.0 - u) / (1.0 + u)
    return (np.pi * F_cold / 2.0) / (1.0 + x) ** 2


def _snr_nocav_of_eff(eff):
    """Normalized no-cavity SNR at given efficiency (full-FSR bandpass)."""
    eff = np.asarray(eff, dtype=float)
    y = np.arcsin(np.sqrt(eff))
    out = np.full_like(eff, np.pi**2 / 4.0)
    nz = eff > 0
    out[nz] = (np.pi**2 / 4.0) * eff[nz] / y[nz] ** 2
    return out


def normalized_snr_curves(F_cold: float, grid_size: int = 256) -> tuple[SnrCurve, SnrCurve]:
    """Normalized SNR vs conversion efficiency for both converter types.

    The cavity curve runs over the undercoupled branch ``P in [0,
    1/alpha_tilde]`` with ``alpha_tilde = F_cold*B/(4*pi)`` and unit
    extraction; the no-cavity curve over ``B*P in [0, (pi/2)^2]``.  Both
    use ``B/alpha_noise = pi^2/4`` so the no-cavity value at unit
    efficiency is exactly one.
    """
    if F_cold <= 0:
        raise ValueError("F_cold must be positive")
    if grid_size < 32:
        raise ValueError("grid_size must be at least 32")
    if grid_size > 1_000_000:
        raise ValueError("grid_size must be at most 1000000")
    B = np.pi**2 / 4.0
    alpha_tilde = F_cold * B / (4.0 * np.pi)

    x = np.linspace(0.0, 1.0, grid_size)  # alpha_tilde * P
    eff_cav = 4.0 * x / (1.0 + x) ** 2
    snr_c = snr_cav(x / alpha_tilde, alpha_tilde, 1.0)

    y = np.linspace(0.0, np.pi / 2.0, grid_size)  # sqrt(B * P)
    eff_nocav = np.sin(y) ** 2
    snr_n = snr_nocav(np.float_power(y, 2) / B, B, 1.0, 1.0)

    cavity = SnrCurve(eff_cav, snr_c, label=f"cavity F={F_cold:g}")
    nocavity = SnrCurve(eff_nocav, snr_n, label="no cavity")
    return cavity, nocavity


_DOMINANCE_GRID = np.concatenate([np.logspace(-4, 0, 511), [1.0]])


def cavity_dominates(F_cold: float, efficiencies=None) -> bool:
    """True if the cavity curve is at or above the no-cavity curve everywhere."""
    eff = _DOMINANCE_GRID if efficiencies is None else np.asarray(efficiencies, float)
    return bool(np.all(_snr_cav_of_eff(eff, F_cold) >= _snr_nocav_of_eff(eff)))


def min_finesse_for_dominance(tolerance: float = 1e-3) -> float:
    """Smallest cold finesse whose cavity SNR dominates at every efficiency.

    Bisection over the finesse with the dominance predicate evaluated on a
    dense efficiency grid.  The binding point is full conversion, where the
    curves cross at ``F = 8/pi``.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    lo, hi = 1.0, 16.0
    if cavity_dominates(lo) or not cavity_dominates(hi):
        raise NumericFailure("dominance bisection bracket invalid")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cavity_dominates(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo < tolerance:
            return 0.5 * (lo + hi)
    raise NumericFailure("dominance bisection did not converge in 60 iterations")


def snr_config_table(F_c: float, F_s: float) -> dict[str, dict[str, float]]:
    """Low-power SNR factors for the six converter configurations.

    Rows select the bandpass width (one FSR or one cavity FWHM), columns
    the confined mode; every entry is normalized to the no-cavity,
    FSR-wide case.  Confining the converted mode gathers the noise comb
    into half the band (factor 2) and boosts efficiency by ``F_c/pi``;
    confining the signal mode boosts efficiency by ``F_s/pi`` without
    touching the noise.
    """
    if F_c < 1.0 or F_s < 1.0:
        raise ValueError("finesses must be at least 1")
    return {
        "fsr_wide": {
            "no_cavity": 1.0,
            "converted_mode": 2.0 * F_c / np.pi,
            "signal_mode": F_s / np.pi,
        },
        "fwhm_wide": {
            "no_cavity": F_c,
            "converted_mode": 2.0 * F_c / np.pi,
            "signal_mode": F_c * F_s / np.pi,
        },
    }


def low_power_snr_gain(F_cold: float) -> float:
    """Cavity-over-no-cavity SNR ratio at vanishing pump, full-FSR band.

    ``8*alpha_tilde/B = 2*F_cold/pi``: the ``F/pi`` efficiency enhancement
    times the factor two from halving the generated noise.
    """
    if F_cold <= 0:
        raise ValueError("F_cold must be positive")
    return 2.0 * F_cold / np.pi


def nv_design_report(
    F: float, fsr_GHz: float, bpf_nm: float, center_nm: float
) -> DesignReport:
    """Evaluate the anti-resonant noise-suppression design point.

    Converts the filter bandwidth to frequency at the detection wavelength
    and reports the suppression factor against the tenfold target.
    """
    bpf_GHz = bandwidth_nm_to_GHz(bpf_nm, center_nm)
    factor = spdc_antiresonant_suppression(F, fsr_GHz, bpf_GHz)
    return DesignReport(finesse=F, fsr_GHz=fsr_GHz, bpf_GHz=bpf_GHz, suppression_factor=factor)
