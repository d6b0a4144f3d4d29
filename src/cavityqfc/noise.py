"""Anti-Stokes noise spectra and rates, with and without the cavity.

The strong pump Raman-scatters phonons into photons at frequencies around
the converted mode.  Without a cavity those anti-Stokes (AS) photons form a
flat spectrum and accumulate linearly with pump power; with a cavity on the
converted mode they are gathered into a comb of resonant teeth and their
intracavity up-conversion makes the total per free spectral range saturate,

    N(P) = gamma_r_ratio * alpha_noise * P / (2 * (1 + alpha_tilde * P)).

``alpha_noise`` is defined as the no-cavity AS rate per mW collected in one
full FSR-wide band, so bandpass ratios enter explicitly.  The comb is a sum
of identical Lorentzian teeth; summing the periodic images in closed form
(a wrapped Lorentzian) keeps tails exact, which matters for the
anti-resonant suppression estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conversion import CavityParams, _pump_power, _require_finite

__all__ = [
    "NoiseParams",
    "CombSpectrum",
    "as_spectral_density",
    "noise_cavity_per_fsr",
    "noise_nocavity",
    "half_noise_check",
    "beta_tilde_from",
    "comb_density",
    "comb_rate_in_band",
    "comb_spectrum",
    "spdc_antiresonant_suppression",
    "normalized_noise_coefficient",
]


@dataclass(frozen=True)
class NoiseParams:
    """Phenomenological anti-Stokes noise coefficients.

    Parameters
    ----------
    alpha_noise_cps_per_mW : float
        No-cavity AS generation coefficient within one FSR-wide band
        (counts/s/mW).
    gamma_r_ratio : float
        Cavity extraction ratio shared with the conversion model.
    alpha_tilde_per_mW : float
        Pump coupling coefficient shared with the conversion model (1/mW).

    The comb coupling ``beta_tilde`` is not a field: the spectral-density
    operations derive it from ``alpha_noise`` and the cavity linewidth.
    """

    alpha_noise_cps_per_mW: float
    gamma_r_ratio: float
    alpha_tilde_per_mW: float

    def __post_init__(self):
        _require_finite(self)
        if self.alpha_noise_cps_per_mW < 0:
            raise ValueError("alpha_noise_cps_per_mW must be non-negative")
        if not 0.0 <= self.gamma_r_ratio <= 1.0:
            raise ValueError("gamma_r_ratio must lie in [0, 1]")
        if self.alpha_tilde_per_mW < 0:
            raise ValueError("alpha_tilde_per_mW must be non-negative")

    @classmethod
    def from_cavity(
        cls,
        cav: CavityParams,
        alpha_noise_cps_per_mW: float,
        alpha_tilde_per_mW: float,
    ) -> "NoiseParams":
        """Build parameters with the extraction ratio of ``cav``."""
        return cls(alpha_noise_cps_per_mW, cav.gamma_r_ratio, alpha_tilde_per_mW)


@dataclass(frozen=True)
class CombSpectrum:
    """Sampled noise spectral density of the resonant AS comb."""

    frequencies_GHz: np.ndarray
    density: np.ndarray  # counts/s/GHz
    fsr_GHz: float
    fwhm_GHz: float

    def __post_init__(self):
        if len(self.frequencies_GHz) != len(self.density):
            raise ValueError("grid and density must have equal length")
        if np.any(np.asarray(self.density) < 0):
            raise ValueError("density must be non-negative")


def as_spectral_density(noise: NoiseParams, power_mW, detuning_MHz, gamma_all_MHz: float):
    """AS spectral density of a single cavity resonance (counts/s/GHz).

    A Lorentzian in the normalized detuning ``d = detuning / gamma_all``
    with half-width ``(1 + alpha_tilde*P)/2`` (the pump-broadened line):

        S(d) = gamma_r_ratio * beta_tilde * P / ((1 + alpha_tilde*P)^2/4 + d^2)

    The comb coupling ``beta_tilde = F * alpha_noise / (4*pi*FSR)`` of
    :func:`beta_tilde_from` is ``alpha_noise / (4*pi*gamma_all)`` because
    ``F = FSR / gamma_all``.  Its integral over all detunings is
    :func:`noise_cavity_per_fsr`.  Power and detuning broadcast against
    each other; scalars give a float.
    """
    power = _pump_power(power_mW)
    if not 0.0 < gamma_all_MHz < np.inf:
        raise ValueError("gamma_all_MHz must be positive and finite")
    beta = noise.alpha_noise_cps_per_mW / (4.0 * np.pi * gamma_all_MHz * 1e-3)  # per GHz
    d = np.asarray(detuning_MHz, dtype=float) / gamma_all_MHz
    coupling = noise.alpha_tilde_per_mW * power
    out = noise.gamma_r_ratio * beta * power / (0.25 * (1.0 + coupling) ** 2 + d * d)
    return out if out.ndim else float(out)


def noise_cavity_per_fsr(noise: NoiseParams, power_mW):
    """Extracted AS photons per FSR band with the cavity (counts/s).

    The saturating law ``gamma_r_ratio * alpha_noise * P / (2*(1 +
    alpha_tilde*P))``; its low-power slope is half the no-cavity slope and
    the curve stays strictly below that linear bound for ``P > 0``.
    Accepts scalar or array power; a scalar gives a float.
    """
    power = _pump_power(power_mW)
    coupling = noise.alpha_tilde_per_mW * power
    out = noise.gamma_r_ratio * noise.alpha_noise_cps_per_mW * power / (2.0 * (1.0 + coupling))
    return out if out.ndim else float(out)


def noise_nocavity(alpha_noise: float, power_mW, bpf_GHz: float, fsr_GHz: float):
    """No-cavity AS photons inside a bandpass window (counts/s).

    Linear in both pump power and bandwidth:
    ``alpha_noise * P * bpf / fsr``.  Valid only for windows no wider than
    one FSR (``alpha_noise`` is defined per FSR-wide band).  Accepts scalar
    or array power; a scalar gives a float.
    """
    power = _pump_power(power_mW)
    if bpf_GHz <= 0 or fsr_GHz <= 0:
        raise ValueError("bandwidths must be positive")
    if bpf_GHz > fsr_GHz:
        raise ValueError("bpf_GHz must not exceed fsr_GHz")
    out = alpha_noise * power * bpf_GHz / fsr_GHz
    return out if out.ndim else float(out)


def half_noise_check(noise: NoiseParams, power_mW):
    """Cavity-to-no-cavity AS ratio at equal pump and full-FSR bandwidth.

    Normalized by the extraction ratio, the closed forms give
    ``1 / (2*(1 + alpha_tilde*P))``: exactly one half at vanishing pump
    power, dropping further as up-conversion saturates the comb.  Accepts
    scalar or array power; a scalar gives a float.
    """
    power = _pump_power(power_mW)
    zero = power == 0
    flat = noise.gamma_r_ratio * noise_nocavity(noise.alpha_noise_cps_per_mW, power, 1.0, 1.0)
    # both laws vanish at zero power, where the ratio is its limit 1/2
    out = np.where(zero, 0.5, noise_cavity_per_fsr(noise, power) / np.where(zero, 1.0, flat))
    return out if out.ndim else float(out)


def beta_tilde_from(F_cold: float, alpha_noise: float, fsr: float) -> float:
    """Comb coupling coefficient ``F_cold * alpha_noise / (4*pi*fsr)``.

    With ``fsr`` in GHz the result is a density coefficient in
    counts/(s mW GHz); it makes the per-FSR comb integral reproduce the
    saturating cavity noise law.
    """
    if F_cold <= 0 or alpha_noise < 0 or fsr <= 0:
        raise ValueError("F_cold and fsr must be positive, alpha_noise non-negative")
    return F_cold * alpha_noise / (4.0 * np.pi * fsr)


def _wrapped_lorentzian_density(u, hwhm_ratio: float):
    """Unit-mass-per-period sum of Lorentzian images at all integers.

    ``u`` is frequency in FSR units, ``hwhm_ratio`` the tooth half-width in
    the same units.  Closed form of the infinite image sum:
    ``sinh(s) / (cosh(s) - cos(2*pi*u))`` with ``s = 2*pi*hwhm_ratio``.
    """
    s = 2.0 * np.pi * hwhm_ratio
    return np.sinh(s) / (np.cosh(s) - np.cos(2.0 * np.pi * np.asarray(u, dtype=float)))


def _wrapped_lorentzian_cdf(u, hwhm_ratio: float):
    """Continuous antiderivative of the wrapped Lorentzian, one per period."""
    u = np.asarray(u, dtype=float)
    rho = 1.0 / np.tanh(np.pi * hwhm_ratio)
    k = np.round(u)
    return k + np.arctan(rho * np.tan(np.pi * (u - k))) / np.pi


def _comb_scales(cav: CavityParams, noise: NoiseParams, power_mW):
    """FSR in GHz, pump-broadened tooth half-width in FSR units, per-FSR total."""
    hwhm_ratio = cav.gamma_all_MHz * (1.0 + noise.alpha_tilde_per_mW * power_mW) / (
        2.0 * cav.fsr_MHz
    )
    return cav.fsr_MHz * 1e-3, hwhm_ratio, noise_cavity_per_fsr(noise, power_mW)


def comb_density(cav: CavityParams, noise: NoiseParams, power_mW: float):
    """Vectorized AS comb density (counts/s/GHz) vs frequency offset in GHz.

    Teeth sit at integer multiples of the FSR (a resonance at zero offset),
    each pump-broadened per :func:`as_spectral_density`, with every FSR
    carrying the :func:`noise_cavity_per_fsr` total.
    """
    fsr_GHz, hwhm_ratio, total = _comb_scales(cav, noise, power_mW)

    def density(f_GHz):
        u = np.asarray(f_GHz, dtype=float) / fsr_GHz
        return total / fsr_GHz * _wrapped_lorentzian_density(u, hwhm_ratio)

    return density


def comb_rate_in_band(cav: CavityParams, noise: NoiseParams, power_mW, f_lo_GHz, f_hi_GHz):
    """Exact integral of the comb density over ``[f_lo, f_hi]`` (counts/s).

    Power and band edges broadcast against each other; scalars give a float.
    """
    f_lo = np.asarray(f_lo_GHz, dtype=float)
    f_hi = np.asarray(f_hi_GHz, dtype=float)
    if np.any(f_hi < f_lo):
        raise ValueError("f_hi_GHz must not be below f_lo_GHz")
    fsr_GHz, hwhm_ratio, total = _comb_scales(cav, noise, power_mW)
    out = total * (
        _wrapped_lorentzian_cdf(f_hi / fsr_GHz, hwhm_ratio)
        - _wrapped_lorentzian_cdf(f_lo / fsr_GHz, hwhm_ratio)
    )
    return out if out.ndim else float(out)


def comb_spectrum(
    cav: CavityParams,
    noise: NoiseParams,
    power_mW: float,
    span_GHz: float,
    samples: int,
) -> CombSpectrum:
    """Sample the AS comb on a uniform grid centered on a resonance."""
    if span_GHz <= 0:
        raise ValueError("span_GHz must be positive")
    fsr_GHz, hwhm_ratio, _ = _comb_scales(cav, noise, power_mW)
    if samples / (span_GHz / fsr_GHz) < 16:
        raise ValueError("undersampled grid: need at least 16 samples per FSR")
    freqs = np.linspace(-span_GHz / 2.0, span_GHz / 2.0, int(samples))
    return CombSpectrum(
        frequencies_GHz=freqs,
        density=comb_density(cav, noise, power_mW)(freqs),
        fsr_GHz=fsr_GHz,
        fwhm_GHz=2.0 * hwhm_ratio * fsr_GHz,
    )


def spdc_antiresonant_suppression(F: float, fsr_GHz: float, bpf_GHz: float) -> float:
    """Noise suppression from parking the detection band at anti-resonance.

    Compares a flat spectrum against a Lorentzian comb with tooth FWHM
    ``fsr/F`` and the same per-FSR total: the returned factor is (flat
    noise in the bandpass window) / (comb noise in the same window centered
    midway between teeth).  Greater than one whenever the comb is
    meaningfully peaked (``F > pi``); at ``F = 1`` the teeth merge and the
    factor sits near one.
    """
    if F < 1.0:
        raise ValueError("F must be at least 1")
    if fsr_GHz <= 0 or bpf_GHz <= 0:
        raise ValueError("bandwidths must be positive")
    if bpf_GHz >= fsr_GHz:
        raise ValueError("bpf_GHz must be narrower than fsr_GHz")
    hwhm_ratio = 1.0 / (2.0 * F)
    half_window = bpf_GHz / (2.0 * fsr_GHz)
    # the window is symmetric about the anti-resonance, where the two CDF
    # arctans nearly cancel at high finesse; their difference in closed form:
    comb_mass = float(
        2.0 / np.pi * np.arctan(np.tanh(np.pi * hwhm_ratio) * np.tan(np.pi * half_window))
    )
    flat_mass = bpf_GHz / fsr_GHz
    return flat_mass / comb_mass


def normalized_noise_coefficient(
    alpha_noise: float,
    length_mm: float,
    bpf_GHz: float,
    t_circ: float,
    gamma_r_ratio_opt: float = 1.0,
) -> float:
    """AS coefficient normalized to device length, bandwidth and collection.

    ``alpha_noise / (L * bpf * T_circ * gamma_r_ratio)`` in
    counts/(s mm GHz mW): removes the setup-specific factors so converters
    of different lengths and filter choices can be compared just after the
    nonlinear medium.
    """
    for name, value in (
        ("alpha_noise", alpha_noise),
        ("length_mm", length_mm),
        ("bpf_GHz", bpf_GHz),
        ("t_circ", t_circ),
        ("gamma_r_ratio_opt", gamma_r_ratio_opt),
    ):
        if value <= 0:
            raise ValueError(f"{name} must be positive")
    return alpha_noise / (length_mm * bpf_GHz * t_circ * gamma_r_ratio_opt)
