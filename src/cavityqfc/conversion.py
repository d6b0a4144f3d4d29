"""Closed-form model of a singly resonant waveguide frequency converter.

The converter is a nonlinear waveguide whose end faces form a cavity that
confines only the frequency-converted mode; the input signal and the strong
pump pass straight through.  Driving the waveguide with pump power ``P``
couples the signal mode to the intracavity converted mode with a
dimensionless strength ``C = alpha_tilde * P``, and on the output side the
device behaves like a two-port with complex transmission ``t_ss`` (signal
survives unconverted) and conversion ``r_rs`` (signal leaves as a converted
photon) amplitudes.

Unit conventions
----------------
Linewidths and detunings are ordinary-frequency FWHM values in MHz; the
total cavity decay rate ``gamma_all`` is identified with the measured
cold-cavity FWHM.  Only ratios of these quantities enter the amplitudes, so
the convention is self-consistent.  Free spectral ranges are quoted in MHz
inside :class:`CavityParams` and in GHz by the conversion helpers, powers in
mW, vacuum wavelengths in nm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

_C_VACUUM = 299_792_458.0  # m/s, exact by definition

__all__ = [
    "CavityParams",
    "PumpDrive",
    "WavelengthConfig",
    "ConversionResponse",
    "transmission_amplitude",
    "conversion_amplitude",
    "sample_response",
    "peak_efficiency",
    "power_broadened_fwhm",
    "fsr_from_length",
    "finesse_from_reflectances",
    "nocavity_efficiency",
    "alpha_tilde_from_finesse",
    "dfg_wavelength",
    "bandwidth_nm_to_GHz",
]


def _require_finite(params) -> None:
    """Reject NaN or infinity in any field of a parameter dataclass.

    None means unset; Python integers are finite and may exceed the float range.
    """
    for field in fields(params):
        value = getattr(params, field.name)
        if value is not None and not isinstance(value, int) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {float(value)!r}")


def _pump_power(power_mW) -> np.ndarray:
    """Scalar or array pump power as an array; rejects negative and non-finite entries."""
    power = np.asarray(power_mW, dtype=float)
    if np.any(power < 0):
        raise ValueError("power_mW must be non-negative")
    if not np.isfinite(power).all():
        raise ValueError("power_mW must be finite")
    return power


@dataclass(frozen=True)
class CavityParams:
    """Resonator geometry and loss parameters.

    Parameters
    ----------
    fsr_MHz : float
        Free spectral range (MHz).
    gamma_all_MHz : float
        Cold-cavity FWHM, i.e. total decay rate (MHz).
    gamma_r_ratio : float
        Extraction ratio: fraction of the total decay that leaves through
        the useful output mirror, in [0, 1].
    length_mm, group_index : float, optional
        Physical waveguide length and effective group index.  When both
        are given they must reproduce ``fsr_MHz`` within 0.5 %.
    """

    fsr_MHz: float
    gamma_all_MHz: float
    gamma_r_ratio: float = 1.0
    length_mm: float | None = None
    group_index: float | None = None

    def __post_init__(self):
        _require_finite(self)
        if self.fsr_MHz <= 0:
            raise ValueError("fsr_MHz must be positive")
        if self.gamma_all_MHz <= 0:
            raise ValueError("gamma_all_MHz must be positive")
        if not 0.0 <= self.gamma_r_ratio <= 1.0:
            raise ValueError("gamma_r_ratio must lie in [0, 1]")
        if self.fsr_MHz < self.gamma_all_MHz:
            raise ValueError("finesse below one: fsr_MHz < gamma_all_MHz")
        if self.length_mm is not None and self.group_index is not None:
            fsr_geom = 1e3 * fsr_from_length(self.length_mm, self.group_index)
            if abs(fsr_geom - self.fsr_MHz) > 5e-3 * self.fsr_MHz:
                raise ValueError(
                    f"fsr_MHz={self.fsr_MHz:.6g} inconsistent with "
                    f"c/(2*n_g*L)={fsr_geom:.6g} MHz (tolerance 0.5 %)"
                )

    @property
    def finesse(self) -> float:
        return self.fsr_MHz / self.gamma_all_MHz


@dataclass(frozen=True)
class PumpDrive:
    """Pump configuration: power, normalized coupling coefficient, phase.

    ``alpha_tilde_per_mW`` is the coefficient turning pump power into the
    dimensionless coupling ``C = alpha_tilde * P``; its inverse is the
    power of maximum conversion (impedance matching).
    """

    power_mW: float
    alpha_tilde_per_mW: float
    phase_rad: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.power_mW < 0:
            raise ValueError("power_mW must be non-negative")
        if self.alpha_tilde_per_mW <= 0:
            raise ValueError("alpha_tilde_per_mW must be positive")

    @property
    def coupling(self) -> float:
        """Dimensionless pump coupling ``C = alpha_tilde * P``."""
        return self.alpha_tilde_per_mW * self.power_mW


@dataclass(frozen=True)
class WavelengthConfig:
    """Vacuum wavelengths of the signal, pump and converted modes.

    Difference-frequency conversion requires ``f_converted = f_signal -
    f_pump``; construction fails if the three wavelengths violate that
    energy balance by more than 0.1 %.
    """

    signal_nm: float
    pump_nm: float
    converted_nm: float

    def __post_init__(self):
        _require_finite(self)
        for name in ("signal_nm", "pump_nm", "converted_nm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        expected = 1.0 / self.signal_nm - 1.0 / self.pump_nm
        if expected <= 0:
            raise ValueError("pump_nm must exceed signal_nm for downconversion")
        actual = 1.0 / self.converted_nm
        if abs(actual - expected) > 1e-3 * expected:
            raise ValueError(
                "wavelengths violate energy conservation: expected converted "
                f"wavelength {1.0 / expected:.4f} nm, got {self.converted_nm:.4f} nm"
            )


@dataclass(frozen=True)
class ConversionResponse:
    """Complex transmission / conversion amplitudes over a detuning grid."""

    detunings_MHz: np.ndarray
    t_ss: np.ndarray
    r_rs: np.ndarray
    power_mW: float

    def __post_init__(self):
        n = len(self.detunings_MHz)
        if len(self.t_ss) != n or len(self.r_rs) != n:
            raise ValueError("grid and amplitude arrays must have equal length")


def transmission_amplitude(cav: CavityParams, drive: PumpDrive, detuning_MHz):
    """Complex amplitude for the signal to pass unconverted.

    ``t = (0.5*(1-C) - i*d) / (0.5*(1+C) - i*d)`` with the detuning
    normalized to the cold linewidth, ``d = detuning / gamma_all``.  At
    ``C = 1`` and zero detuning the cavity is impedance matched and the
    transmission vanishes.  Accepts scalar or array detuning.
    """
    detuning = np.asarray(detuning_MHz, dtype=float)
    if not np.all(np.isfinite(detuning)):
        raise ValueError("detuning_MHz must be finite")
    coupling = drive.coupling
    d = detuning / cav.gamma_all_MHz
    t = (0.5 * (1.0 - coupling) - 1j * d) / (0.5 * (1.0 + coupling) - 1j * d)
    return t if np.ndim(t) else complex(t)


def conversion_amplitude(cav: CavityParams, drive: PumpDrive, detuning_MHz):
    """Complex amplitude for the signal to leave in the converted mode.

    ``r = sqrt(gamma_r_ratio) * exp(-i*phase) * sqrt(C) /
    (0.5*(1+C) - i*d)``.  The squared magnitude is bounded by the
    extraction ratio and reaches it exactly at impedance matching on
    resonance.
    """
    detuning = np.asarray(detuning_MHz, dtype=float)
    if not np.all(np.isfinite(detuning)):
        raise ValueError("detuning_MHz must be finite")
    coupling = drive.coupling
    d = detuning / cav.gamma_all_MHz
    numerator = np.sqrt(cav.gamma_r_ratio) * np.exp(-1j * drive.phase_rad) * np.sqrt(coupling)
    r = numerator / (0.5 * (1.0 + coupling) - 1j * d)
    return r if np.ndim(r) else complex(r)


def sample_response(cav: CavityParams, drive: PumpDrive, detunings_MHz) -> ConversionResponse:
    """Evaluate both amplitudes over a detuning grid."""
    detunings = np.atleast_1d(np.asarray(detunings_MHz, dtype=float))
    return ConversionResponse(
        detunings_MHz=detunings,
        t_ss=np.asarray(transmission_amplitude(cav, drive, detunings)),
        r_rs=np.asarray(conversion_amplitude(cav, drive, detunings)),
        power_mW=drive.power_mW,
    )


def peak_efficiency(drive: PumpDrive, gamma_r_ratio: float) -> float:
    """On-resonance conversion efficiency ``4*g*C/(1+C)^2``.

    Unimodal in pump power with its maximum, equal to ``gamma_r_ratio``,
    exactly at ``P = 1/alpha_tilde``.
    """
    if not 0.0 <= gamma_r_ratio <= 1.0:
        raise ValueError("gamma_r_ratio must lie in [0, 1]")
    coupling = drive.coupling
    return 4.0 * gamma_r_ratio * coupling / (1.0 + coupling) ** 2


def power_broadened_fwhm(cav: CavityParams, drive: PumpDrive) -> float:
    """Pump-broadened resonance width ``gamma_all * (1 + C)`` in MHz."""
    return cav.gamma_all_MHz * (1.0 + drive.coupling)


def fsr_from_length(length_mm: float, group_index: float) -> float:
    """Free spectral range ``c / (2 * n_g * L)`` in GHz."""
    if not (length_mm > 0 and group_index > 0):
        raise ValueError("length_mm and group_index must be positive")
    return _C_VACUUM / (2.0 * group_index * length_mm * 1e-3) * 1e-9


def finesse_from_reflectances(
    r_front: float, r_rear: float, internal_loss_per_pass: float = 0.0
) -> float:
    """Finesse of a two-mirror cavity from its power reflectances.

    Uses the Airy result ``pi * sqrt(rho) / (1 - rho)`` with the round-trip
    amplitude survival ``rho = sqrt(r_front * r_rear) * (1 - loss)``.
    """
    for name, value in (
        ("r_front", r_front),
        ("r_rear", r_rear),
        ("internal_loss_per_pass", internal_loss_per_pass),
    ):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    rho = np.sqrt(r_front * r_rear) * (1.0 - internal_loss_per_pass)
    if rho >= 1.0:
        raise ValueError("lossless closed cavity: round-trip survival >= 1")
    return float(np.pi * np.sqrt(rho) / (1.0 - rho))


def nocavity_efficiency(power_mW: float, B_per_mW: float) -> float:
    """Conversion efficiency of a plain (cavity-free) waveguide.

    ``sin^2(sqrt(B*P))``: full conversion at ``B*P = (pi/2)^2``, complete
    back-conversion at ``B*P = pi^2``.
    """
    power = _pump_power(power_mW)
    if not B_per_mW > 0:
        raise ValueError("B_per_mW must be positive")
    return float(np.sin(np.sqrt(B_per_mW * power)) ** 2)


def alpha_tilde_from_finesse(F_cold: float, B_per_mW: float) -> float:
    """Cavity coupling coefficient implied by the cold finesse.

    Matching the low-power slopes of the cavity efficiency
    ``4*alpha_tilde*P`` and the cavity-enhanced bare-waveguide efficiency
    ``(F/pi)*B*P`` gives ``alpha_tilde = F * B / (4*pi)``.
    """
    if not (F_cold > 0 and B_per_mW > 0):
        raise ValueError("F_cold and B_per_mW must be positive")
    return F_cold * B_per_mW / (4.0 * np.pi)


def dfg_wavelength(signal_nm: float, pump_nm: float) -> float:
    """Wavelength produced by difference-frequency generation (nm)."""
    if not (signal_nm > 0 and pump_nm > 0):
        raise ValueError("wavelengths must be positive")
    if pump_nm <= signal_nm:
        raise ValueError("pump_nm must exceed signal_nm (divergent otherwise)")
    return 1.0 / (1.0 / signal_nm - 1.0 / pump_nm)


def bandwidth_nm_to_GHz(delta_nm: float, center_nm: float) -> float:
    """Convert a small wavelength bandwidth to frequency, ``c*dl/l^2`` (GHz).

    Raises ``ValueError`` when the result is not finite and positive, as
    when ``center_nm`` is so small or so large that its square leaves the
    float range.
    """
    if not (delta_nm > 0 and center_nm > 0):
        raise ValueError("delta_nm and center_nm must be positive")
    try:
        bandwidth = _C_VACUUM * (delta_nm * 1e-9) / (center_nm * 1e-9) ** 2 * 1e-9
    except (OverflowError, ZeroDivisionError):  # the square left the float range
        bandwidth = math.nan
    if not 0.0 < bandwidth < math.inf:
        raise ValueError(
            f"bandwidth of {delta_nm:g} nm at {center_nm:g} nm must be finite and positive in GHz"
        )
    return bandwidth
