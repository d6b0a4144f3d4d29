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

Two device laws are stated once here, as unchecked kernels that the other
modules call: ``_half_width``, the pump-broadened half-width ``(1+C)/2`` in
cold linewidths, read by both amplitudes, :func:`power_broadened_fwhm` and
the noise spectra of ``noise``; and ``_efficiency``, the on-resonance law
``4*g*C/(1+C)^2``, read by :func:`peak_efficiency` and the cavity curve of
``snr.normalized_snr_curves``.  The third, the noise slope, is ``noise._slope``.

Each public law here and in ``noise``, ``snr``, ``photon_stats`` and
``fitting`` runs under ``_float_rule``: a float fault in its arithmetic, or a
non-finite result, raises ``ValueError`` naming the innermost law.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

_C_VACUUM = 299_792_458.0  # m/s, exact by definition
# numpy's float policy of the laws and of the CLI's own arithmetic; underflow stays ignored
_FLOAT_FAULTS = {"over": "raise", "divide": "raise", "invalid": "raise"}

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


def _finite(value) -> bool:
    """False for a number or array that is not finite, or a list, tuple or dict holding one.
    Text, None, Python integers (finite past the float range) and dataclasses pass."""
    if isinstance(value, float):  # numpy's float64 too: the cheap test of the common case
        return math.isfinite(value)
    if isinstance(value, (list, tuple, dict)):
        return all(map(_finite, value.values() if isinstance(value, dict) else value))
    if isinstance(value, np.ndarray) and value.dtype.kind not in "biufc":
        return all(map(_finite, value.flat))  # as a list: isfinite takes numbers only
    return not isinstance(value, (complex, np.number, np.ndarray)) or np.isfinite(value).all()


def _require_finite(params) -> None:
    """The finiteness gate of every public dataclass: each of its fields must be ``_finite``."""
    for field in fields(params):
        value = getattr(params, field.name)
        if not _finite(value):
            got = f", got {value}" if np.ndim(value) == 0 else ""
            raise ValueError(f"{field.name} must be finite{got}")


# rule: (the clause a message completes after "must", its test, false for NaN and +-inf)
_RULES = {
    "finite": ("be finite", lambda v: (-math.inf < v) & (v < math.inf)),
    "positive": ("be positive and finite", lambda v: (0 < v) & (v < math.inf)),
    "non-negative": ("be non-negative and finite", lambda v: (0 <= v) & (v < math.inf)),
    "[0, 1]": ("lie in [0, 1]", lambda v: (0 <= v) & (v <= 1)),
    "(0, 1]": ("lie in (0, 1]", lambda v: (0 < v) & (v <= 1)),
    "at least 1": ("be at least 1 and finite", lambda v: (1 <= v) & (v < math.inf)),
    # counts: the integers a float holds exactly, so sums, products and ratios of a few
    # of them stay finite
    "[0, 2**53]": ("lie in [0, 2**53]", lambda v: (0 <= v) & (v <= 2**53)),
    "(0, 2**53]": ("lie in (0, 2**53]", lambda v: (0 < v) & (v <= 2**53)),
}


def _require(rule: str, **values) -> None:
    """The one parameter check of the public laws: reject each named scalar or array
    that is not finite and real or breaks ``rule``, a key of ``_RULES``.  A bool is
    not a number; Python integers are finite and may exceed the float range.  An
    array or list must hold integers or floats, not bools, complex numbers or objects."""
    clause, holds = _RULES[rule]
    for name, value in values.items():
        if isinstance(value, (int, float)):  # numpy's float64 is a float, a bool an int
            ok = holds(value) and not isinstance(value, bool)
        else:
            value = np.asarray(value)  # integer arrays compare exactly, as Python ints do
            ok = value.dtype.kind in "iuf" and holds(value).all()
        if not ok:
            got = f", got {value}" if np.ndim(value) == 0 else ""
            raise ValueError(f"{name} must {clause}{got}")


def _named(name: str, value) -> list[str]:
    """How a failing law names one argument: a number as itself, a dataclass by each of
    its fields, an array, list or tuple by its size, anything else not at all."""
    if is_dataclass(value):
        return [term for field in fields(value)
                for term in _named(f"{name}.{field.name}", getattr(value, field.name))]
    if isinstance(value, (np.ndarray, list, tuple)):
        return [f"{name}=<{np.size(value)} values>"]
    return [f"{name}={value}"] if isinstance(value, (int, float)) else []


def _float_rule(law):
    """``law`` under ``_FLOAT_FAULTS``; a float fault or a non-finite result (a dataclass
    checks its own fields) raises ``ValueError`` naming the law and its arguments.  A
    numpy scalar or 0-d array result is returned as the Python number it holds."""
    @functools.wraps(law)
    def checked(*args, **kwargs):
        try:
            with np.errstate(**_FLOAT_FAULTS):
                result = law(*args, **kwargs)
            if _finite(result):
                return result.item() if getattr(result, "ndim", None) == 0 else result
        except (FloatingPointError, ZeroDivisionError, OverflowError):
            pass
        bound = inspect.signature(law).bind(*args, **kwargs).arguments.items()
        named = ", ".join(term for k, v in bound for term in _named(k, v))
        raise ValueError(f"{law.__name__}({named}) leaves the float range")
    return checked


def _normal(value: float) -> float:
    """``value`` if it is a normal float; a smaller one, which lost its digits to underflow,
    is a float fault of the law that returns it, which ``_float_rule`` reports."""
    if not np.finfo(float).tiny <= value:
        raise FloatingPointError("underflow")
    return value


def _guard(namespace: dict) -> None:
    """Put each public function of a module, listed in its ``__all__``, under ``_float_rule``."""
    for name in namespace["__all__"]:
        if not isinstance(namespace[name], type):
            namespace[name] = _float_rule(namespace[name])


def _is_integer(value) -> bool:
    """True for a Python or NumPy integer; a bool is not a number."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _centered_grid(span: float, samples: int) -> np.ndarray:
    """``samples`` evenly spaced points over ``[-span/2, span/2]``, at least 2 of them."""
    if not _is_integer(samples) or samples < 2:
        raise ValueError(f"samples must be an integer of at least 2, got {samples!r}")
    return np.linspace(-span / 2.0, span / 2.0, samples)


def _pump_power(power_mW) -> np.ndarray:
    """Scalar or array pump power as an array; rejects negative and non-finite entries."""
    _require("non-negative", power_mW=power_mW)
    return np.asarray(power_mW, dtype=float)


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
        _require("positive", fsr_MHz=self.fsr_MHz, gamma_all_MHz=self.gamma_all_MHz)
        _require("[0, 1]", gamma_r_ratio=self.gamma_r_ratio)
        geometry = {"length_mm": self.length_mm, "group_index": self.group_index}
        _require("positive", **{name: v for name, v in geometry.items() if v is not None})
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
        _require("non-negative", power_mW=self.power_mW)
        _require("positive", alpha_tilde_per_mW=self.alpha_tilde_per_mW)

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
        _require("positive", signal_nm=self.signal_nm, pump_nm=self.pump_nm,
                 converted_nm=self.converted_nm)
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
    """Complex transmission / conversion amplitudes over a detuning grid; the pump that
    drove them is the caller's ``PumpDrive``."""

    detunings_MHz: np.ndarray
    t_ss: np.ndarray
    r_rs: np.ndarray

    def __post_init__(self):
        _require_finite(self)
        n = len(self.detunings_MHz)
        if len(self.t_ss) != n or len(self.r_rs) != n:
            raise ValueError("grid and amplitude arrays must have equal length")


def _half_width(coupling):
    """Half-width ``(1+C)/2`` of the pump-broadened line in cold linewidths, unchecked."""
    return 0.5 * (1.0 + coupling)


def _efficiency(gamma_r_ratio, coupling):
    """The on-resonance efficiency law of :func:`peak_efficiency`, unchecked."""
    return 4.0 * gamma_r_ratio * coupling / (1.0 + coupling) ** 2


def transmission_amplitude(cav: CavityParams, drive: PumpDrive, detuning_MHz):
    """Complex amplitude for the signal to pass unconverted.

    ``t = (0.5*(1-C) - i*d) / (0.5*(1+C) - i*d)`` with the detuning
    normalized to the cold linewidth, ``d = detuning / gamma_all``.  At
    ``C = 1`` and zero detuning the cavity is impedance matched and the
    transmission vanishes.  Accepts scalar or array detuning.
    """
    _require("finite", detuning_MHz=detuning_MHz)
    detuning = np.asarray(detuning_MHz, dtype=float)
    coupling = drive.coupling
    d = detuning / cav.gamma_all_MHz
    return (0.5 * (1.0 - coupling) - 1j * d) / (_half_width(coupling) - 1j * d)


def conversion_amplitude(cav: CavityParams, drive: PumpDrive, detuning_MHz):
    """Complex amplitude for the signal to leave in the converted mode.

    ``r = sqrt(gamma_r_ratio) * exp(-i*phase) * sqrt(C) /
    (0.5*(1+C) - i*d)``.  The squared magnitude is bounded by the
    extraction ratio and reaches it exactly at impedance matching on
    resonance.
    """
    _require("finite", detuning_MHz=detuning_MHz)
    detuning = np.asarray(detuning_MHz, dtype=float)
    coupling = drive.coupling
    d = detuning / cav.gamma_all_MHz
    numerator = np.sqrt(cav.gamma_r_ratio) * np.exp(-1j * drive.phase_rad) * np.sqrt(coupling)
    return numerator / (_half_width(coupling) - 1j * d)


def sample_response(cav: CavityParams, drive: PumpDrive, detunings_MHz) -> ConversionResponse:
    """Evaluate both amplitudes over a detuning grid at ``drive``'s pump."""
    _require("finite", detunings_MHz=detunings_MHz)
    detunings = np.atleast_1d(np.asarray(detunings_MHz, dtype=float))
    return ConversionResponse(
        detunings_MHz=detunings,
        t_ss=np.asarray(transmission_amplitude(cav, drive, detunings)),
        r_rs=np.asarray(conversion_amplitude(cav, drive, detunings)),
    )


def peak_efficiency(drive: PumpDrive, gamma_r_ratio: float) -> float:
    """On-resonance conversion efficiency ``4*g*C/(1+C)^2``.

    Unimodal in pump power with its maximum, equal to ``gamma_r_ratio``,
    exactly at ``P = 1/alpha_tilde``.
    """
    _require("[0, 1]", gamma_r_ratio=gamma_r_ratio)
    return _efficiency(gamma_r_ratio, drive.coupling)


def power_broadened_fwhm(cav: CavityParams, drive: PumpDrive) -> float:
    """Pump-broadened resonance width ``gamma_all * (1 + C)`` in MHz."""
    return cav.gamma_all_MHz * (2.0 * _half_width(drive.coupling))


def fsr_from_length(length_mm: float, group_index: float) -> float:
    """Free spectral range ``c / (2 * n_g * L)`` in GHz."""
    _require("positive", length_mm=length_mm, group_index=group_index)
    return _C_VACUUM / (2.0 * group_index * length_mm * 1e-3) * 1e-9


def finesse_from_reflectances(
    r_front: float, r_rear: float, internal_loss_per_pass: float = 0.0
) -> float:
    """Finesse of a two-mirror cavity from its power reflectances.

    Uses the Airy result ``pi * sqrt(rho) / (1 - rho)`` with the round-trip
    amplitude survival ``rho = sqrt(r_front * r_rear) * (1 - loss)``.
    """
    _require("[0, 1]", r_front=r_front, r_rear=r_rear,
             internal_loss_per_pass=internal_loss_per_pass)
    rho = np.sqrt(r_front * r_rear) * (1.0 - internal_loss_per_pass)
    if rho >= 1.0:
        raise ValueError("lossless closed cavity: round-trip survival >= 1")
    return np.pi * np.sqrt(rho) / (1.0 - rho)


def nocavity_efficiency(power_mW: float, B_per_mW: float) -> float:
    """Conversion efficiency of a plain (cavity-free) waveguide.

    ``sin^2(sqrt(B*P))``: full conversion at ``B*P = (pi/2)^2``, complete
    back-conversion at ``B*P = pi^2``.
    """
    power = _pump_power(power_mW)
    _require("positive", B_per_mW=B_per_mW)
    return np.sin(np.sqrt(B_per_mW * power)) ** 2


def alpha_tilde_from_finesse(F_cold: float, B_per_mW: float) -> float:
    """Cavity coupling coefficient implied by the cold finesse.

    Matching the low-power slopes of the cavity efficiency
    ``4*alpha_tilde*P`` and the cavity-enhanced bare-waveguide efficiency
    ``(F/pi)*B*P`` gives ``alpha_tilde = F * B / (4*pi)``, rejected unless it
    is a normal float (an extreme ``F_cold`` takes it out of that range).
    """
    _require("positive", F_cold=F_cold, B_per_mW=B_per_mW)
    return _normal(F_cold * B_per_mW / (4.0 * np.pi))


def dfg_wavelength(signal_nm: float, pump_nm: float) -> float:
    """Wavelength produced by difference-frequency generation (nm)."""
    _require("positive", signal_nm=signal_nm, pump_nm=pump_nm)
    if pump_nm <= signal_nm:
        raise ValueError("pump_nm must exceed signal_nm (divergent otherwise)")
    return 1.0 / (1.0 / signal_nm - 1.0 / pump_nm)


def bandwidth_nm_to_GHz(delta_nm: float, center_nm: float) -> float:
    """Convert a small wavelength bandwidth to frequency, ``c*dl/l^2`` (GHz), rejected
    unless it is a normal float (a subnormal ``delta_nm`` underflows it to zero)."""
    _require("positive", delta_nm=delta_nm, center_nm=center_nm)
    return _normal(_C_VACUUM * (delta_nm * 1e-9) / (center_nm * 1e-9) ** 2 * 1e-9)


_guard(globals())
