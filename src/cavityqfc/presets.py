"""Named parameter presets for the command-line workbench.

``1540`` is the default configuration (conversion of a 780 nm signal to
1540 nm with a 1581 nm pump); ``1522`` is the higher-finesse variant with
a 1600 nm pump; ``nv`` is the anti-resonant SPDC-noise design point that
converts 637 nm to 1587 nm with a 1064 nm pump; the pump's spontaneous
pairs that land in the 1587 nm band have their idler at 3229 nm,
``1/(1/1064 - 1/1587)``.  Every preset detects at its converted
wavelength behind the paper's ``BPF_NM`` filter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conversion import CavityParams, WavelengthConfig, _require, _require_finite
from .noise import NoiseParams

__all__ = ["Preset", "PRESETS", "DEFAULT_PRESET", "BPF_NM"]

# the bandpass filter width, in nm, that the paper puts behind every configuration
BPF_NM = 0.03


@dataclass(frozen=True)
class Preset:
    name: str
    cavity: CavityParams
    alpha_tilde_per_mW: float
    alpha_noise_cps_per_mW: float
    wavelengths: WavelengthConfig
    broadening_MHz_per_mW: float | None = None

    def __post_init__(self):
        _require_finite(self)
        _require("positive", alpha_tilde_per_mW=self.alpha_tilde_per_mW)
        _require("non-negative", alpha_noise_cps_per_mW=self.alpha_noise_cps_per_mW)
        if self.broadening_MHz_per_mW is not None:
            _require("non-negative", broadening_MHz_per_mW=self.broadening_MHz_per_mW)

    def noise(self) -> NoiseParams:
        return NoiseParams.from_cavity(
            self.cavity, self.alpha_noise_cps_per_mW, self.alpha_tilde_per_mW
        )

    @property
    def alpha_MHz_per_mW(self) -> float:
        """Measured linewidth-broadening slope; falls back to the model value."""
        if self.broadening_MHz_per_mW is not None:
            return self.broadening_MHz_per_mW
        return self.alpha_tilde_per_mW * self.cavity.gamma_all_MHz


PRESETS: dict[str, Preset] = {
    "1540": Preset(
        name="1540",
        cavity=CavityParams(
            fsr_MHz=5200.0,
            gamma_all_MHz=70.4,
            gamma_r_ratio=0.7,
            length_mm=13.26,
            group_index=2.1739,
        ),
        alpha_tilde_per_mW=1.0 / 144.0,
        alpha_noise_cps_per_mW=230.0,
        wavelengths=WavelengthConfig(signal_nm=780.0, pump_nm=1581.0, converted_nm=1540.0),
        broadening_MHz_per_mW=0.49,
    ),
    "1522": Preset(
        name="1522",
        cavity=CavityParams(
            fsr_MHz=5200.0,
            gamma_all_MHz=34.4,
            gamma_r_ratio=0.7,
            length_mm=13.26,
            group_index=2.1739,
        ),
        alpha_tilde_per_mW=1.0 / 61.0,
        alpha_noise_cps_per_mW=85.0,
        wavelengths=WavelengthConfig(signal_nm=780.0, pump_nm=1600.0, converted_nm=1522.0),
        broadening_MHz_per_mW=0.56,
    ),
    # anti-resonant SPDC design point: 637 nm converted to 1587 nm with a 1064 nm pump,
    # whose SPDC pairs in the 1587 nm band have their idler at 1/(1/1064 - 1/1587) =
    # 3229 nm; the cavity, finesse 45, is on that idler
    "nv": Preset(
        name="nv",
        cavity=CavityParams(fsr_MHz=5000.0, gamma_all_MHz=5000.0 / 45.0, gamma_r_ratio=1.0),
        alpha_tilde_per_mW=1.0 / 144.0,
        alpha_noise_cps_per_mW=230.0,
        wavelengths=WavelengthConfig(signal_nm=637.0, pump_nm=1064.0, converted_nm=1587.0),
    ),
}

DEFAULT_PRESET = "1540"
