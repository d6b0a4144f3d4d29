"""Output validation and independent closed forms for the benchmark.

Every check raises ``CheckFailed``; the runner counts the operation as
failed.  The closed forms are written out here from the paper's formulas
rather than imported from the package, so a check does not compare the
program with itself.
"""

from __future__ import annotations

import json
import math

import numpy as np

C_VACUUM = 299_792_458.0  # m/s, exact SI value


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def near(value, expected, rel: float, what: str) -> None:
    require(
        math.isfinite(value) and abs(value - expected) <= rel * abs(expected),
        f"{what}: {value!r} differs from {expected!r} by more than {rel:g} relative",
    )


def within_sigma(value, truth, stderr, k: float, what: str) -> None:
    require(
        math.isfinite(value) and stderr > 0 and abs(value - truth) <= k * stderr,
        f"{what}: {value!r} is not within {k:g} x {stderr!r} of {truth!r}",
    )


def strict_json(text: str):
    """Parse JSON as RFC 8259 defines it: ``NaN`` and ``Infinity`` are errors."""

    def reject(token):
        raise CheckFailed(f"non-finite JSON token {token}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def csv_table(text: str) -> tuple[dict, list[str], np.ndarray]:
    """Provenance, header and a finite float matrix of a workbench CSV."""
    provenance, header, rows = {}, None, []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line.lstrip("#").partition("=")
            provenance[key.strip()] = value.strip()
            continue
        fields = line.split(",")
        if header is None:
            header = fields
            continue
        require(len(fields) == len(header),
                f"row has {len(fields)} fields, header has {len(header)}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise CheckFailed(f"non-numeric CSV row {line!r}") from None
    require(header is not None and rows, "CSV has no header or no rows")
    data = np.asarray(rows)
    require(np.all(np.isfinite(data)), "CSV holds non-finite values")
    return provenance, header, data


def ghz_per_nm(center_nm: float) -> float:
    """Frequency width of 1 nm at ``center_nm``: ``c / lambda^2``."""
    return C_VACUUM / center_nm**2


def wrapped_lorentzian_cdf(u, hwhm_ratio: float):
    """Mass of the unit-per-period wrapped Lorentzian below ``u`` (periods)."""
    u = np.asarray(u, dtype=float)
    k = np.round(u)
    return k + np.arctan(np.tan(np.pi * (u - k)) / np.tanh(np.pi * hwhm_ratio)) / np.pi


def antiresonant_suppression(finesse: float, fsr_GHz: float, bpf_GHz: float) -> float:
    """Flat-spectrum over comb noise in a window centred between two teeth."""
    half = bpf_GHz / (2.0 * fsr_GHz)
    hwhm = 1.0 / (2.0 * finesse)
    comb = wrapped_lorentzian_cdf(0.5 + half, hwhm) - wrapped_lorentzian_cdf(0.5 - half, hwhm)
    return float((bpf_GHz / fsr_GHz) / comb)


def saturating_noise(power_mW, alpha_noise, alpha_tilde, gamma_r_ratio):
    """Cavity noise per FSR: ``g * a_n * P / (2 * (1 + a_t * P))``."""
    return gamma_r_ratio * alpha_noise * power_mW / (2.0 * (1.0 + alpha_tilde * power_mW))


def g2_out(g2_in: float, zeta: float) -> float:
    return (g2_in * zeta + 1.0) / (zeta + 1.0)
