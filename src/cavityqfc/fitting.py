"""Parameter estimation from scan data.

Covers the four extraction tasks the workbench needs: straight-line fits of
resonance width vs pump power, the saturating pump-power law of the cavity
noise, Lorentzian linewidth extraction from a single spectrum, and free
spectral range extraction from periodic scans via a periodogram.  Only
these model families are supported; this is not a general fitting
framework.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conversion import _guard, _normal, _require, _require_finite, bandwidth_nm_to_GHz
from .errors import NoPeriodicity, NumericFailure, SamplingError, ShapeError
from .noise import _per_fsr

__all__ = [
    "ScanSeries",
    "FitResult",
    "fit_linear",
    "fit_saturating_noise",
    "extract_fwhm",
    "periodogram",
    "extract_fsr",
    "enhancement_factor",
]

_UNITS = ("mW", "nm", "GHz", "ns")
_LM_MAX_TRIALS = 200  # accepted or rejected Levenberg-Marquardt trial steps
_GOLDEN_STEPS = 58  # golden-section steps of the noise fit: they narrow [0, 1) below 1e-12
_INV_PHI = (5.0**0.5 - 1.0) / 2.0


@dataclass(frozen=True)
class ScanSeries:
    """Ordered (abscissa, value[, sigma]) records from one scan.

    ``unit`` tags the abscissa: pump power in mW, wavelength in nm,
    frequency in GHz or delay in ns.
    """

    abscissa: np.ndarray
    values: np.ndarray
    sigma: np.ndarray | None = None
    unit: str = "GHz"

    def __post_init__(self):
        _require_finite(self)
        _require("finite", abscissa=self.abscissa, values=self.values)  # before the casts
        if self.sigma is not None:
            _require("positive", sigma=self.sigma)
        x = np.asarray(self.abscissa, dtype=float)
        object.__setattr__(self, "abscissa", x)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        if x.ndim != 1 or self.values.shape != x.shape:
            raise ValueError("abscissa and values must be 1-d arrays of equal length")
        if np.any(np.diff(x) <= 0):
            raise ValueError("abscissa must be strictly increasing")
        if self.unit not in _UNITS:
            raise ValueError(f"unit must be one of {_UNITS}")
        if self.sigma is not None and self.sigma.shape != x.shape:
            raise ValueError("sigma must match the abscissa length")

    def __len__(self) -> int:
        return len(self.abscissa)


@dataclass(frozen=True)
class FitResult:
    """Estimates with standard errors; ``iterations`` counts the golden-section
    steps of the noise fit (0 for the closed-form line).  ``converged`` is a
    constant, not a field: neither fit can fail to converge."""

    parameters: dict[str, float]
    std_errors: dict[str, float]
    residual_norm: float
    iterations: int
    converged = True  # fit_linear is closed form; the noise fit takes a fixed step count

    def __post_init__(self):
        _require_finite(self)
        _require("non-negative", residual_norm=self.residual_norm,
                 std_errors=list(self.std_errors.values()))


def _weights(data: ScanSeries) -> np.ndarray:
    if data.sigma is None:
        return np.ones(len(data))
    return 1.0 / data.sigma


def _covariance(jac: np.ndarray, residual_norm: float, data: ScanSeries) -> np.ndarray:
    """Parameter covariance ``(J^T J)^-1`` of a weighted least-squares fit.

    Falls back to the pseudo-inverse for a singular normal matrix.  Without
    per-point sigmas the noise variance is estimated as ``residual_norm /
    dof``; a fit with no spare degree of freedom gets zero covariance.
    """
    normal = jac.T @ jac
    try:
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(normal)
    if data.sigma is None:
        dof = len(data) - jac.shape[1]
        cov = cov * (residual_norm / dof if dof > 0 else 0.0)
    return cov


def _levenberg_marquardt(model, theta0):
    """Minimize ``|r|^2``, where ``model(theta)`` returns the weighted residuals
    ``r`` and their Jacobian, by Levenberg-Marquardt with Marquardt's damping
    ``lam * diag(J^T J)``.  Points are evaluated with float warnings off: a trial is
    rejected unless its cost is finite and below the current one and its Jacobian
    finite; a non-finite start is a ``NumericFailure``.  Stops when a step changes
    ``theta`` or the cost by under 1e-12 relative; returns ``(theta, residuals, jacobian)``.
    """
    theta = np.asarray(theta0, dtype=float)
    with np.errstate(all="ignore"):
        r, jac = model(theta)
        cost = float(r @ r)
    if not (np.isfinite(cost) and np.isfinite(jac).all()):
        raise NumericFailure(f"non-finite residuals or Jacobian at the start point {theta}")
    lam = 0.1
    for _ in range(_LM_MAX_TRIALS):
        grad = jac.T @ r
        normal = jac.T @ jac
        scale = np.sqrt(np.diag(normal))
        scale[scale == 0] = 1.0
        damped = normal / np.outer(scale, scale) + lam * np.eye(scale.size)
        trial = theta + np.linalg.lstsq(damped, -grad / scale, rcond=None)[0] / scale
        done = np.linalg.norm(trial - theta) <= 1e-12 * (1e-12 + np.linalg.norm(theta))
        with np.errstate(all="ignore"):
            r_trial, jac_trial = model(trial)
            cost_trial = float(r_trial @ r_trial)
        if cost_trial < cost and np.isfinite(jac_trial).all():  # false for a NaN cost
            done |= cost - cost_trial <= 1e-12 * cost
            theta, r, jac, cost = trial, r_trial, jac_trial, cost_trial
            lam /= 10.0
        else:
            lam *= 10.0
        if done:
            return theta, r, jac
    raise NumericFailure(f"Levenberg-Marquardt did not converge in {_LM_MAX_TRIALS} "
                         f"trial steps: residual={cost:.3e}, theta={theta}")


def fit_linear(data: ScanSeries) -> FitResult:
    """Weighted least-squares straight line, ``slope * x + intercept``.

    Exact on noiseless linear data; two points give the interpolating line
    with zero residual.
    """
    if len(data) < 2:
        raise ValueError("need at least 2 points for a line")
    # ScanSeries's strictly increasing abscissa keeps two columns independent
    x, y, w = data.abscissa, data.values, _weights(data)
    design = np.column_stack([x, np.ones_like(x)]) * w[:, None]
    rhs = y * w
    coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    residual = design @ coef - rhs
    residual_norm = float(residual @ residual)
    err = np.sqrt(np.diag(_covariance(design, residual_norm, data)))
    return FitResult(
        parameters={"slope": float(coef[0]), "intercept": float(coef[1])},
        std_errors={"slope": float(err[0]), "intercept": float(err[1])},
        residual_norm=residual_norm,
        iterations=0,
    )


def fit_saturating_noise(data: ScanSeries, gamma_r_ratio: float) -> FitResult:
    """Fit the saturating cavity-noise law, estimating both coefficients.

    Model: the law of :func:`~cavityqfc.noise.noise_cavity_per_fsr` with
    ``gamma_r_ratio`` held fixed, as ``Y*r / ((1-t) + t*r)`` with ``r = P/P_max``
    and ``t = alpha_tilde*P_max / (1 + alpha_tilde*P_max)`` in ``[0, 1)``, from the
    linear law to the plateau.  Each ``t`` has a closed-form best ``Y``, and ``t``
    comes from a fixed count of golden-section steps.  The errors come from the
    ``(alpha_noise, alpha_tilde)`` Jacobian; a best ``Y`` not above 0 is a ``ValueError``.
    """
    _require("(0, 1]", gamma_r_ratio=gamma_r_ratio)
    if len(data) < 5:
        raise ValueError("need at least 5 points")
    x, y, w = data.abscissa, data.values, _weights(data)
    positive = x > 0
    if np.count_nonzero(positive) < 3 or x[positive].max() < 5.0 * x[positive].min():
        raise ValueError("powers must span at least a factor of 5")

    p_max = x[-1]
    ratio, wy = x / p_max, w * y
    wratio = w * ratio

    def profile(t):
        """Weighted cost and best ``Y`` at saturation share ``t``."""
        shape = wratio / ((1.0 - t) + t * ratio)
        top = (shape @ wy) / (shape @ shape)
        r = top * shape - wy
        return r @ r, top

    # golden-section search: t is the best point yet, tried against the split of its larger side
    lo, hi, t = 0.0, 1.0, _INV_PHI
    cost = profile(t)[0]
    for _ in range(_GOLDEN_STEPS):
        u = hi - _INV_PHI * (hi - lo) if 2.0 * t > lo + hi else lo + _INV_PHI * (hi - lo)
        cost_u = profile(u)[0]
        if cost_u < cost:
            lo, hi = (lo, t) if u < t else (t, hi)
            t, cost = u, cost_u
        else:
            lo, hi = (u, hi) if u < t else (lo, u)
    top = profile(t)[1]
    if top <= 0:
        raise ValueError("noise values must rise with power")

    a, b = 2.0 * top / ((1.0 - t) * p_max * gamma_r_ratio), t / ((1.0 - t) * p_max)
    f = _per_fsr(a, gamma_r_ratio, b, x)
    r = (f - y) * w
    jac = np.column_stack([f / a, -f * x / (1.0 + b * x)]) * w[:, None]
    residual_norm = float(r @ r)
    err = np.sqrt(np.maximum(np.diag(_covariance(jac, residual_norm, data)), 0.0))
    return FitResult(
        parameters={"alpha_noise": float(a), "alpha_tilde": float(b)},
        std_errors={"alpha_noise": float(err[0]), "alpha_tilde": float(err[1])},
        residual_norm=residual_norm,
        iterations=_GOLDEN_STEPS,
    )


def _median(a: np.ndarray) -> float:
    """Median of a non-empty array: the mean of its one or two middle order
    statistics, as ``np.median`` takes it, without the ``numpy.ma`` import
    of ``np.median``'s first call in a process (about 18 ms)."""
    middle = slice((len(a) - 1) // 2, len(a) // 2 + 1)
    return float(np.mean(np.partition(a, (middle.start, middle.stop - 1))[middle]))


def _half_crossings(x: np.ndarray, y: np.ndarray, level: float) -> np.ndarray:
    """Linear-interpolated abscissa positions where ``y`` crosses ``level``."""
    above = y >= level
    i = np.flatnonzero(above[:-1] != above[1:])
    frac = (level - y[i]) / (y[i + 1] - y[i])
    return x[i] + frac * (x[i + 1] - x[i])


def extract_fwhm(data: ScanSeries) -> tuple[float, float]:
    """Full width at half maximum of a single-peaked series.

    Least-squares Lorentzian fit (peak position, half-width, amplitude,
    offset); if the fit fails or is wider than the scan, the width falls
    back to the linearly interpolated half-maximum crossings that bracket
    the highest sample.  Returns ``(fwhm, uncertainty)`` in abscissa
    units: the fit's 1-sigma error, or on the fallback the largest abscissa
    step, a grid step rather than a 1-sigma error.
    """
    x, y = data.abscissa, data.values
    if len(x) < 8:
        raise ShapeError("need at least 8 points")
    span = float(np.ptp(y))
    if span == 0 or span < 1e-12 * np.max(np.abs(y)):
        raise ShapeError("flat series has no peak")

    # peak regions with hysteresis: one opens at half maximum and closes 8 noise
    # units (the median neighbour step) below it, but not below a quarter of the
    # span, so flank noise cannot split a peak and pure noise still fails
    level = (y - y.min()) / span
    close = max(0.5 - 8.0 * _median(np.abs(np.diff(y))) / span, 0.25)
    state = np.select([level >= 0.5, level < close], [1, -1], 0)
    state = state[state != 0]
    n_regions = int(np.count_nonzero(np.diff(state) == 2) + (state[0] == 1))
    if n_regions > 1:
        raise ShapeError(f"series has {n_regions} peaks, expected a single one")

    half_level = y.min() + 0.5 * (y.max() - y.min())
    if np.count_nonzero(y >= half_level) < 8:
        raise ShapeError("need at least 8 points above half maximum")
    # start from the crossings that bracket the highest sample: the outermost
    # pair can sit on noise spikes far out in the tails
    center0 = float(x[np.argmax(y)])
    crossings = _half_crossings(x, y, half_level)
    k = int(np.searchsorted(crossings, center0))
    if k == 0 or k == len(crossings):
        raise ShapeError("peak is not resolved within the scan")
    width0 = float(crossings[k] - crossings[k - 1])

    offset0 = float(y.min())
    amp0 = float(y.max() - offset0)
    w = _weights(data)

    def model(theta):
        center, hwhm, amp, offset = theta
        u = (x - center) / hwhm
        shape = 1.0 / (1.0 + u * u)
        slope = 2.0 * amp * shape * shape * u / hwhm
        jac = np.column_stack([slope, slope * u, shape, np.ones_like(x)]) * w[:, None]
        return (offset + amp / (1.0 + u * u) - y) * w, jac

    try:
        theta, r, jac = _levenberg_marquardt(model, [center0, width0 / 2.0, amp0, offset0])
        width = 2.0 * abs(float(theta[1]))
        # a width beyond the scan is not constrained by the data
        if 0 < width <= np.ptp(x):
            cov = _covariance(jac, float(r @ r), data)
            return width, 2.0 * float(np.sqrt(max(cov[1, 1], 0.0)))
    except (NumericFailure, np.linalg.LinAlgError):
        pass
    # fall back to the interpolated half-maximum crossings
    return width0, float(np.max(np.diff(x)))


def periodogram(data: ScanSeries) -> tuple[np.ndarray, np.ndarray]:
    """Power spectrum of the linearly detrended series.

    Returns the full two-sided DFT frequency axis (cycles per abscissa
    unit) and ``|X_k|^2 / n``, normalized so the total spectral power
    equals the sum of squared detrended samples.
    """
    x, y = data.abscissa, data.values
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    detrended = y - design @ coef
    spectrum = np.fft.fft(detrended)
    power = np.abs(spectrum) ** 2 / len(x)
    freqs = np.fft.fftfreq(len(x), d=float(np.mean(np.diff(x))))
    return freqs, power


def extract_fsr(data: ScanSeries) -> tuple[float, float]:
    """Dominant periodicity of a scan, reported as an FSR in GHz.

    Wavelength scans are linearized to frequency around the scan center
    before analysis (the comb is periodic in frequency, not wavelength);
    delay scans yield the FSR directly as the fringe frequency.  The
    dominant periodogram peak is refined by quadratic interpolation of the
    three surrounding bins, which biases a peak between bins (-0.57 % on
    0.0005 nm Poisson comb scans, spread 5.4e-4 GHz; ROADMAP.md item 3), and
    quoted with one bin, a resolution bound rather than one sigma.
    """
    if data.unit == "mW":
        raise ValueError("a power scan has no spectral periodicity to extract")
    x, y = data.abscissa, data.values
    if len(x) < 16:
        raise ValueError("need at least 16 samples")

    if data.unit == "nm":
        center = float(np.mean(x))
        ghz_per_nm = bandwidth_nm_to_GHz(1.0, center)
        x = (x - center) * ghz_per_nm
    dx = np.diff(x)
    step = float(np.mean(dx))
    if np.max(np.abs(dx - step)) > 0.01 * abs(step):
        raise SamplingError("abscissa jitter exceeds 1 % of the mean step")

    freqs, power = periodogram(ScanSeries(x, y, unit="GHz" if data.unit != "ns" else "ns"))
    half = len(x) // 2
    pos_power = power[1 : half + 1]
    peak_index = int(np.argmax(pos_power)) + 1
    if power[peak_index] <= 1e-18 * max(float(np.sum(y * y)), 1.0):
        raise NoPeriodicity("series carries no spectral power after detrending")
    if power[peak_index] < 3.0 * _median(pos_power):
        raise NoPeriodicity("dominant peak below 3x the median spectral power")
    if peak_index < 4:
        raise NoPeriodicity("fewer than 4 oscillation periods in the scan span")

    bin_width = 1.0 / (len(x) * step)
    f_hat = freqs[peak_index]
    if peak_index < half:
        p_lo, p_mid, p_hi = power[peak_index - 1 : peak_index + 2]
        denom = p_lo - 2.0 * p_mid + p_hi
        if denom != 0:
            f_hat += 0.5 * (p_lo - p_hi) / denom * bin_width
    f_hat = abs(float(f_hat))

    if data.unit == "ns":
        # fringe frequency in 1/ns is the FSR in GHz
        return f_hat, bin_width
    return 1.0 / f_hat, bin_width / f_hat**2


def enhancement_factor(alpha_tilde: float, B_ref: float, L_ref: float, L: float) -> float:
    """Cavity enhancement inferred from a cavity-free reference device.

    ``4*alpha_tilde / B_ref * (L_ref/L)^2``: the length rescaling accounts
    for the quadratic dependence of the bare conversion coefficient on the
    interaction length.  Compare against the ideal ``F_cold/pi``.  Raises
    ``ValueError`` unless the factor is a normal float.
    """
    _require("positive", alpha_tilde=alpha_tilde, B_ref=B_ref, L_ref=L_ref, L=L)
    return _normal(4.0 * alpha_tilde / B_ref * np.float64(L_ref / L) ** 2)


_guard(globals())
