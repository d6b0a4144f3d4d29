"""Second-order correlation through conversion and noise admixture.

The analytic chain propagates a heralded source's cross-correlation
``g2_in`` through the converter: mixing the converted signal with
uncorrelated Poissonian noise at intensity ratio ``zeta`` degrades it to

    g2_out = (g2_in * zeta + 1) / (zeta + 1),

and removing the cavity divides ``zeta`` by the conversion-enhancement
factor.  A Monte Carlo coincidence simulator validates the chain: each
time bin holds a pair number from a two-mode thermal distribution
``P(n) = mu^n / (1+mu)^(n+1)`` (cross-correlation ``2 + 1/mu`` in the
low-efficiency limit), detectors click with per-photon efficiencies, and
independent Poisson noise contaminates the signal arm.

The pair number is summed out in closed form, once, giving the
probabilities of the four per-bin outcomes (no click, herald only, signal
only, both); the sampler, ``thermal_source_g2`` and ``expected_histogram``
all read that one law.  The simulator places the clicking bins by
geometric skip-ahead and histograms them a piece at a time: an exact
sample of the per-bin model, in memory bounded by one chunk and the delay
span, at a cost that grows with the clicks and their pairs within the span,
not with the number of bins (see ``_click_chunks`` and ``_count_pairs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conversion import ConversionResponse, _require_finite
from .errors import CoverageError
from .fitting import ScanSeries

__all__ = [
    "G2Record",
    "SourceModel",
    "CoincidenceHistogram",
    "g2_out",
    "zeta_from_g2",
    "predict_nocavity_g2",
    "thermal_source_g2",
    "noise_rate_for_intensity_ratio",
    "expected_histogram",
    "flat_top_spectrum",
    "lorentzian_spectrum",
    "gaussian_spectrum",
    "broadband_conversion_efficiency",
    "simulate_coincidences",
    "g2_from_histogram",
]

_CHUNK = 1 << 18  # clicking bins placed per skip-ahead draw
_PIECE = 1 << 15  # clicks labelled and yielded at a time
_SHRINK = 0.5  # share of later clicks still pairing below which passes index them
_MAX_BINS = 1 << 44  # last + 2^18 * (bins + 1) and 16 * bins stay inside int64
_LOW_STATISTICS_BINS = 10_000


@dataclass(frozen=True)
class G2Record:
    """A second-order cross-correlation estimate."""

    g2: float
    stderr: float
    window_ns: float
    resolution_ns: float

    def __post_init__(self):
        _require_finite(self)
        if min(self.g2, self.stderr) < 0:
            raise ValueError("g2 and stderr must be non-negative")
        if min(self.window_ns, self.resolution_ns) <= 0:
            raise ValueError("window_ns and resolution_ns must be positive")

    @property
    def nonclassical(self) -> bool:
        """True when the estimate exceeds the classical bound 2 by its stderr."""
        return self.g2 - self.stderr > 2.0


@dataclass(frozen=True)
class SourceModel:
    """Two-mode thermal pair source with lossy detection and signal noise."""

    mean_pairs_per_bin: float
    herald_efficiency: float
    signal_efficiency: float
    noise_rate_per_bin: float = 0.0
    bins: int = 10_000_000
    seed: int = 0

    def __post_init__(self):
        _require_finite(self)
        if self.mean_pairs_per_bin <= 0:
            raise ValueError("mean_pairs_per_bin must be positive")
        for name in ("herald_efficiency", "signal_efficiency"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.noise_rate_per_bin < 0:
            raise ValueError("noise_rate_per_bin must be non-negative")
        if not _is_integer(self.bins) or not 1 <= self.bins <= _MAX_BINS:
            raise ValueError(f"bins must be an integer from 1 to 2**44, got {self.bins!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Delay-binned coincidence counts."""

    delay_bins_ns: np.ndarray
    counts: np.ndarray
    accidental_level: float
    resolution_ns: float
    low_statistics: bool = False

    def __post_init__(self):
        if len(self.delay_bins_ns) != len(self.counts):
            raise ValueError("delay axis and counts must have equal length")
        for name in ("delay_bins_ns", "counts", "accidental_level", "resolution_ns"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(np.asarray(self.counts) < 0) or self.accidental_level < 0:
            raise ValueError("counts and accidental_level must be non-negative")
        if self.resolution_ns <= 0:
            raise ValueError("resolution_ns must be positive")


def g2_out(g2_in: float, zeta: float) -> float:
    """Cross-correlation after admixing Poissonian noise at ratio ``zeta``.

    Monotone in ``zeta``, interpolating between 1 (pure noise) and
    ``g2_in`` (no noise).
    """
    if g2_in < 1.0:
        raise ValueError("g2_in must be at least 1")
    if zeta < 0.0:
        raise ValueError("zeta must be non-negative")
    if np.isinf(zeta):
        return g2_in
    return (g2_in * zeta + 1.0) / (zeta + 1.0)


def zeta_from_g2(g2_in: float, g2_out_value: float) -> float:
    """Signal-to-noise intensity ratio implied by the observed degradation.

    Exact inverse of :func:`g2_out`: ``(g2_out - 1) / (g2_in - g2_out)``.
    """
    if not 1.0 < g2_out_value < g2_in:
        raise ValueError("need 1 < g2_out < g2_in to infer an intensity ratio")
    return (g2_out_value - 1.0) / (g2_in - g2_out_value)


def predict_nocavity_g2(g2_in: float, zeta: float, enhancement: float) -> float:
    """Cross-correlation the same source would show without the cavity.

    Removing the cavity lowers the conversion efficiency, hence the SNR
    and ``zeta``, by the enhancement factor while the noise is unchanged.
    """
    if enhancement < 1.0:
        raise ValueError("enhancement must be at least 1")
    return g2_out(g2_in, zeta / enhancement)


def thermal_source_g2(
    mu: float, eta_herald: float, eta_signal: float, noise_rate_per_bin: float = 0.0
) -> float:
    """Exact click-level cross-correlation of the simulated source model.

    ``p11 / ((p10+p11) * (p01+p11))`` of the per-bin law that the sampler
    and :func:`expected_histogram` read too.  Approaches ``2 + 1/mu`` as the
    efficiencies vanish; at finite efficiency the value is lower, which is
    why quantitative Monte Carlo checks should compare against this
    expression.  Raises ``ValueError`` for what :class:`SourceModel`
    rejects, for an arm that never clicks and for a ``p11`` that underflows.
    """
    model = SourceModel(mu, eta_herald, eta_signal, noise_rate_per_bin)
    _, p10, p01, p11 = _click_probabilities(model)
    # p11 > 0 wherever both arms click; below the normal range g2 loses its digits
    if p11 < np.finfo(float).tiny:
        raise ValueError("g2 is undefined where an arm never clicks or p11 underflows")
    return p11 / (p10 + p11) / (p01 + p11)


def noise_rate_for_intensity_ratio(mu: float, eta_signal: float, zeta: float) -> float:
    """Poisson noise mean per bin giving signal/noise ratio ``zeta``.

    The signal-arm click rate without noise is ``mu*eta/(1 + mu*eta)``;
    the returned ``nu`` makes the standalone noise click rate
    ``1 - exp(-nu)`` smaller by the factor ``zeta``.
    """
    if not 0.0 < zeta < np.inf:
        raise ValueError("zeta must be positive and finite")
    # with a blind herald every signal click is signal-only: p01 is the arm's rate
    _, _, signal_rate, _ = _click_probabilities(SourceModel(mu, 0.0, eta_signal))
    noise_rate = signal_rate / zeta
    if noise_rate >= 1.0:
        raise ValueError("requested zeta implies a noise click rate of one or more")
    return float(-np.log1p(-noise_rate))


def _normalized_spectrum(offsets_GHz: np.ndarray, weights: np.ndarray) -> ScanSeries:
    norm = np.trapezoid(weights, offsets_GHz)
    return ScanSeries(offsets_GHz, weights / norm, unit="GHz")


def flat_top_spectrum(width_GHz: float, samples: int = 4001) -> ScanSeries:
    """Unit-area rectangular photon spectrum of full width ``width_GHz``."""
    if width_GHz <= 0:
        raise ValueError("width_GHz must be positive")
    offsets = np.linspace(-width_GHz / 2.0, width_GHz / 2.0, samples)
    return _normalized_spectrum(offsets, np.ones_like(offsets))


def lorentzian_spectrum(fwhm_GHz: float, span_GHz: float, samples: int = 4001) -> ScanSeries:
    """Unit-area Lorentzian photon spectrum sampled over ``span_GHz``."""
    if fwhm_GHz <= 0 or span_GHz <= 0:
        raise ValueError("fwhm_GHz and span_GHz must be positive")
    offsets = np.linspace(-span_GHz / 2.0, span_GHz / 2.0, samples)
    hwhm = fwhm_GHz / 2.0
    return _normalized_spectrum(offsets, 1.0 / (offsets**2 + hwhm**2))


def gaussian_spectrum(fwhm_GHz: float, span_GHz: float, samples: int = 4001) -> ScanSeries:
    """Unit-area Gaussian photon spectrum sampled over ``span_GHz``."""
    if fwhm_GHz <= 0 or span_GHz <= 0:
        raise ValueError("fwhm_GHz and span_GHz must be positive")
    offsets = np.linspace(-span_GHz / 2.0, span_GHz / 2.0, samples)
    sigma = fwhm_GHz / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    return _normalized_spectrum(offsets, np.exp(-0.5 * (offsets / sigma) ** 2))


def broadband_conversion_efficiency(
    photon_spectrum: ScanSeries, response: ConversionResponse
) -> float:
    """Conversion efficiency of a photon wider than the cavity line.

    Trapezoidal quadrature of ``S(d) * |r_rs(d)|^2`` over the photon
    spectrum (abscissa in GHz offset from resonance, unit area).  The
    sampled response must cover the photon's support.
    """
    if photon_spectrum.unit != "GHz":
        raise ValueError("photon spectrum abscissa must be tagged GHz")
    offsets_MHz = photon_spectrum.abscissa * 1e3
    grid = response.detunings_MHz
    if offsets_MHz[0] < grid.min() - 1e-9 or offsets_MHz[-1] > grid.max() + 1e-9:
        raise CoverageError("response grid narrower than the photon spectrum")
    area = np.trapezoid(photon_spectrum.values, photon_spectrum.abscissa)
    if abs(area - 1.0) > 1e-6:
        raise ValueError(f"photon spectrum must have unit area, got {area:.6g}")
    efficiency = np.interp(offsets_MHz, grid, np.abs(response.r_rs) ** 2)
    return float(np.trapezoid(photon_spectrum.values * efficiency, photon_spectrum.abscissa))


def _click_probabilities(model: SourceModel) -> tuple[float, float, float, float]:
    """Per-bin probabilities ``(q, p10, p01, p11)`` with the pair number summed out.

    The one statement of the per-bin law: ``q = 1 - p00`` is the chance that
    a bin clicks at all, ``p10`` that only the herald clicks, ``p01`` that
    only the signal clicks and ``p11`` that both do.  With ``p00 =
    keep/(1+c)``, ``p10 = keep/(1+b) - p00``, ``p01 = 1/(1+a) - p00`` and
    ``p11 = q - p10 - p01``; each is written below as sums of non-negative
    terms, so the low-efficiency regime keeps full relative precision.
    ``p11 = a*N / ((1+a)*(1+b)*(1+c))`` with ``N = b*(1+c) + b*(1-eta_h) +
    (1+a)*(eta_s - expm1(-nu)*(1-eta_s))``, divided through so that no
    product overflows at a huge ``mu``.
    """
    mu = model.mean_pairs_per_bin
    eta_h, eta_s = model.herald_efficiency, model.signal_efficiency
    nu = model.noise_rate_per_bin
    a, b = mu * eta_h, mu * eta_s
    c = mu * (eta_h + eta_s - eta_h * eta_s)
    keep = np.exp(-nu)
    q = (c - np.expm1(-nu)) / (1.0 + c)
    p10 = keep * a * (1.0 - eta_s) / ((1.0 + b) * (1.0 + c))
    p01 = (b * (1.0 - eta_h) - np.expm1(-nu) * (1.0 + a)) / ((1.0 + a) * (1.0 + c))
    rest = b * (1.0 - eta_h) + (1.0 + a) * (eta_s - np.expm1(-nu) * (1.0 - eta_s))
    p11 = a / (1.0 + a) * (b / (1.0 + b) + rest / ((1.0 + b) * (1.0 + c)))
    return float(q), float(p10), float(p01), float(p11)


def _click_chunks(model: SourceModel):
    """Yield the clicking bins in order, a piece at a time, with their labels.

    Clicking bins are placed by geometric skip-ahead, up to ``_CHUNK`` per
    chunk, and one uniform on ``[0, q)`` per click labels it 1 (herald
    only), 2 (signal only) or 3 (both).  Each gap is drawn by exponential
    inversion, ``floor(E / -log1p(-q)) + 1`` with ``E`` a standard
    exponential, which is how numpy's ``Generator.geometric`` draws below
    ``q = 1/3``: there every seed gives the same clicks as ``rng.geometric``
    would.  From ``q = 1/3`` numpy switches to a search method, so
    realizations there differ from ``rng.geometric``'s while remaining
    exact samples of the same law.

    The stream gives a chunk's gaps first and then its uniforms, so
    ``_CHUNK`` decides which uniform goes with which click: shrinking it
    would change every seed's realization.  The gaps are drawn into one
    float buffer of the first chunk's size (2 MB at most) and turned into
    int64 clicks in place, which are yielded as views, valid until the next
    piece.  Each piece of up to ``_PIECE`` clicks draws its uniforms into one
    reused buffer when the generator resumes, keeping the stream's order.
    """
    q, p10, p01, _ = _click_probabilities(model)
    bins = int(model.bins)
    # math.log1p is the C log1p numpy's geometric uses; at q == 1 every gap is 1
    rate = -math.log1p(-q) if q < 1.0 else math.inf
    # the first child of the seed's SeedSequence, so that each seed keeps the
    # realization it has given since the sampler was written
    rng = np.random.default_rng(np.random.SeedSequence(model.seed).spawn(1)[0])
    gaps = uniforms = None
    last = -1
    while q > 0.0 and last < bins - 1:
        expected = q * (bins - 1 - last)
        size = int(min(_CHUNK, expected + 6.0 * np.sqrt(expected) + 16.0))
        if gaps is None:  # the first chunk is the largest
            gaps = np.empty(size)
            uniforms = np.empty(min(size, _PIECE))
        draws = rng.standard_exponential(out=gaps[:size])
        with np.errstate(over="ignore"):  # E / rate is inf for subnormal rates
            np.divide(draws, rate, out=draws)
        # gaps beyond the last bin end the walk; clipping them keeps cumsum in range
        np.minimum(draws, bins, out=draws)
        clicks = draws.view(np.int64)
        np.copyto(clicks, draws, casting="unsafe")  # truncation is floor for these draws
        clicks += 1
        clicks[0] += last
        np.cumsum(clicks, out=clicks)
        clicks = clicks[: np.searchsorted(clicks, bins)]
        last = int(clicks[-1]) if clicks.size == size else bins - 1
        for start in range(0, clicks.size, _PIECE):
            piece = clicks[start : start + _PIECE]
            u = rng.random(out=uniforms[: piece.size])
            u *= q
            labels = (u >= p10).view(np.int8) + (u >= p10 + p01).view(np.int8) + 1
            yield piece, labels


def _count_pairs(keys: np.ndarray, first: int, codes: np.ndarray) -> None:
    """Count the code of each pair of keyed clicks whose later one is at ``first`` or after.

    ``keys`` holds ``A = 16*bin + label`` and ``B = 16*bin - 4*label`` of
    bin-sorted clicks, so ``A[m] - B[m-j] = 16*delay + 4*label[m-j] + label[m]``.
    Pass ``j`` subtracts, clips at ``16*(k+1)`` (the last index of ``codes``)
    and bincounts, until an offset pairs nothing; once fewer than ``_SHRINK``
    of the later clicks pair, it follows the shrinking set of those that do.
    """
    a, b = keys
    n, cap = a.size, codes.size - 1
    for j in range(1, n):
        lo = max(j, first)
        codes_j = np.subtract(a[lo:], b[lo - j : n - j])
        np.minimum(codes_j, cap, out=codes_j)
        hits = np.bincount(codes_j, minlength=cap + 1)
        codes += hits
        if codes_j.size - hits[cap] < _SHRINK * codes_j.size:
            break
    else:
        return
    later = np.flatnonzero(codes_j < cap) + lo
    while later.size:
        j += 1
        later = later[int(later[0] < j) :]  # the click at index j - 1 has no j-th before it
        codes_j = a[later]
        codes_j -= b[later - j]
        np.minimum(codes_j, cap, out=codes_j)
        codes += np.bincount(codes_j, minlength=cap + 1)
        later = np.compress(codes_j < cap, later)


def _delay_span(model: SourceModel, delay_span_bins: int) -> int:
    """The span ``k`` of a histogram over delays ``[-k, +k]`` bins, checked against the run."""
    if not _is_integer(delay_span_bins) or delay_span_bins < 1:
        raise ValueError("delay_span_bins must be an integer of at least 1")
    if delay_span_bins > model.bins:
        raise ValueError("delay_span_bins must not exceed model.bins")
    return int(delay_span_bins)


def expected_histogram(model: SourceModel, delay_span_bins: int) -> np.ndarray:
    """Expected coincidence counts over delays ``[-k, +k]`` bins.

    The mean over seeds of :func:`simulate_coincidences`'s counts, from the
    per-bin law: bins are independent, so delay 0 expects ``bins * p11``
    and delay ``d`` expects ``(bins - |d|) * (p10+p11) * (p01+p11)``, one
    herald-arm and one signal-arm click probability per bin pair.
    """
    k = _delay_span(model, delay_span_bins)
    _, p10, p01, p11 = _click_probabilities(model)
    expected = (model.bins - np.abs(np.arange(-k, k + 1))) * ((p10 + p11) * (p01 + p11))
    expected[k] = model.bins * p11
    return expected


def simulate_coincidences(
    model: SourceModel, delay_span_bins: int = 30, resolution_ns: float = 0.8
) -> CoincidenceHistogram:
    """Simulate a coincidence histogram over delays ``[-k, +k]`` bins.

    All ``model.bins`` time bins are drawn from one random stream seeded by
    ``model.seed``, so a seed always gives the same histogram.  Each piece
    of 2^15 clicks is histogrammed as soon as it is drawn, together with
    the earlier clicks within ``k`` bins of it, so memory is bounded by the
    2 MB gap buffer of one 2^18-click chunk, one piece and the span.  Time
    grows with the clicks and with the pairs of clicks within ``k`` bins of
    each other, from either arm, not with ``bins``: a run where one arm
    clicks far more often pays for that arm's pairs too.  No pair lies more
    than ``bins - 1`` bins apart, so a span wider than ``bins`` is rejected.
    """
    k = _delay_span(model, delay_span_bins)
    if isinstance(resolution_ns, bool) or not 0.0 < resolution_ns < np.inf:
        raise ValueError("resolution_ns must be positive and finite")
    # pair codes 16*delay + 4*label_earlier + label_later; the last counts delays past k
    codes = np.zeros(16 * (k + 1) + 1, dtype=np.int64)
    keys = np.empty((2, _PIECE + k), dtype=np.int64)  # a tail holds at most k clicks
    both = tail = 0
    for clicks, labels in _click_chunks(model):
        n = tail + clicks.size
        a, b = keys[:, tail:n]
        np.multiply(clicks, 16, out=a)
        np.subtract(a, 4 * labels, out=b)
        a += labels
        both += int(np.count_nonzero(labels == 3))
        _count_pairs(keys[:, :n], tail, codes)
        # only clicks within k bins of the last can pair again; they may span pieces
        start = int(np.searchsorted(keys[0, :n], 16 * (int(clicks[-1]) - k + 1)))
        tail = n - start
        keys[:, :tail] = keys[:, start:n]
    pairs = codes[:-1].reshape(k + 1, 16)
    # herald earlier and signal later is delay +d, signal earlier and herald later -d
    minus, plus = pairs[:0:-1, [9, 11, 13, 15]].sum(axis=1), pairs[1:, [6, 7, 14, 15]].sum(axis=1)
    counts = np.concatenate((minus, [both], plus))
    return CoincidenceHistogram(
        delay_bins_ns=np.arange(-k, k + 1, dtype=float) * resolution_ns,
        counts=counts,
        accidental_level=float(np.delete(counts, k).mean()),
        resolution_ns=resolution_ns,
        low_statistics=model.bins < _LOW_STATISTICS_BINS,
    )


def g2_from_histogram(histogram: CoincidenceHistogram, window_ns: float) -> G2Record:
    """Estimate g2 as peak-window counts over the accidental expectation.

    The window must span an integer number of delay bins; it is placed on
    the contiguous stretch with the highest total.  The standard error
    propagates Poisson fluctuations of both the window and the off-window
    counts.  Widening the window beyond the correlation peak dilutes the
    estimate toward one.
    """
    if not np.isfinite(window_ns):
        raise ValueError("window_ns must be finite")
    m_float = window_ns / histogram.resolution_ns
    m = int(round(m_float))
    if m < 1 or abs(m_float - m) > 1e-9:
        raise ValueError("window_ns must be a positive integer multiple of the resolution")
    counts = np.asarray(histogram.counts, dtype=float)
    n_bins = len(counts)
    if n_bins - m < 10:
        raise ValueError("need at least 10 off-window bins for the accidental level")
    window_sums = np.convolve(counts, np.ones(m), mode="valid")
    start = int(np.argmax(window_sums))
    peak = float(window_sums[start])
    off = np.concatenate([counts[:start], counts[start + m :]])
    off_total = float(off.sum())
    if off_total == 0:
        raise ValueError("zero accidental counts: g2 ratio undefined")
    accidental_per_window = off.mean() * m
    g2 = peak / accidental_per_window
    stderr = g2 * np.sqrt(1.0 / max(peak, 1.0) + 1.0 / off_total)
    return G2Record(
        g2=float(g2),
        stderr=float(stderr),
        window_ns=float(window_ns),
        resolution_ns=histogram.resolution_ns,
    )
