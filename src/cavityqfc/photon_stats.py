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
sample of the per-bin model, in memory bounded by one chunk and one
histogram of the delay span, at a cost that grows with the clicks and their
pairs within the span, not with the number of bins or the size of the
span's histogram (see ``_click_chunks`` and ``_count_pairs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conversion import (ConversionResponse, _centered_grid, _guard, _is_integer, _require,
                         _require_finite)
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
_MAX_OPERATIONS = 1 << 32  # expected clicks plus pairs within the span: minutes of work
_MAX_SPAN_BYTES = 1 << 28  # pair codes, keys and histogram of the span: 256 MB


@dataclass(frozen=True)
class G2Record:
    """A second-order cross-correlation estimate and its standard error.  The window and
    resolution it was read at are the caller's ``window_ns`` and ``histogram.resolution_ns``."""

    g2: float
    stderr: float

    def __post_init__(self):
        _require_finite(self)
        _require("non-negative", g2=self.g2, stderr=self.stderr)

    @property
    def nonclassical(self) -> bool:
        """True when the estimate exceeds the classical bound 2 by its stderr: a one-sided test at
        one stderr, which fires in 13-18 % of seeds at a true g2 of 2 (ROADMAP.md item 1)."""
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
        _require("positive", mean_pairs_per_bin=self.mean_pairs_per_bin)
        _require("[0, 1]", herald_efficiency=self.herald_efficiency,
                 signal_efficiency=self.signal_efficiency)
        _require("non-negative", noise_rate_per_bin=self.noise_rate_per_bin)
        if not _is_integer(self.bins) or not 1 <= self.bins <= _MAX_BINS:
            raise ValueError(f"bins must be an integer from 1 to 2**44, got {self.bins!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class CoincidenceHistogram:
    """What a coincidence run counted: ``counts`` over delays ``[-k, +k]`` bins of
    ``resolution_ns``, and the singles behind them: of ``bins`` time bins, the herald arm
    clicked in ``herald_clicks`` and the signal arm in ``signal_clicks``.  They fix the level
    :func:`g2_from_histogram` divides by; a hand-built histogram states them.  The delay-0
    count and the singles must fit in the bins: ``n11 <= min(H, S)`` and ``H + S - n11 <= N``.
    Counts and singles lie in ``[0, 2**53]`` and ``bins`` in ``(0, 2**53]``, the integers a
    float holds exactly (2**53 bins of 0.8 ns is 83 days), so the level and every window sum
    are finite.  The delay axis and the low-statistics flag are derived from these fields."""

    counts: np.ndarray
    herald_clicks: float
    signal_clicks: float
    bins: float
    resolution_ns: float

    def __post_init__(self):
        _require_finite(self)
        _require("[0, 2**53]", counts=self.counts, herald_clicks=self.herald_clicks,
                 signal_clicks=self.signal_clicks)
        _require("(0, 2**53]", bins=self.bins)
        _require("positive", resolution_ns=self.resolution_ns)
        if np.ndim(self.counts) != 1 or len(self.counts) % 2 == 0:
            raise ValueError("counts must cover delays [-k, +k]: an odd number of them")
        herald, signal = self.herald_clicks, self.signal_clicks
        n11 = self.counts[len(self.counts) // 2]
        if n11 > min(herald, signal) or herald + signal - n11 > self.bins:
            raise ValueError("the delay-0 count and the singles do not fit in the bins")

    @property
    def delay_bins_ns(self) -> np.ndarray:
        """The delay of each count, ``-k`` to ``+k`` bins of ``resolution_ns``."""
        k = len(self.counts) // 2
        return np.arange(-k, k + 1, dtype=float) * self.resolution_ns

    @property
    def low_statistics(self) -> bool:
        """True when delay 0 holds fewer than 10 coincidences.  Delay 0 is the smallest
        window :func:`g2_from_histogram` reads, so the flag is conservative for wider ones."""
        return bool(self.counts[len(self.counts) // 2] < 10)

    @property
    def accidental_level(self) -> float:
        """Expected accidental counts per delay bin, ``H*S/N`` from the singles; the count
        rule keeps it finite."""
        return self.herald_clicks * self.signal_clicks / self.bins


def g2_out(g2_in: float, zeta: float) -> float:
    """Cross-correlation after admixing Poissonian noise at ratio ``zeta``.

    Monotone in ``zeta``, interpolating between 1 (pure noise) and
    ``g2_in`` (no noise).
    """
    _require("at least 1", g2_in=g2_in)
    if zeta == math.inf:  # the noise-free limit
        return g2_in
    _require("non-negative", zeta=zeta)
    return (g2_in * zeta + 1.0) / (zeta + 1.0)


def zeta_from_g2(g2_in: float, g2_out_value: float) -> float:
    """Signal-to-noise intensity ratio implied by the observed degradation.

    Exact inverse of :func:`g2_out`: ``(g2_out - 1) / (g2_in - g2_out)``.
    """
    _require("at least 1", g2_in=g2_in, g2_out_value=g2_out_value)
    if not 1.0 < g2_out_value < g2_in:
        raise ValueError("need 1 < g2_out < g2_in to infer an intensity ratio")
    return (g2_out_value - 1.0) / (g2_in - g2_out_value)


def predict_nocavity_g2(g2_in: float, zeta: float, enhancement: float) -> float:
    """Cross-correlation the same source would show without the cavity.

    Removing the cavity lowers the conversion efficiency, hence the SNR
    and ``zeta``, by the enhancement factor while the noise is unchanged.
    """
    _require("at least 1", enhancement=enhancement)
    return g2_out(g2_in, zeta / enhancement)


def thermal_source_g2(
    mu: float, eta_herald: float, eta_signal: float, noise_rate_per_bin: float = 0.0
) -> float:
    """Exact click-level cross-correlation of the simulated source model.

    ``p11 / ((p10+p11) * (p01+p11))`` of the per-bin law that the sampler
    and :func:`expected_histogram` read too.  Approaches ``2 + 1/mu`` as the
    efficiencies vanish; at finite efficiency the value is lower, which is
    why quantitative Monte Carlo checks should compare against this
    expression.  Raises ``ValueError``, naming the argument, for what
    :class:`SourceModel` rejects, for an arm that never clicks and for a
    ``p11`` that underflows.
    """
    _require("positive", mu=mu)
    _require("[0, 1]", eta_herald=eta_herald, eta_signal=eta_signal)
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
    ``1 - exp(-nu)`` smaller by the factor ``zeta``.  Raises ``ValueError``
    where that rate is 0 (a blind signal arm, or ``mu*eta`` underflowing),
    since no noise rate then gives any ``zeta``.
    """
    _require("positive", mu=mu, zeta=zeta)
    _require("[0, 1]", eta_signal=eta_signal)
    # with a blind herald every signal click is signal-only: p01 is the arm's rate
    _, _, signal_rate, _ = _click_probabilities(SourceModel(mu, 0.0, eta_signal))
    if signal_rate == 0.0:
        raise ValueError(f"no noise rate gives zeta={zeta!r}: the signal arm never clicks")
    noise_rate = signal_rate / zeta
    if noise_rate >= 1.0:
        raise ValueError("requested zeta implies a noise click rate of one or more")
    return -np.log1p(-noise_rate)


def _normalized_spectrum(offsets_GHz: np.ndarray, weights: np.ndarray) -> ScanSeries:
    norm = np.trapezoid(weights, offsets_GHz)
    return ScanSeries(offsets_GHz, weights / norm, unit="GHz")


def flat_top_spectrum(width_GHz: float, samples: int = 4001) -> ScanSeries:
    """Unit-area rectangular photon spectrum of full width ``width_GHz``."""
    _require("positive", width_GHz=width_GHz)
    offsets = _centered_grid(width_GHz, samples)
    return _normalized_spectrum(offsets, np.ones_like(offsets))


def lorentzian_spectrum(fwhm_GHz: float, span_GHz: float, samples: int = 4001) -> ScanSeries:
    """Unit-area Lorentzian photon spectrum sampled over ``span_GHz``."""
    _require("positive", fwhm_GHz=fwhm_GHz, span_GHz=span_GHz)
    offsets = _centered_grid(span_GHz, samples)
    hwhm = fwhm_GHz / 2.0
    return _normalized_spectrum(offsets, 1.0 / (offsets**2 + hwhm**2))


def gaussian_spectrum(fwhm_GHz: float, span_GHz: float, samples: int = 4001) -> ScanSeries:
    """Unit-area Gaussian photon spectrum sampled over ``span_GHz``."""
    _require("positive", fwhm_GHz=fwhm_GHz, span_GHz=span_GHz)
    offsets = _centered_grid(span_GHz, samples)
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
    return np.trapezoid(photon_spectrum.values * efficiency, photon_spectrum.abscissa)


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
    Pass ``j`` subtracts, then tests once, before it tallies, how many codes
    fall below ``16*(k+1)``, the last index of ``codes``.  While at least
    ``_SHRINK`` of the later clicks pair, it clips there and tallies the whole
    pass; the first pass where fewer do tallies only those that pair, and
    later passes follow them until none is left.  Each pass tallies in time
    and memory that follow its codes, not the ``16*(k+1)+1`` slots of
    ``codes`` (see ``_tally``), so the cost is the pairs counted.
    """
    a, b = keys
    n, cap = a.size, codes.size - 1
    for j in range(1, n):
        lo = max(j, first)
        codes_j = np.subtract(a[lo:], b[lo - j : n - j])
        pairing = codes_j < cap
        if np.count_nonzero(pairing) < _SHRINK * codes_j.size:
            later = np.flatnonzero(pairing)
            _tally(codes, codes_j[later])
            later += lo
            break
        np.minimum(codes_j, cap, out=codes_j)
        _tally(codes, codes_j)
    else:
        return
    while later.size:
        j += 1
        later = later[int(later[0] < j) :]  # the click at index j - 1 has no j-th before it
        codes_j = a[later]
        codes_j -= b[later - j]
        np.minimum(codes_j, cap, out=codes_j)
        _tally(codes, codes_j)
        later = np.compress(codes_j < cap, later)


def _tally(codes: np.ndarray, codes_j: np.ndarray) -> None:
    """Add one to ``codes`` at each of ``codes_j``, in time and memory that follow the smaller."""
    if codes_j.size < codes.size:
        np.add.at(codes, codes_j, 1)
    else:
        codes += np.bincount(codes_j, minlength=codes.size)


def _delay_span(model: SourceModel, delay_span_bins: int) -> int:
    """The span ``k`` of a histogram over delays ``[-k, +k]`` bins, checked against the run."""
    if not _is_integer(delay_span_bins) or delay_span_bins < 1:
        raise ValueError("delay_span_bins must be an integer of at least 1")
    if delay_span_bins > model.bins:
        raise ValueError("delay_span_bins must not exceed model.bins")
    return int(delay_span_bins)


def _check_budget(model: SourceModel, k: int) -> None:
    """Reject a run whose expected work or span memory is over budget, before sampling.

    A run costs about 35 ns per click and 5 ns per pair of clicks within
    ``k`` bins of each other, from either arm: ``q*bins`` clicks and
    ``q^2 * k * (bins - (k+1)/2)`` pairs are expected.  The span's arrays
    are the ``16*(k+1)+1`` pair codes, the ``2*(2^15+k)`` keys and the
    ``2*(2k+1)`` delays and counts returned, eight bytes each.
    """
    q = _click_probabilities(model)[0]
    clicks = q * model.bins
    pairs = q * q * k * (model.bins - (k + 1) / 2.0)
    if clicks + pairs > _MAX_OPERATIONS:
        raise ValueError(f"the run expects {clicks:.3g} clicks and {pairs:.3g} pairs within "
                         f"the span, over the budget of {_MAX_OPERATIONS} operations; "
                         "lower bins or delay_span_bins")
    span_bytes = 8 * (16 * (k + 1) + 1 + 2 * (_PIECE + k) + 2 * (2 * k + 1))
    if span_bytes > _MAX_SPAN_BYTES:
        raise ValueError(f"a span of {k} bins needs {span_bytes} bytes, over the budget of "
                         f"{_MAX_SPAN_BYTES} bytes; lower delay_span_bins")


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
    2 MB gap buffer of one 2^18-click chunk, one piece and the span; the
    span costs one ``128*(k+1)``-byte histogram per run, not one per pass.
    Time grows with the clicks and with the pairs of clicks within ``k``
    bins of each other, from either arm, not with ``bins`` or the size of
    the histogram: a run where one arm clicks far more often pays for that
    arm's pairs too.  No pair lies more than ``bins - 1`` bins apart, so a
    span wider than ``bins`` is rejected, and so is a run whose expected
    clicks and pairs exceed 2^32 or whose span needs more than 256 MB,
    before it samples (see ``_check_budget``).
    """
    k = _delay_span(model, delay_span_bins)
    _require("positive", resolution_ns=resolution_ns)
    _check_budget(model, k)
    # pair codes 16*delay + 4*label_earlier + label_later; the last, dropped, takes delays past k
    codes = np.zeros(16 * (k + 1) + 1, dtype=np.int64)
    keys = np.empty((2, _PIECE + k), dtype=np.int64)  # a tail holds at most k clicks
    clicked = signal = both = tail = 0
    for clicks, labels in _click_chunks(model):
        n = tail + clicks.size
        a, b = keys[:, tail:n]
        np.multiply(clicks, 16, out=a)
        np.subtract(a, 4 * labels, out=b)
        a += labels
        clicked += labels.size
        signal += int(np.count_nonzero(labels >= 2))
        both += int(np.count_nonzero(labels == 3))
        _count_pairs(keys[:, :n], tail, codes)
        # only clicks within k bins of the last can pair again; they may span pieces
        start = int(np.searchsorted(keys[0, :n], 16 * (int(clicks[-1]) - k + 1)))
        tail = n - start
        keys[:, :tail] = keys[:, start:n]
    pairs = codes[:-1].reshape(k + 1, 16)[1:]
    # herald earlier and signal later is delay +d, signal earlier and herald later -d
    plus = pairs[:, 6] + pairs[:, 7] + pairs[:, 14] + pairs[:, 15]
    minus = pairs[:, 9] + pairs[:, 11] + pairs[:, 13] + pairs[:, 15]
    counts = np.concatenate((minus[::-1], [both], plus))
    return CoincidenceHistogram(
        counts=counts,
        herald_clicks=clicked - signal + both,
        signal_clicks=signal,
        bins=model.bins,
        resolution_ns=resolution_ns,
    )


def g2_from_histogram(histogram: CoincidenceHistogram, window_ns: float) -> G2Record:
    """Estimate g2 as the counts at delays ``[0, m)`` over ``m * histogram.accidental_level``.

    The window of ``m`` delay bins opens at delay 0, the middle count, where the model
    puts every correlated pair, and must end within the histogram.  The level is the singles'
    ``H*S/N``, so a one-bin g2 is ``n11*N/(H*S)``, :func:`thermal_source_g2`'s law on the
    run's own tallies.  The standard error is the delta method on ``log g2`` over the
    per-bin click law, to leading order in ``N``.  A wide window dilutes g2 toward one.
    Where ``histogram.low_statistics`` is set, delay 0 holds fewer than 10 counts and the
    error is no longer one sigma.  The record holds g2 and its error only: the window is
    ``window_ns`` and the resolution ``histogram.resolution_ns``.
    """
    _require("finite", window_ns=window_ns)
    m_float = window_ns / histogram.resolution_ns
    m = int(round(m_float)) if math.isfinite(m_float) else 0  # past the float range: no multiple
    if m < 1 or abs(m_float - m) > 1e-9:
        raise ValueError("window_ns must be a positive integer multiple of the resolution")
    counts = np.asarray(histogram.counts)
    start = len(counts) // 2
    if start + m > len(counts):
        raise ValueError(f"window_ns={window_ns:g} runs past the last delay: at most "
                         f"{(len(counts) - start) * histogram.resolution_ns:g} ns from delay 0")
    n, n11 = histogram.bins, float(counts[start])
    herald, signal = histogram.herald_clicks, histogram.signal_clicks
    if herald == 0 or signal == 0:
        raise ValueError("zero accidental counts: g2 ratio undefined")
    h, s = herald / n, signal / n
    window = float(counts[start : start + m].sum())
    # plug-in per-bin law; an empty delay 0 or window reads as one count
    p, w, a, j = max(n11, 1.0) / n, max(window, 1.0) / n, h * s, m - 1
    c, x = p - a, s * (1 - h) + h * (1 - s)
    var_w = p * (1 - p) + j * a * (1 - a + 2 * c) + 2 * j * p * x + j * (j - 1) * a * (x + 2 * c)
    cov_wh = p * (1 - h) + j * (a * (1 - h) + h * c)
    cov_ws = p * (1 - s) + j * (a * (1 - s) + s * c)
    var_log = (var_w / w**2 + (1 - h) / h + (1 - s) / s - 2 * cov_wh / (w * h)
               - 2 * cov_ws / (w * s) + 2 * c / a) / n
    g2 = window / (m * histogram.accidental_level)
    return G2Record(
        g2=float(g2),
        stderr=float(g2 * np.sqrt(max(var_log, 0.0))),  # a law without spread rounds below 0
    )


_guard(globals())
