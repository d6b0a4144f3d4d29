"""Exact checks of the sparse coincidence sampler and its delay histogram.

The histogram of labelled click streams, fed in pieces, is compared with
brute-force pair counting, and the sampler's outcome frequencies with an
independent per-photon-number reference that draws the thermal pair number
and tests each detector separately, so the closed-form click probabilities
are not validated against themselves.  The piece-by-piece simulation is
compared with brute-force counting over its joined clicks and with pinned
digests of each seed's histogram, and its traced memory peak with its own
at a quarter of the bins, with a fixed bound and, at a wide span, with the
size of its histogram.
"""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from cavityqfc import SourceModel, photon_stats, simulate_coincidences
from cavityqfc.photon_stats import _CHUNK, _click_chunks, _click_probabilities

ACCEPTANCE = (0.55, 0.1, 0.1, 0.01)
LOW_EFFICIENCY = (0.01, 0.5, 0.002, 0.001)


def brute_force_histogram(herald, signal, k):
    counts = np.zeros(2 * k + 1, dtype=np.int64)
    for i in herald:
        delays = signal - i  # every signal click tried against each herald
        counts += np.bincount(delays[np.abs(delays) <= k] + k, minlength=2 * k + 1)
    return counts


def split_arms(clicks, labels):
    """The herald clicks (labels 1 and 3) and the signal clicks (labels 2 and 3)."""
    return clicks[labels != 2], clicks[labels >= 2]


def sample_clicks(model):
    """Every herald and signal click of the run, the pieces joined."""
    heralds, signals = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for clicks, labels in _click_chunks(model):
        herald, signal = split_arms(clicks, labels)  # copies of a reused buffer's view
        heralds.append(herald)
        signals.append(signal)
    return np.concatenate(heralds), np.concatenate(signals)


def stream_histogram(clicks, labels, cuts, k, shrink=photon_stats._SHRINK):
    """``simulate_coincidences`` over one labelled stream, yielded in pieces cut at ``cuts``."""
    bounds = [0, *sorted(cuts), clicks.size]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(photon_stats, "_SHRINK", shrink)
        patch.setattr(photon_stats, "_click_chunks", lambda model: (
            (clicks[lo:hi], labels[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if hi > lo))
        # the run's bins hold every click, so its singles fit the histogram's rule
        model = SourceModel(0.5, 0.5, 0.5, bins=max(k, 100, int(clicks.max(initial=0)) + 1), seed=0)
        return simulate_coincidences(model, delay_span_bins=k).counts


@st.composite
def labelled_streams(draw):
    """Sorted clicks in 61 bins with labels 1-3, pieces of them, and a span past their reach."""
    by_bin = draw(st.dictionaries(st.integers(0, 60), st.integers(1, 3), max_size=25))
    clicks = np.array(sorted(by_bin), dtype=np.int64)
    labels = np.array([by_bin[c] for c in sorted(by_bin)], dtype=np.int8)
    cuts = draw(st.lists(st.integers(0, clicks.size), max_size=4))
    return clicks, labels, cuts, draw(st.integers(1, 70))


class TestDelayHistogram:
    @settings(max_examples=300, deadline=None)
    @given(stream=labelled_streams(), shrink=st.sampled_from([0.0, 0.5, 2.0]))
    def test_property_against_brute_force(self, stream, shrink):
        # pieces carry tails of 0 to all earlier clicks; each offset is tested
        # once before it is tallied: a shrink of 0 never switches to index
        # passes, one of 2 switches at the first offset, and 0.5 at the first
        # offset where under half the later clicks pair, early or late
        clicks, labels, cuts, k = stream
        expected = brute_force_histogram(*split_arms(clicks, labels), k)
        assert np.array_equal(stream_histogram(clicks, labels, cuts, k, shrink), expected)

    def test_against_brute_force(self):
        # thousands of clicks, some runs dense enough for several full passes
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 3_000))
            clicks = np.flatnonzero(rng.random(n) < rng.random()).astype(np.int64)
            labels = rng.integers(1, 4, clicks.size).astype(np.int8)
            cuts = rng.integers(0, clicks.size + 1, int(rng.integers(0, 6)))
            k = int(rng.integers(1, 60))
            expected = brute_force_histogram(*split_arms(clicks, labels), k)
            assert np.array_equal(stream_histogram(clicks, labels, cuts, k), expected)

    @pytest.mark.parametrize("shorter", ["signal", "herald"])
    def test_each_orientation_against_brute_force(self, shorter):
        # one arm clicks rarely and last, past the end of the other: the
        # frequent arm's clicks pair among themselves and fill the passes
        rng = np.random.default_rng(12)
        few, many = (2, 1) if shorter == "signal" else (1, 2)
        for _ in range(20):
            n = int(rng.integers(20, 400))
            k = int(rng.integers(1, 30))
            clicks = np.append(np.flatnonzero(rng.random(n) < 0.5), n + k // 2)
            labels = np.where(rng.random(clicks.size) < 0.1, few, many).astype(np.int8)
            labels[-1] = few
            herald, signal = split_arms(clicks, labels)
            assert (signal.size < herald.size) == (shorter == "signal")
            cuts = rng.integers(0, clicks.size + 1, 2)
            expected = brute_force_histogram(herald, signal, k)
            assert np.array_equal(stream_histogram(clicks, labels, cuts, k), expected)

    def test_first_pass_under_the_share_tallies_only_pairing_clicks(self, monkeypatch):
        # dense clicks: offsets 1-3 pair 96, 83 and 61 % of the later clicks and
        # offset 4 pairs 38 %, so full passes run before the share test fires
        calls = []
        count_pairs, tally = photon_stats._count_pairs, photon_stats._tally

        def spy_count_pairs(keys, first, codes):
            calls.append((keys.copy(), first, codes.size - 1, []))
            count_pairs(keys, first, codes)

        def spy_tally(codes, codes_j):
            calls[-1][3].append(codes_j.copy())
            tally(codes, codes_j)

        monkeypatch.setattr(photon_stats, "_count_pairs", spy_count_pairs)
        monkeypatch.setattr(photon_stats, "_tally", spy_tally)
        simulate_coincidences(SourceModel(0.55, 0.1, 0.1, 0.01, bins=200_000), 30)
        switches = []
        for (a, b), first, cap, tallies in calls:
            n = a.size
            for j in range(1, n):  # the first offset where under _SHRINK of the later clicks pair
                lo = max(j, first)
                pairing = np.count_nonzero(a[lo:] - b[lo - j : n - j] < cap)
                if pairing < photon_stats._SHRINK * (n - lo):
                    break
            switches.append(j)
            assert [t.size for t in tallies[: j - 1]] == [n - max(i, first) for i in range(1, j)]
            assert tallies[j - 1].max(initial=0) < cap, f"offset {j} tallied clicks past the span"
        assert max(switches) == 4, switches

    def test_all_ones_edges(self):
        ones, both = np.arange(5, dtype=np.int64), np.full(5, 3, np.int8)
        expected = np.array([2, 3, 4, 5, 4, 3, 2], dtype=np.int64)
        for cuts in ([], [2], [1, 2, 3, 4]):
            assert np.array_equal(stream_histogram(ones, both, cuts, 3), expected)

    def test_delay_span_beyond_length(self):
        ones, both = np.arange(4, dtype=np.int64), np.full(4, 3, np.int8)
        wide = stream_histogram(ones, both, [1], 10)
        assert wide.sum() == 16  # every herald-signal pair counted once
        assert np.array_equal(wide, brute_force_histogram(ones, ones, 10))

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        assert np.array_equal(stream_histogram(empty, empty.astype(np.int8), [], 2), np.zeros(5))
        # one arm empty: every click herald only, or every click signal only
        for label in (1, 2):
            one_arm = stream_histogram(np.arange(3), np.full(3, label, np.int8), [1], 2)
            assert np.array_equal(one_arm, np.zeros(5))


def reference_clicks(model, rng, chunk=1_000_000):
    """Per-photon-number sampler: thermal pair number, then one test per arm."""
    mu = model.mean_pairs_per_bin
    ratio = mu / (1.0 + mu)
    n_max = max(8, int(np.ceil(np.log(1e-18) / np.log(ratio))))
    n = np.arange(n_max + 1, dtype=float)
    pair_cdf = 1.0 - ratio ** (n[:-1] + 1.0)
    p_herald = 1.0 - (1.0 - model.herald_efficiency) ** n
    p_signal = 1.0 - (1.0 - model.signal_efficiency) ** n * np.exp(-model.noise_rate_per_bin)
    outcomes = np.zeros(4, dtype=np.int64)  # 00, 10, 01, 11
    for lo in range(0, model.bins, chunk):
        m = min(chunk, model.bins - lo)
        pairs = np.searchsorted(pair_cdf, rng.random(m), side="right")
        herald = rng.random(m) < p_herald[pairs]
        signal = rng.random(m) < p_signal[pairs]
        outcomes += np.bincount(herald + 2 * signal, minlength=4)
    return outcomes


def sparse_outcomes(model):
    herald, signal = sample_clicks(model)
    both = np.intersect1d(herald, signal, assume_unique=True).size
    herald_only = herald.size - both
    signal_only = signal.size - both
    return np.array([model.bins - herald_only - signal_only - both, herald_only, signal_only, both])


class TestAgainstReferenceSampler:
    @pytest.mark.parametrize(
        "params, bins",
        [(ACCEPTANCE, 2_000_000), (LOW_EFFICIENCY, 8_000_000)],
        ids=["acceptance", "low_efficiency"],
    )
    def test_outcome_frequencies_agree(self, params, bins):
        model = SourceModel(*params, bins=bins, seed=404)
        reference = reference_clicks(model, np.random.default_rng(405))
        sparse = sparse_outcomes(model)
        assert reference[3] > 50 and sparse[3] > 50  # both-click cell is populated
        p_value = chi2_contingency(np.vstack([reference, sparse]))[1]
        assert p_value > 1e-3, f"reference {reference}, sparse {sparse}"

    def test_chi_square_detects_a_wrong_efficiency(self):
        model = SourceModel(*ACCEPTANCE, bins=2_000_000, seed=404)
        reference = reference_clicks(model, np.random.default_rng(405))
        mu, eta_h, eta_s, nu = ACCEPTANCE
        wrong = SourceModel(mu, eta_h, 0.95 * eta_s, nu, bins=2_000_000, seed=404)
        p_value = chi2_contingency(np.vstack([reference, sparse_outcomes(wrong)]))[1]
        assert p_value < 1e-6


class TestSamplerEdgeCases:
    def test_no_clicks_gives_zero_histogram(self):
        # q == 0 must not reach rng.geometric(0), which raises
        model = SourceModel(0.55, 0.0, 0.0, 0.0, bins=100_000, seed=1)
        assert _click_probabilities(model)[0] == 0.0
        histogram = simulate_coincidences(model, delay_span_bins=5)
        assert np.array_equal(histogram.counts, np.zeros(11, dtype=np.int64))
        assert histogram.accidental_level == 0.0

    def test_singles_are_the_clicks_of_each_arm(self):
        model = SourceModel(*ACCEPTANCE, bins=1_000_000, seed=11)  # several pieces of clicks
        herald, signal = sample_clicks(model)
        histogram = simulate_coincidences(model, delay_span_bins=3)
        assert (histogram.herald_clicks, histogram.signal_clicks) == (herald.size, signal.size)

    def test_tiny_click_probability_does_not_overflow(self):
        # gaps drawn at q ~ 1e-21 saturate int64; the walk must still end cleanly
        model = SourceModel(1e-12, 1e-9, 1e-9, bins=10**9, seed=2)
        herald, signal = sample_clicks(model)
        assert herald.size == 0 and signal.size == 0

    def test_largest_run_keeps_clicks_in_range(self):
        # at bins = 2**44 the chunk cumsum and the keys 16*bin stay inside int64
        bins = 2**44
        for seed in range(20):
            model = SourceModel(1e-12, 1.0, 1.0, bins=bins, seed=seed)
            for clicks in sample_clicks(model):
                assert np.all(np.diff(clicks) > 0)
                assert np.all((clicks >= 0) & (clicks < bins))
            counts = simulate_coincidences(model).counts
            assert np.array_equal(counts, brute_force_histogram(*sample_clicks(model), 30))

    def test_huge_mean_pair_number(self):
        model = SourceModel(1e6, 0.1, 0.1, bins=2_000, seed=3)
        histogram = simulate_coincidences(model, delay_span_bins=10)
        assert histogram.counts[10] >= 0.99 * 2_000
        assert histogram.counts.sum() > 0

    def test_saturated_model_clicks_in_every_bin(self):
        # saturated model: every bin clicks in both arms (misses ~1e-12 per bin)
        bins = 1_003
        model = SourceModel(1e12, 1.0, 1.0, noise_rate_per_bin=50.0, bins=bins, seed=4)
        assert _click_probabilities(model)[0] == 1.0
        herald, signal = sample_clicks(model)
        assert np.array_equal(signal, np.arange(bins))
        assert np.array_equal(herald, np.arange(bins))
        # every pair within the span is counted: the all-ones histogram
        counts = simulate_coincidences(model, delay_span_bins=5).counts
        assert np.array_equal(counts, bins - np.abs(np.arange(-5, 6)))

    def test_click_indices_sorted_and_in_range(self):
        bins = 100_001
        for clicks in sample_clicks(SourceModel(*ACCEPTANCE, bins=bins, seed=5)):
            assert np.all(np.diff(clicks) > 0)
            assert clicks[0] >= 0 and clicks[-1] < bins

    def test_probabilities_sum_out_the_pair_number(self):
        # closed forms vs a direct sum over the pair number
        for mu, eta_h, eta_s, nu in (ACCEPTANCE, LOW_EFFICIENCY, (2.0, 0.7, 0.3, 0.5)):
            q, p10, p01, p11 = _click_probabilities(SourceModel(mu, eta_h, eta_s, nu))
            n = np.arange(400)
            pn = (mu / (1.0 + mu)) ** n / (1.0 + mu)
            miss_h = (1.0 - eta_h) ** n
            miss_s = (1.0 - eta_s) ** n * np.exp(-nu)
            assert q == pytest.approx(1.0 - (pn * miss_h * miss_s).sum(), rel=1e-12)
            assert p10 == pytest.approx((pn * (1.0 - miss_h) * miss_s).sum(), rel=1e-12)
            assert p01 == pytest.approx((pn * miss_h * (1.0 - miss_s)).sum(), rel=1e-12)
            assert p11 == pytest.approx((pn * (1.0 - miss_h) * (1.0 - miss_s)).sum(), rel=1e-12)


class TestChunkedSimulation:
    @pytest.mark.parametrize("chunk", [3, 50])
    @pytest.mark.parametrize("k", [1, 30, 3000])
    @pytest.mark.parametrize("params", [ACCEPTANCE, LOW_EFFICIENCY], ids=["dense", "sparse"])
    def test_chunks_join_exactly(self, monkeypatch, params, k, chunk):
        # chunks of 3 clicks span fewer than 30 bins, so a tail reaches back
        # over several chunks; the histogram must count every pair once.  At
        # k = 3000 the 48017-slot histogram outnumbers every pass's codes
        monkeypatch.setattr(photon_stats, "_CHUNK", chunk)
        self.assert_joins_exactly(params, k)

    @pytest.mark.parametrize("piece", [2, 7])
    @pytest.mark.parametrize("k", [1, 30])
    @pytest.mark.parametrize("params", [ACCEPTANCE, LOW_EFFICIENCY], ids=["dense", "sparse"])
    def test_pieces_join_exactly(self, monkeypatch, params, k, piece):
        # pieces of 2 or 7 clicks end inside each 50-click chunk and at its
        # end, so tails cross piece and chunk boundaries alike
        monkeypatch.setattr(photon_stats, "_CHUNK", 50)
        monkeypatch.setattr(photon_stats, "_PIECE", piece)
        self.assert_joins_exactly(params, k)

    @staticmethod
    def assert_joins_exactly(params, k):
        model = SourceModel(*params, bins=20_000, seed=11)
        assert sum(1 for _ in _click_chunks(model)) >= 3
        herald, signal = sample_clicks(model)
        counts = simulate_coincidences(model, delay_span_bins=k).counts
        assert np.array_equal(counts, brute_force_histogram(herald, signal, k))

    @staticmethod
    def traced_peak(bins, params=ACCEPTANCE, k=30):
        tracemalloc.start()
        try:
            simulate_coincidences(SourceModel(*params, bins=bins, seed=1), delay_span_bins=k)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_bins(self):
        # the clicks of a run are never held whole: four times the bins
        # must not raise the traced peak by half
        peaks = [self.traced_peak(bins) for bins in (5_000_000, 20_000_000)]
        assert peaks[1] <= 1.5 * peaks[0], f"traced peaks {peaks} bytes"

    def test_memory_is_one_gap_buffer_and_a_piece(self):
        # a 2 MB gap buffer, one piece of clicks and the span come to about
        # 4 MB; whole-chunk click, uniform and outcome arrays would need 9
        peak = self.traced_peak(20_000_000)
        assert peak < 5 * 2**20, f"traced peak {peak / 2**20:.2f} MB"

    def test_wide_span_allocates_one_histogram(self):
        # the 16*(k+1)+1 int64 pair codes are allocated once per run, about
        # 1.7 of them at the peak; a histogram allocated per pass reaches 3.2
        k = 100_000
        peak = self.traced_peak(10**6, LOW_EFFICIENCY, k)
        histogram = (16 * (k + 1) + 1) * 8
        assert peak < 2.5 * histogram, f"traced peak {peak / histogram:.2f} histograms"


# SHA-256 of the little-endian int64 counts each seed has given since the
# sampler was written; both runs cross a piece boundary (about 41k and 60k clicks)
_SEED_DIGESTS = {
    ("dense", 1, 1): "3b474e9e65201395663ea92974885fadb8d0ef53fc160d766c6b1ef11ce6d405",
    ("dense", 1, 2): "acc9c770dc9d503289adc21043a6ae1159ffb69f6c3bcfe798cc84117f506f47",
    ("dense", 1, 3): "63e1d5092a6712c8b6fd204ffdf5aa569fb44ba3ff926116f3ce48e5fd73adc6",
    ("dense", 30, 1): "930c6b5952b1c79bfda00d470fd9f246fe103d5a1d9ea26ebf543a6cd82eff8c",
    ("dense", 30, 2): "b0855da58d7ce5de1762108e234705f58de4e74d0c265da43db8888465072e72",
    ("dense", 30, 3): "900e9627345c55b5421dcef80cb0362bcab546b954c33a11573574f62ce0f61a",
    ("dense", 300, 1): "07bbd9a3232c63dfdcf3310493fc8c263111ad9f082605119e47e38b9fd7f2ce",
    ("dense", 300, 2): "fa8c008c0fd9d592644cbeff13dbc1a44185453f973fd23a2347f76689d68d32",
    ("dense", 300, 3): "3640ac06864a5742131bff8ae32985ec71df8371b2cd6fccfd89415cf0b740f6",
    ("sparse", 1, 1): "74ea6da21775cc178b13cfff94d89277aa40811de0705be1290b8490ad284771",
    ("sparse", 1, 2): "85268aa6f3d017ce9602c0f9795a6fcb9a57d82dfe0fe82b6fa1454af8d0ea06",
    ("sparse", 1, 3): "b44b7ac38ab89ce3e6358f47808f516e6daab5769fc5abe411be1c3247a9b805",
    ("sparse", 30, 1): "dc7fec530bdc3af952180c8e52b332ec4c1da464e29c871956f5734c538081e6",
    ("sparse", 30, 2): "73667e22cbea02acfdba59cea2c0568aa734fc6a9a243d946b726fff069f4c22",
    ("sparse", 30, 3): "68796761a3880cab910ea6b29a89b94027b168ade88c42cab45d44821a0ab5f7",
    ("sparse", 300, 1): "2488b5b976b35f74fc085cd1a33160d2c5e5bf493193e10e75e7d590b8aaccb5",
    ("sparse", 300, 2): "0043580913792e422cad44283ccce13f746aae731c5a42c1be8120755699d550",
    ("sparse", 300, 3): "37f9f6502b96a0e66c09b8fd69a152626ff8bdc10bb2cf6eef029b91b3b4b4df",
}
_REGIMES = {"dense": (ACCEPTANCE, 400_000), "sparse": (LOW_EFFICIENCY, 10_000_000)}


@pytest.mark.parametrize("regime, k, seed", sorted(_SEED_DIGESTS))
def test_each_seed_keeps_its_histogram(regime, k, seed):
    # a change of histogram algorithm must leave every count in place
    params, bins = _REGIMES[regime]
    counts = simulate_coincidences(SourceModel(*params, bins=bins, seed=seed), k).counts
    digest = hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()
    assert digest == _SEED_DIGESTS[regime, k, seed]


def geometric_clicks(model):
    """The sampler as it was with gaps from ``rng.geometric``, chunk by chunk."""
    q, p10, p01, _ = _click_probabilities(model)
    bins = int(model.bins)
    rng = np.random.default_rng(np.random.SeedSequence(model.seed).spawn(1)[0])
    heralds = [np.empty(0, dtype=np.int64)]
    signals = [np.empty(0, dtype=np.int64)]
    last = -1
    while q > 0.0 and last < bins - 1:
        expected = q * (bins - 1 - last)
        size = int(min(_CHUNK, expected + 6.0 * np.sqrt(expected) + 16.0))
        clicks = last + np.cumsum(np.minimum(rng.geometric(q, size), bins + 1))
        clicks = clicks[: np.searchsorted(clicks, bins)]
        last = int(clicks[-1]) if clicks.size == size else bins - 1
        u = rng.random(clicks.size) * q
        heralds.append(clicks[(u < p10) | (u >= p10 + p01)])
        signals.append(clicks[u >= p10])
    return np.concatenate(heralds), np.concatenate(signals)


class TestExponentialGaps:
    @pytest.mark.parametrize(
        "params, bins",
        [
            (ACCEPTANCE, 3_000_000),  # two chunks
            (LOW_EFFICIENCY, 50_000_000),  # two chunks
            ((1.0, 0.05, 0.05, 0.0), 1_000_000),  # acceptance 09
            ((0.55, 0.5, 0.5, 0.0), 5_000),  # few bins, q = 0.29
            (ACCEPTANCE, 200_000),  # the pinned realization
        ],
        ids=["dense", "sparse", "acceptance09", "bins_5000", "pinned"],
    )
    def test_same_clicks_as_rng_geometric_below_a_third(self, params, bins):
        # numpy draws geometric gaps as ceil(E / -log1p(-q)) below q = 1/3
        for seed in range(8):
            model = SourceModel(*params, bins=bins, seed=seed)
            assert _click_probabilities(model)[0] < 1.0 / 3.0
            for ours, reference in zip(sample_clicks(model), geometric_clicks(model)):
                assert np.array_equal(ours, reference)

    @pytest.mark.parametrize(
        "params",
        [(0.5, 1.0, 1.0, 0.0), (1.0, 0.5, 0.5, 0.0), (10.0, 0.9, 0.9, 1.0), (1e3, 1.0, 1.0, 5.0)],
        ids=["q_one_third", "q_0.43", "q_0.97", "q_0.99999"],
    )
    def test_exact_from_a_third_up(self, params):
        # numpy's geometric switches to a search method here, so the clicks
        # differ from rng.geometric's; they must still follow the same law
        bins = 200_000
        model = SourceModel(*params, bins=bins, seed=6)
        q = _click_probabilities(model)[0]
        assert 1.0 / 3.0 <= q < 1.0
        herald, signal = sample_clicks(model)
        for clicks in (herald, signal):
            assert np.all(np.diff(clicks) > 0)
            assert clicks[0] >= 0 and clicks[-1] < bins
        clicking = np.union1d(herald, signal).size
        assert abs(clicking / bins - q) < 5.0 * np.sqrt(q * (1.0 - q) / bins)

    @pytest.mark.parametrize(
        "model",
        [
            SourceModel(1e12, 1.0, 1.0, noise_rate_per_bin=50.0, bins=1_003, seed=4),  # q == 1
            SourceModel(1e-12, 1e-9, 1e-9, bins=10**9, seed=2),  # q ~ 1e-21
            SourceModel(1e-300, 1e-10, 1e-10, bins=10**9, seed=2),  # subnormal q
        ],
        ids=["q_one", "q_1e-21", "q_subnormal"],
    )
    def test_extreme_click_probabilities_raise_no_warning(self, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            herald, signal = sample_clicks(model)
        q = _click_probabilities(model)[0]
        if q == 1.0:
            assert np.array_equal(herald, np.arange(model.bins))
        else:
            assert herald.size == 0 and signal.size == 0
