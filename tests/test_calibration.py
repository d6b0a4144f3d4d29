"""Coverage of the stated uncertainties: one seeded test per estimator.

Each test draws an estimate and its stated error over 100 fixed seeds and
checks that the z-scores against the exact value have a spread within
[0.8, 1.25] and a mean within 0.2, so that "k stderr" means k sigma.
"""

import numpy as np
import pytest

from cavityqfc.photon_stats import (SourceModel, _click_probabilities, expected_histogram,
                                    g2_from_histogram, simulate_coincidences, thermal_source_g2)

SEEDS = range(1, 101)
SPARSE = (0.01, 0.5, 0.002, 0.001)  # delay 0 expects 4.5 counts in 3e5 bins, 15 in 1e6


@pytest.mark.parametrize("params", [(0.55, 0.1, 0.1, 0.01), (1.0, 0.1, 0.1, 0.0)],
                         ids=["acceptance", "mu_1"])
def test_g2_stderr_is_one_sigma(params):
    z = {1: [], 2: []}
    for seed in SEEDS:
        model = SourceModel(*params, bins=1_000_000, seed=seed)
        _, p10, p01, p11 = _click_probabilities(model)
        level = model.bins * (p10 + p11) * (p01 + p11)  # the exact level behind H*S/N
        expected = expected_histogram(model, 1)
        histogram = simulate_coincidences(model, delay_span_bins=6)
        assert not histogram.low_statistics
        for m, scores in z.items():
            record = g2_from_histogram(histogram, 0.8 * m)
            exact = expected[1 : 1 + m].sum() / (m * level)  # the window's ratio from delay 0
            scores.append((record.g2 - exact) / record.stderr)
    for m, scores in z.items():
        mean, spread = np.mean(scores), np.std(scores, ddof=1)
        assert abs(mean) < 0.2, f"window of {m}: z mean {mean:.3f}"
        assert 0.8 <= spread <= 1.25, f"window of {m}: z spread {spread:.3f}"


@pytest.mark.parametrize("bins", [300_000, 1_000_000])
def test_low_statistics_flags_every_estimate_beyond_3_sigma(bins):
    # where delay 0 holds few counts the error is not one sigma: at 3e5 bins 13 of 200
    # seeds land beyond 3 stderr, where one sigma would put 0.5
    exact = thermal_source_g2(*SPARSE)
    flags = []
    for seed in range(1, 201):
        histogram = simulate_coincidences(SourceModel(*SPARSE, bins=bins, seed=seed), 1)
        record = g2_from_histogram(histogram, 0.8)
        if abs(record.g2 - exact) > 3 * record.stderr:
            flags.append(histogram.low_statistics)
    assert flags and all(flags), f"{sum(flags)} of {len(flags)} beyond 3 stderr flagged"
