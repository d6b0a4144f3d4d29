"""Tests for CSV/JSON serialization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavityqfc.dataio import read_scan_csv, render_csv, render_json
from cavityqfc.errors import NumericFailure


@pytest.mark.parametrize(
    "value", [float("nan"), np.inf, np.array([1.0, -np.inf])], ids=["nan", "inf", "array"]
)
def test_render_json_rejects_nonfinite(value):
    with pytest.raises(NumericFailure, match="not valid JSON"):
        render_json({"value": value})


_WORD = st.text("abcdefghijklmnopqrstuvwxyz0123456789_.-", min_size=1, max_size=12)


@given(
    data=st.data(),
    unit=st.sampled_from(["mW", "nm", "GHz", "ns"]),
    with_sigma=st.booleans(),
    provenance=st.dictionaries(_WORD, _WORD, max_size=4),
)
def test_render_csv_round_trips_through_read_scan_csv(
    tmp_path_factory, data, unit, with_sigma, provenance
):
    n = data.draw(st.integers(1, 50))
    start = data.draw(st.floats(-1e3, 1e3))
    steps = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    abscissa = start + np.cumsum(steps)
    values = np.array(data.draw(st.lists(st.floats(-1e12, 1e12), min_size=n, max_size=n)))
    columns = [(f"x_{unit}", abscissa), ("value", values)]
    if with_sigma:
        sigma = data.draw(st.lists(st.floats(1e-9, 1e9), min_size=n, max_size=n))
        columns.append(("sigma", np.array(sigma)))
    path = tmp_path_factory.mktemp("csv") / "scan.csv"
    path.write_text(render_csv(columns, provenance), encoding="utf-8")
    series, read_provenance = read_scan_csv(str(path))
    assert read_provenance == {k: str(v) for k, v in provenance.items()}
    assert series.unit == unit
    for read, (_, written) in zip((series.abscissa, series.values, series.sigma), columns):
        assert np.allclose(read, written, rtol=1e-11, atol=0.0)
    assert (series.sigma is None) == (not with_sigma)
