"""Tests for CSV/JSON serialization.

The column renderers are checked byte for byte against the per-element
renderers they replaced, kept here as references.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavityqfc.dataio import SCHEMA_VERSION, fmt, read_scan_csv, render_csv, render_json
from cavityqfc.errors import NumericFailure, ParseError


def reference_render_csv(columns, provenance=None):
    """One ``fmt`` call per cell, row by row."""
    lines = [f"# {key} = {value}" for key, value in (provenance or {}).items()]
    lines.append(",".join(name for name, _ in columns))
    arrays = [np.asarray(col) for _, col in columns]
    for i in range(len(arrays[0])):
        lines.append(",".join(fmt(a[i]) for a in arrays))
    return "\n".join(lines) + "\n"


def reference_render_json(payload):
    """``json.dumps`` with every array expanded by ``default``, one float at a time."""

    def default(obj):
        if isinstance(obj, np.ndarray):
            return [float(v) for v in obj]
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        raise TypeError(f"not JSON serializable: {type(obj)!r}")

    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)
    return json.dumps(body, sort_keys=True, indent=2, default=default, allow_nan=False) + "\n"


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e16, 1e-5])
_ELEMENTS = {
    "float64": st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS,
    "float32": st.floats(width=32, allow_nan=False, allow_infinity=False),
    "int64": st.integers(-(2**63), 2**63 - 1),
    "uint64": st.integers(0, 2**64 - 1),
    "int8": st.integers(-128, 127),
    "bool": st.booleans(),
    "longdouble": st.floats(allow_nan=False, allow_infinity=False),
}


# small pools, so that a column drawn from one repeats its values
_POOLS = {
    "float64": [0.0, -0.0, 5e-324, -5e-324, 0.1, -2.5, 1e16],
    "float32": [0.0, -0.0, 1e-45, 0.1, -2.5],
    "int64": [0, -1, 7, 2**63 - 1],
    "uint64": [0, 1, 2**64 - 1],
    "int8": [-128, 0, 127],
    "bool": [True, False],
    "longdouble": [0.0, -0.0, 5e-324, 0.1],
}


def columns_of(n):
    """One 1-D array of ``n`` elements of any dtype the renderers write, drawn
    freely or from the dtype's small pool."""
    return st.tuples(st.sampled_from(sorted(_ELEMENTS)), st.booleans()).flatmap(
        lambda pick: st.lists(
            st.sampled_from(_POOLS[pick[0]]) if pick[1] else _ELEMENTS[pick[0]],
            min_size=n, max_size=n,
        ).map(lambda values: np.array(values, dtype=pick[0]))
    )


@pytest.mark.parametrize(
    "value", [float("nan"), np.inf, np.array([1.0, -np.inf])], ids=["nan", "inf", "array"]
)
def test_render_json_rejects_nonfinite(value):
    with pytest.raises(NumericFailure, match="not valid JSON"):
        render_json({"value": value})


@given(data=st.data(), n=st.integers(0, 30), width=st.integers(1, 4))
def test_render_csv_matches_per_cell_reference(data, n, width):
    columns = [(f"c{j}", data.draw(columns_of(n))) for j in range(width)]
    provenance = {"command": "test", "seed": 7}
    assert render_csv(columns, provenance) == reference_render_csv(columns, provenance)


_KEYS = st.text("abcdefgh_", min_size=1, max_size=6)
_LEAVES = (
    st.integers(0, 30).flatmap(columns_of)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text(max_size=8)
)


@given(payload=st.dictionaries(
    _KEYS,
    st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=12),
    max_size=5,
))
def test_render_json_matches_per_element_reference(payload):
    assert render_json(payload) == reference_render_json(payload)


@pytest.mark.parametrize(
    "payload", [{"a": "\x000", "b": np.array([1.0, 2.0])}, {"a": "\x007"}],
    ids=["array_beside", "alone"],
)
def test_render_json_keeps_strings_that_start_with_nul_and_a_digit(payload):
    text = render_json(payload)
    assert text == reference_render_json(payload)
    assert json.loads(text)["a"] == payload["a"]


def test_render_json_writes_nested_arrays_like_the_reference():
    # the shape of the ``model`` JSON: arrays in a list of dicts, one of them empty
    payload = {
        "detunings_MHz": np.linspace(-1.0, 1.0, 5),
        "spectra": [
            {"power_mW": 33.3, "transmission": np.array([0.5, -0.0, 5e-324]),
             "conversion": np.array([], dtype=float)},
            {"power_mW": np.float64(94.0), "counts": np.arange(3),
             "flags": np.array([True, False])},
        ],
    }
    assert render_json(payload) == reference_render_json(payload)


def test_signed_zeros_repeat_with_their_signs():
    zeros = np.array([0.0, -0.0, 0.0, -0.0])
    columns = [("z", zeros), ("n", np.arange(4) % 2)]
    csv_text, json_text = render_csv(columns), render_json({"z": zeros})
    assert csv_text == reference_render_csv(columns)
    assert json_text == reference_render_json({"z": zeros})
    assert csv_text.splitlines()[1:] == ["0,0", "-0,1", "0,0", "-0,1"]
    assert np.signbit(json.loads(json_text)["z"]).tolist() == [False, True, False, True]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row, col", [(0, 0), (3, 1), (5, 2)])
def test_render_csv_rejects_nonfinite_like_the_reference(bad, row, col):
    columns = [(name, np.linspace(0.0, 1.0, 6)) for name in ("a", "b", "c")]
    columns[col][1][row] = bad
    columns[2][1][5] = np.nan  # a later bad value must not be the one reported
    with pytest.raises(NumericFailure) as reference:
        reference_render_csv(columns)
    with pytest.raises(NumericFailure, match="not a finite number") as raised:
        render_csv(columns)
    assert str(raised.value) == str(reference.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_render_json_rejects_nonfinite_in_nested_arrays(bad):
    array = np.linspace(0.0, 1.0, 6)
    array[4] = bad
    payload = {"spectra": [{"ok": np.ones(3)}, {"power_mW": 1.0, "transmission": array}]}
    with pytest.raises(ValueError) as reference:
        reference_render_json(payload)
    with pytest.raises(NumericFailure, match="not valid JSON") as raised:
        render_json(payload)
    assert str(raised.value) == f"result is not valid JSON: {reference.value}"


def test_complex_columns_are_rejected():
    # casting to float would drop the imaginary part
    with pytest.raises(TypeError):
        render_csv([("z", np.array([1 + 1j]))])
    with pytest.raises(TypeError):
        render_json({"z": np.array([1 + 1j])})


def _scan_lines(n):
    return ["# command = test", "", "x_mW,y"] + [f"{i}.5,{2 * i}" for i in range(n)]


@pytest.mark.parametrize(
    "bad_line, message",
    [("1,2,3", "expected 2 fields, got 3"), ("7", "expected 2 fields, got 1"),
     ("7, abc", "non-numeric value in ['7', 'abc']"), ("nan?,1", "non-numeric"),
     # float() reads both as numbers; render_csv writes neither
     ("1_0,1", "non-numeric value in ['1_0', '1']"),
     ("\u0661,1", "non-numeric value in ['\u0661', '1']"),
     ("nan,1", "values must be finite, got ['nan', '1']"),
     ("0,1", "abscissa must be strictly increasing, got 0 after 1496.5")],
)
def test_read_scan_csv_reports_the_bad_line_deep_in_a_file(tmp_path, bad_line, message):
    lines = _scan_lines(2000)
    lines.insert(1500, bad_line)
    path = tmp_path / "scan.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(message)) as raised:
        read_scan_csv(str(path))
    assert raised.value.line == 1501
    assert str(raised.value).startswith("line 1501: ")


@pytest.mark.parametrize("sigma", ["0", "-0.5", "-0"])
def test_read_scan_csv_names_the_line_of_a_nonpositive_sigma(tmp_path, sigma):
    lines = ["x_mW,y,sigma"] + [f"{i}.5,{2 * i},0.1" for i in range(2000)]
    lines[1500] = f"1499.5,2998,{sigma}"
    path = tmp_path / "scan.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as raised:
        read_scan_csv(str(path))
    message = f"sigma must be positive, got ['1499.5', '2998', '{sigma}']"
    assert str(raised.value) == f"line 1501: {message}"


def test_read_scan_csv_skips_comment_and_blank_lines_among_the_rows(tmp_path):
    plain, mixed = tmp_path / "plain.csv", tmp_path / "mixed.csv"
    lines = _scan_lines(40)
    plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines[20:20] = ["# pump realigned", "", "  ", "  # again"]
    mixed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    series, provenance = read_scan_csv(str(mixed))
    want, want_provenance = read_scan_csv(str(plain))
    assert provenance == want_provenance == {"command": "test"}
    assert np.array_equal(series.abscissa, want.abscissa)
    assert np.array_equal(series.values, want.values)
    lines.insert(30, "7, abc")
    mixed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape("non-numeric value in ['7', 'abc']")) as raised:
        read_scan_csv(str(mixed))
    assert raised.value.line == 31


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


def test_render_csv_rejects_unequal_columns():
    with pytest.raises(ValueError, match="^all columns must have equal length$"):
        render_csv([("x", np.arange(3.0)), ("y", np.arange(2.0))])


@pytest.mark.parametrize(
    "payload, message",
    [({"outer": {1: 2.0}}, "^JSON object keys must be str$"),
     ({"tags": {"a", "b"}}, "^Object of type set is not JSON serializable$")],
)
def test_render_json_rejects_what_json_cannot_hold(payload, message):
    with pytest.raises(TypeError, match=message):
        render_json(payload)


@pytest.mark.parametrize(
    "text, message",
    [("power,fwhm_MHz\n1,2\n", "cannot infer abscissa unit from column name 'power'"),
     ("# command = test\npower_mW\n1\n", "line 2: need at least two columns"),
     ("# command = test\npower_mW,fwhm_MHz\n", ": no data rows")],
    ids=["no_unit_suffix", "one_column", "header_only"],
)
def test_read_scan_csv_rejects_a_header_it_cannot_use(tmp_path, text, message):
    path = tmp_path / "scan.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(message)):
        read_scan_csv(str(path))
