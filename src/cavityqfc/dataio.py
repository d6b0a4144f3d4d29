"""CSV and JSON serialization for the workbench.

CSV dialect: comma-separated, ``#``-prefixed provenance lines before the
header row, ``.`` decimal separator, units embedded in the column names
(``power_mW``, ``fwhm_MHz``, ``wavelength_nm``, ``counts_cps``, ...).
Each column is written by one rule chosen from its dtype: ``%.12g`` for
floats, ``%d`` for integers, ``true``/``false`` for booleans, the text for
strings; finiteness is checked once per column. JSON comes from one writer
in the layout of ``json.dumps(sort_keys=True, indent=2)``, with each array
element on a line of its own as the ``repr`` of a float, so integer arrays
appear as ``1.0``. Both formats format each distinct value of a column
once, keyed by its bit pattern, and repeat the text where the value
recurs; the bytes are those of formatting every element. Identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import NumericFailure, ParseError
from .fitting import _UNITS, ScanSeries

__all__ = [
    "SCHEMA_VERSION",
    "fmt",
    "write_text",
    "render_csv",
    "render_json",
    "read_scan_csv",
]

SCHEMA_VERSION = 3


def fmt(value) -> str:
    """Deterministic scalar formatting for file output.

    A NaN or infinite value raises :class:`~cavityqfc.errors.NumericFailure`,
    so CSV output is as strict as :func:`render_json`.
    """
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if not math.isfinite(value):
        raise NumericFailure(f"result is not a finite number: {value!r}")
    return format(value, ".12g")


def write_text(path: str | None, text: str) -> None:
    """Write to a file, or stdout when path is empty or ``-``."""
    if path in (None, "", "-"):
        sys.stdout.write(text)
        return
    Path(path).write_text(text, encoding="utf-8")


_CSV_SPEC = {"f": "%.12g", "i": "%d", "u": "%d", "b": "%s", "U": "%s"}
_LITERALS = {None: "null", True: "true", False: "false"}


def _format_once(a: np.ndarray, to_text) -> tuple[str, ...] | None:
    """``to_text`` of each element of the 1-D array ``a``, called once per
    distinct bit pattern, so ``-0.0`` and ``0.0`` stay apart; ``None`` when no
    element repeats (or the floats are wider than any unsigned integer)."""
    if a.dtype.kind == "f" and a.itemsize > 8:
        return None
    keys = a.view(f"u{a.itemsize}") if a.dtype.kind == "f" else a
    ordered = np.sort(keys)  # a cheaper test for repeats than np.unique_inverse
    if (ordered[1:] != ordered[:-1]).all():
        return None
    distinct, inverse = np.unique_inverse(keys)
    texts = list(map(to_text, distinct.view(a.dtype).tolist()))
    # a repeat means at least two elements, so itemgetter returns a tuple
    return itemgetter(*inverse.tolist())(texts)


def render_csv(columns: list[tuple[str, np.ndarray]], provenance: dict | None = None) -> str:
    """Render named columns with ``#`` provenance lines and a header row.

    The first NaN or infinity in row order raises ``NumericFailure``; a
    column that is not float, integer or boolean raises ``TypeError``.
    """
    lines = [f"# {key} = {value}" for key, value in (provenance or {}).items()]
    lines.append(",".join(name for name, _ in columns))
    arrays = [np.asarray(col) for _, col in columns]
    if any(len(a) != len(arrays[0]) for a in arrays):
        raise ValueError("all columns must have equal length")
    cells, specs, bad = [], [], []
    for j, a in enumerate(arrays):
        if a.dtype.kind not in _CSV_SPEC:
            raise TypeError(f"cannot write a column of dtype {a.dtype} as CSV")
        if a.dtype.kind == "f" and not np.isfinite(a).all():
            bad.append((int(np.argmin(np.isfinite(a))), j))
        spec = _CSV_SPEC[a.dtype.kind]
        texts = (np.where(a, "true", "false").tolist() if a.dtype.kind == "b"
                 else _format_once(a, spec.__mod__))
        # a column with no repeated value keeps its spec in the row format, so
        # it is formatted in the pass that builds the rows, not a pass of its own
        cells.append(a.tolist() if texts is None else texts)
        specs.append(spec if texts is None else "%s")
    if bad:
        row, j = min(bad)
        raise NumericFailure(f"result is not a finite number: {float(arrays[j][row])!r}")
    row_format = ",".join(specs)
    lines.extend(map(row_format.__mod__, zip(*cells)))
    return "\n".join(lines) + "\n"


def _json(obj, indent: str) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it on a
    line indented by ``indent``, with numpy numbers as Python numbers and each
    1-D array as a list of its elements' ``repr`` as floats."""
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()  # a Python number, but a np.longdouble stays one and is refused
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        try:  # an indent selects json's Python encoder, whose message names the value
            json.dumps(float(obj), allow_nan=False, indent=0)
        except ValueError as exc:
            raise NumericFailure(f"result is not valid JSON: {exc}") from None
    if obj is None or isinstance(obj, bool):
        return _LITERALS[obj]
    if isinstance(obj, (str, int)):
        return json.dumps(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    # one join per container, so an array's text is copied once per level
    if isinstance(obj, dict):
        if any(not isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be str")
        pieces, brackets = [], "{}"
        for key, value in sorted(obj.items()):
            pieces += (sep, json.dumps(key), ": ", _json(value, inner))
    elif isinstance(obj, (list, tuple)):
        pieces, brackets = [], "[]"
        for value in obj:
            pieces += (sep, _json(value, inner))
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "fiub":
        values = obj.astype(float)
        if not np.isfinite(values).all():
            return _json(float(values[np.argmin(np.isfinite(values))]), indent)  # raises
        texts = _format_once(values, float.__repr__) or map(float.__repr__, values.tolist())
        pieces, brackets = ([sep, sep.join(texts)] if values.size else []), "[]"
    elif isinstance(obj, np.ndarray):
        raise TypeError(f"cannot write a {obj.ndim}-D {obj.dtype} array as JSON")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not pieces:
        return brackets
    pieces[0] = "\n" + inner  # the first item takes no comma
    return "".join([brackets[0], *pieces, "\n", indent, brackets[1]])


def render_json(payload: dict) -> str:
    """Render a result object with a schema version, deterministically.

    Output is strict JSON (RFC 8259): a NaN or infinite value raises
    :class:`~cavityqfc.errors.NumericFailure` instead of printing ``NaN``.
    """
    return _json({"schema_version": SCHEMA_VERSION, **payload}, "") + "\n"


def _abscissa_unit(column_name: str) -> str:
    for unit in _UNITS:
        if column_name.endswith("_" + unit):
            return unit
    raise ParseError(
        f"cannot infer abscissa unit from column name {column_name!r}; "
        "expected a _mW, _nm, _GHz or _ns suffix"
    )


def _numbers(text: str) -> list[float]:
    """The comma-separated numbers of ``text``.  ``float`` ignores the
    whitespace around each, as ``str.strip`` does, but would also read ``1_0``
    and non-ASCII digits, which no file that ``render_csv`` writes holds."""
    if not text.isascii() or "_" in text:
        raise ValueError("underscore or non-ASCII character")
    return list(map(float, text.split(",")))


def _fields(row: str) -> list[str]:
    return [f.strip() for f in row.split(",")]


def read_scan_csv(path: str) -> tuple[ScanSeries, dict[str, str]]:
    """Read a two- or three-column scan file.

    Returns the series (third column, when present, is the per-point
    standard deviation) and the provenance key/value pairs from the ``#``
    lines.  Blank and ``#`` lines may stand anywhere.  Data rows hold ASCII
    text without ``_``.  The data block is parsed in one pass; only a faulty
    file is walked again, to name the line.
    """
    texts = list(map(str.strip, Path(path).read_text(encoding="utf-8").splitlines()))
    provenance: dict[str, str] = {}
    for text in texts:
        if text[:1] == "#":
            key, sep, value = text.lstrip("#").strip().partition("=")
            if sep:
                provenance[key.strip()] = value.strip()
    # the 0-based index of the header line and of each data row
    kept = [i for i, text in enumerate(texts) if text and text[0] != "#"]
    if not kept:
        raise ParseError(f"{path}: no data rows")
    header_at, *row_at = kept
    header = _fields(texts[header_at])
    if len(header) < 2:
        raise ParseError("need at least two columns", header_at + 1)
    if not row_at:
        raise ParseError(f"{path}: no data rows")
    rows = [texts[i] for i in row_at]
    commas = list(map(str.count, rows, repeat(",")))
    if commas.count(len(header) - 1) != len(rows):
        k = next(k for k, n in enumerate(commas) if n != len(header) - 1)
        raise ParseError(f"expected {len(header)} fields, got {commas[k] + 1}", row_at[k] + 1)
    try:
        flat = _numbers(",".join(rows))
    except ValueError:
        for k, row in enumerate(rows):
            try:
                _numbers(row)
            except ValueError:
                raise ParseError(f"non-numeric value in {_fields(row)!r}", row_at[k] + 1) from None
        raise
    data = np.array(flat).reshape(len(rows), len(header))
    unit = _abscissa_unit(header[0])
    sigma = data[:, 2] if data.shape[1] >= 3 else None
    # the rules of ScanSeries, checked here to name the first faulty line
    nonfinite = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if nonfinite.size:
        k = nonfinite[0]
        raise ParseError(f"values must be finite, got {_fields(rows[k])!r}", row_at[k] + 1)
    falling = np.flatnonzero(np.diff(data[:, 0]) <= 0)
    if falling.size:
        k = falling[0] + 1
        before, after = (_fields(rows[j])[0] for j in (k - 1, k))
        raise ParseError(
            f"abscissa must be strictly increasing, got {after} after {before}", row_at[k] + 1
        )
    nonpositive = np.flatnonzero(data[:, 2:3] <= 0)  # empty without a sigma column
    if nonpositive.size:
        k = nonpositive[0]
        raise ParseError(f"sigma must be positive, got {_fields(rows[k])!r}", row_at[k] + 1)
    return ScanSeries(data[:, 0], data[:, 1], sigma, unit), provenance
