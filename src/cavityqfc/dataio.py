"""CSV and JSON serialization for the workbench.

CSV dialect: comma-separated, ``#``-prefixed provenance lines before the
header row, ``.`` decimal separator, units embedded in the column names
(``power_mW``, ``fwhm_MHz``, ``wavelength_nm``, ``counts_cps``, ...).
Each column is written by one rule chosen from its dtype: ``%.12g`` for
floats, ``%d`` for integers, ``true``/``false`` for booleans; finiteness is
checked once per column. JSON arrays are written as the ``repr`` of each
element as a float, so integer arrays appear as ``1.0``. Identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import re
import sys
from itertools import chain
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


_CSV_SPEC = {"f": "%.12g", "i": "%d", "u": "%d", "b": "%s"}

# render_json's placeholder for an array, with the indentation and key of its
# line; json.dumps escapes the NUL, which no name, number or file path holds
_ARRAY_SLOT = re.compile(r'^(( *).*)"\\u0000(\d+)"(?=,?$)', re.MULTILINE)


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
    cells, bad = [], []
    for j, a in enumerate(arrays):
        if a.dtype.kind not in _CSV_SPEC:
            raise TypeError(f"cannot write a column of dtype {a.dtype} as CSV")
        if a.dtype.kind == "f" and not np.isfinite(a).all():
            bad.append((int(np.argmin(np.isfinite(a))), j))
        cells.append(np.where(a, "true", "false").tolist() if a.dtype.kind == "b" else a.tolist())
    if bad:
        row, j = min(bad)
        raise NumericFailure(f"result is not a finite number: {float(arrays[j][row])!r}")
    row_format = ",".join(_CSV_SPEC[a.dtype.kind] for a in arrays)
    lines.extend(map(row_format.__mod__, zip(*cells)))
    return "\n".join(lines) + "\n"


def render_json(payload: dict) -> str:
    """Render a result object with a schema version, deterministically.

    Output is strict JSON (RFC 8259): a NaN or infinite value raises
    :class:`~cavityqfc.errors.NumericFailure` instead of printing ``NaN``.
    """
    arrays: list[list[float]] = []

    def stash(obj):
        if isinstance(obj, dict):
            return {key: stash(value) for key, value in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [stash(value) for value in obj]
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if not isinstance(obj, np.ndarray):
            return obj
        if obj.ndim != 1 or obj.dtype.kind not in _CSV_SPEC:
            raise TypeError(f"cannot write a {obj.ndim}-D {obj.dtype} array as JSON")
        values = obj.astype(float)
        if not np.isfinite(values).all():
            # json.dumps then rejects the first bad value where it sits
            return float(values[np.argmin(np.isfinite(values))])
        arrays.append(values.tolist())
        return f"\0{len(arrays) - 1}" if values.size else []

    def expand(slot: re.Match) -> str:
        line, indent, values = slot[1], slot[2], arrays[int(slot[3])]
        items = f",\n  {indent}".join(map(float.__repr__, values))
        return f"{line}[\n  {indent}{items}\n{indent}]"

    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)
    try:
        text = json.dumps(stash(body), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericFailure(f"result is not valid JSON: {exc}") from None
    return _ARRAY_SLOT.sub(expand, text) + "\n"


def _abscissa_unit(column_name: str) -> str:
    for unit in _UNITS:
        if column_name.endswith("_" + unit):
            return unit
    raise ParseError(
        f"cannot infer abscissa unit from column name {column_name!r}; "
        "expected a _mW, _nm, _GHz or _ns suffix"
    )


def read_scan_csv(path: str) -> tuple[ScanSeries, dict[str, str]]:
    """Read a two- or three-column scan file.

    Returns the series (third column, when present, is the per-point
    standard deviation) and the provenance key/value pairs from the ``#``
    lines.
    """
    raw = Path(path).read_text(encoding="utf-8")
    provenance: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                provenance[key.strip()] = value.strip()
            continue
        fields = stripped.split(",")
        if header is None:
            header = [f.strip() for f in fields]
            if len(header) < 2:
                raise ParseError("need at least two columns", lineno)
            continue
        if len(fields) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(fields)}", lineno
            )
        rows.append((lineno, fields))
    if header is None or not rows:
        raise ParseError(f"{path}: no data rows")
    try:
        # float() ignores the whitespace around a field, as str.strip() does
        flat = list(map(float, chain.from_iterable(fields for _, fields in rows)))
    except ValueError:
        for lineno, fields in rows:
            try:
                list(map(float, fields))
            except ValueError:
                fields = [f.strip() for f in fields]
                raise ParseError(f"non-numeric value in {fields!r}", lineno) from None
        raise
    data = np.array(flat).reshape(len(rows), len(header))
    unit = _abscissa_unit(header[0])
    sigma = data[:, 2] if data.shape[1] >= 3 else None
    # ScanSeries checks the same rules but knows no line numbers
    nonfinite = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if nonfinite.size:
        lineno, fields = rows[nonfinite[0]]
        fields = [f.strip() for f in fields]
        raise ParseError(f"values must be finite, got {fields!r}", lineno)
    falling = np.flatnonzero(np.diff(data[:, 0]) <= 0)
    if falling.size:
        (_, before), (lineno, fields) = rows[falling[0]], rows[falling[0] + 1]
        raise ParseError(
            f"abscissa must be strictly increasing, got {fields[0].strip()} "
            f"after {before[0].strip()}",
            lineno,
        )
    try:
        series = ScanSeries(data[:, 0], data[:, 1], sigma, unit)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return series, provenance
