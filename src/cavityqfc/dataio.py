"""CSV and JSON serialization for the workbench.

CSV dialect: comma-separated, ``#``-prefixed provenance lines before the
header row, ``.`` decimal separator, units embedded in the column names
(``power_mW``, ``fwhm_MHz``, ``wavelength_nm``, ``counts_cps``, ...).
Floats are written with ``%.12g`` so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import sys
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

SCHEMA_VERSION = 2


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


def render_csv(columns: list[tuple[str, np.ndarray]], provenance: dict | None = None) -> str:
    """Render named columns with ``#`` provenance lines and a header row."""
    lines = []
    for key, value in (provenance or {}).items():
        lines.append(f"# {key} = {value}")
    lines.append(",".join(name for name, _ in columns))
    arrays = [np.asarray(col) for _, col in columns]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError("all columns must have equal length")
    for i in range(n):
        lines.append(",".join(fmt(a[i]) for a in arrays))
    return "\n".join(lines) + "\n"


def render_json(payload: dict) -> str:
    """Render a result object with a schema version, deterministically.

    Output is strict JSON (RFC 8259): a NaN or infinite value raises
    :class:`~cavityqfc.errors.NumericFailure` instead of printing ``NaN``.
    """

    def default(obj):
        if isinstance(obj, np.ndarray):
            return [float(v) for v in obj]
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        raise TypeError(f"not JSON serializable: {type(obj)!r}")

    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)
    try:
        text = json.dumps(body, sort_keys=True, indent=2, default=default, allow_nan=False)
    except ValueError as exc:
        raise NumericFailure(f"result is not valid JSON: {exc}") from None
    return text + "\n"


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
    rows: list[list[float]] = []
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
        fields = [f.strip() for f in stripped.split(",")]
        if header is None:
            header = fields
            if len(header) < 2:
                raise ParseError("need at least two columns", lineno)
            continue
        if len(fields) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(fields)}", lineno
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise ParseError(f"non-numeric value in {fields!r}", lineno) from None
    if header is None or not rows:
        raise ParseError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    unit = _abscissa_unit(header[0])
    sigma = data[:, 2] if data.shape[1] >= 3 else None
    try:
        series = ScanSeries(data[:, 0], data[:, 1], sigma, unit)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return series, provenance
