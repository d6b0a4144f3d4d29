"""Tests for CSV/JSON serialization."""

import numpy as np
import pytest

from cavityqfc.dataio import render_json
from cavityqfc.errors import NumericFailure


@pytest.mark.parametrize(
    "value", [float("nan"), np.inf, np.array([1.0, -np.inf])], ids=["nan", "inf", "array"]
)
def test_render_json_rejects_nonfinite(value):
    with pytest.raises(NumericFailure, match="not valid JSON"):
        render_json({"value": value})
