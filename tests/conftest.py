"""Shared test settings.

Property tests draw the same examples on every run. ``pyproject.toml`` puts
``src`` on the test process's path and makes a ``RuntimeWarning`` an error
there; the fresh ``python`` processes some tests start get both through
``PYTHONPATH`` and ``PYTHONWARNINGS``, so they import the same package and
a numpy warning fails them too.
"""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("cavityqfc", derandomize=True, deadline=None)
settings.load_profile("cavityqfc")

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
os.environ["PYTHONWARNINGS"] = ",".join(
    filter(None, [os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning"]))
