"""The benchmark's operations run against this tree, with their own output checks.

The harness's own tests (``perfbench/test_perfbench.py``) run apart from this
suite, so a change that breaks a call the benchmark makes, or an output it
checks, would otherwise show only in a benchmark run.  Each workload that
``BENCHMARK.json`` declares is built at its short size and set up, and one
operation runs; ``cli_session`` runs each of its commands through
``cli.main`` in this process, each checked as a benchmark operation checks it.
The test only reads ``perfbench/``.
"""

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_benchmark_operation_passes_its_checks(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    import workloads

    workload = workloads.make(name, 1, True, tmp_path, dict(os.environ))
    workload.setup()
    if name == "cli_session":
        assert len(workload.in_process_pass()) == len(workload.commands)
    else:
        elapsed, work = workload.op(0)
        assert elapsed > 0 and work >= 1
