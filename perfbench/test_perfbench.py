"""Tests of the benchmark harness itself, in its short mode.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counts that must repeat exactly between two runs with one seed
COUNTS = ["photon_stats.coincidences", "fitting.fit_saturating_noise_nfev",
          "dataio.csv_bytes", "import.modules_loaded", "trace.spans_per_op"]


def run(workload, seed, trace, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", "0.5", "--trace", str(trace), "--short"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(done):
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout.splitlines()[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] and payload["failed"] == 0, done.stderr
    assert payload["attempted"] >= 1
    return payload


def units(payload):
    return {name: m["unit"] for name, m in payload["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    payload = result(run(workload, 1, 0))
    assert units(payload) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in payload["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = result(run(workload, 1, 1)), result(run(workload, 1, 1))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_check(workload):
    result(run(workload, 2, 0))


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
