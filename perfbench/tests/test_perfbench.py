"""Tests of the benchmark itself, at tiny sizes; run with

    python3 -m pytest perfbench/tests

They are outside the program's own suite (testpaths = tests), so the suite's
wall time does not change.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def checkout(tmp_path):
    """A scratch checkout root: BENCHMARK.json and src/ of this repository."""
    (tmp_path / "src").symlink_to(REPO / "src")
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    return tmp_path


def run_tiny(checkout, capsys, workload, trace, seed=3):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace)
    assert run.run_one(args, checkout, tiny=True) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-1]), lines


def assert_valid(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    units = {m["name"]: m["unit"] for m in spec_metrics}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_complete_and_nonzero(checkout, capsys, workload):
    result, lines = run_tiny(checkout, capsys, workload, trace=0)
    assert_valid(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("# env ") and '"git_sha"' in line for line in lines)
    assert (checkout / run.OUT_DIR / f"{workload}-seed3-trace0.json").is_file()
    assert not any((checkout / run.WORK_DIR).iterdir())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_are_complete(checkout, capsys, workload):
    result, lines = run_tiny(checkout, capsys, workload, trace=1)
    assert_valid(result, SPEC["per_layer"])
    assert any(line.startswith("# ") and "traced units=2 " in line for line in lines)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # counts of the layer each workload exists for
    if workload == "sweep-umm":
        assert values["margin_loss.calls_per_sample"] == pytest.approx(2.0, abs=0.01)
        assert values["uncertainty.passes_per_refresh"] == 10
        assert values["uncertainty.cov_entries_used_ratio"] == pytest.approx(0.01)
        assert values["network.epoch_margin_s"] > 0 and values["network.epoch_sample_s"] > 0
    if workload == "train-hybrid":
        assert values["cluster_loss.hybrid_calls_per_batch"] == 2.0
        assert values["margin_loss.calls"] == 0 and values["uncertainty.calls"] == 0
    if workload == "score-shards":
        assert values["data.bytes_read"] > 0 and values["network.backward.self_s"] == 0
        assert values["uncertainty.passes_per_refresh"] == 10


def test_counts_that_differ_across_traced_units_fail(checkout):
    run.import_program(checkout)
    runner = workloads.Runner(checkout, seed=1)
    combined = run.combine(runner, [{"x.calls": 3, "x.self_s": 0.1}, {"x.calls": 4, "x.self_s": 0.3}])
    assert combined == {"x.calls": 3, "x.self_s": pytest.approx(0.2)}
    assert runner.failed == 1 and runner.attempted == 1
    assert run.combine(runner, [{"x.calls": 3}, {"x.calls": 3}]) == {"x.calls": 3}
    assert runner.failed == 1 and runner.attempted == 1


def test_tracer_restores_every_function(checkout):
    package = run.import_program(checkout)
    counts_cls = sys.modules["ummlearn.metrics"].ConfusionCounts

    def snapshot():
        modules = {name: dict(vars(module)) for name, module in sys.modules.items() if name.startswith("ummlearn")}
        return modules, dict(vars(counts_cls))

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install(package)
    assert sys.modules["ummlearn.network"].forward is not before[0]["ummlearn.network"]["forward"]
    assert vars(counts_cls)["from_predictions"] is not before[1]["from_predictions"]
    tracer.uninstall()
    assert snapshot() == before


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 6)]) == (100.0, 5.0)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
