"""Smoke tests for the benchmark: a tiny configuration that runs in seconds.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMOKE = {"tiny2-g2": run.Workload("tiny2", (2, 2), image_size=64),
         "tiny2-whole": run.Workload("tiny2", None, image_size=64)}


@pytest.fixture(scope="module")
def ts():
    return run.import_package()


@pytest.fixture(autouse=True)
def runs_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUNS_DIR", tmp_path / "runs")


def printed_result(capsys, name, record):
    run.emit(name, record)
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_end_to_end_metrics_printed_with_units(ts, capsys, name):
    record = run.run(SMOKE[name], seed=3, seconds=0.2, trace=0, ts=ts)
    lines, result = printed_result(capsys, name, record)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("failed_frac 0/") for line in lines)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_run_emits_every_per_layer_metric(ts, capsys, name):
    record = run.run(SMOKE[name], seed=3, seconds=0.4, trace=1, ts=ts)
    _, result = printed_result(capsys, name, record)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert record["missing"] == []
    # Each step's top-level spans cover its wall time, less the glue between calls.
    assert record["coverage"] and min(record["coverage"]) > 0.95
    # Wrappers are gone after the run.
    assert not hasattr(ts.layers.conv2d_forward, "__wrapped__")
    assert not hasattr(ts.network.conv2d_forward, "__wrapped__")


@pytest.mark.parametrize("name, fwd, bwd, tiles", [
    ("vgg13-g4", 4.22174072265625, 7.998291015625, 16),
    ("tiny2-g8", 1.1707916259765625, 1.2921295166015625, 64),
    ("vgg13-whole", 1.0, 1.0, 1),
])
def test_planner_counts_reproduce_exactly(ts, name, fwd, bwd, tiles):
    bench = run.Bench(ts, run.WORKLOADS[name], seed=0)
    bench.setup()
    assert bench.planner_counts() == (fwd, bwd, tiles)


def test_missing_function_is_reported_not_fatal(ts, monkeypatch):
    traced = dict(spans.TRACED, layers=spans.TRACED["layers"] + ("conv9d_forward",))
    monkeypatch.setattr(spans, "TRACED", traced)
    tracer = spans.Tracer()
    tracer.install()
    try:
        bench = run.Bench(ts, SMOKE["tiny2-g2"], seed=0)
        tracer.run("setup", bench.setup)
        tracer.run("step", bench.step, 0)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["layers.conv9d_forward"]
    metrics = spans.span_metrics(tracer.spans)
    assert metrics["layers.conv9d_forward.calls"] == (0, "count")
    assert metrics["layers.conv2d_forward.calls"][0] > 0
    assert metrics["layers.conv2d_input_grad.calls"][0] > 0


def test_self_time_subtracts_children():
    s = [["step", 0.0, 10.0, -1, 0, 0, 0],
         ["engine.streaming_backward", 1.0, 9.0, 0, 0, 0, 0],
         ["layers.conv2d_input_grad", 2.0, 5.0, 1, 0, 0, 0],
         ["layers.conv2d_param_grad", 5.0, 6.0, 1, 0, 0, 0]]
    totals = spans.aggregate(s)[0][2]
    assert totals["engine.streaming_backward"][:3] == [8.0, 4.0, 1]
    assert spans.top_level_coverage(s) == [0.8]


def test_fails_without_the_package(tmp_path):
    """Given only BENCHMARK.json and perfbench/, a run exits non-zero and prints no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "runs"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tiny2-g8",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
