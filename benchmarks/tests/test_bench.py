"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/tests -q

The smoke runs start the benchmark command at its shortest length (one
round, or two when traced) on every workload and check the result line
against BENCHMARK.json.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from summarize import layer_metrics, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def test_self_times_hand_built_tree():
    spans = [
        ("step", 0.0, 10.0, None, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),      # overlaps its sibling: covered once
        ("c", 2.0, 3.0, 1, 0),      # grandchild: counts against a, not step
        ("d", 8.0, 12.0, 0, 0),     # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_layer_metrics_medians_ratios_and_events():
    spans = [
        ("train.step", 0.0, 1.0, None, 1),
        ("model.forward", 0.1, 0.6, 0, 1),
        ("encoder.self", 0.2, 0.4, 1, 1),
        ("train.step", 1.0, 3.0, None, 2),
        ("model.forward", 1.1, 2.1, 3, 2),
        ("checkpoint.save", 2.5, 2.75, 3, 2),
        ("model.forward", 3.5, 3.6, None, 3),   # after the last timed step
    ]
    counts = {1: {"views.queries": 4, "views.empty_queries": 1},
              2: {"views.queries": 4, "checkpoint.saves": 1, "checkpoint.bytes": 100}}
    m = layer_metrics(spans, counts, steps=[1, 2], rounds=1)
    assert m["model.forward_s"] == pytest.approx(0.75)
    assert m["model.forward_self_s"] == pytest.approx(0.65)
    assert m["encoder.self_s"] == pytest.approx(0.1)
    assert m["train.step_self_s"] == pytest.approx(0.5 * (0.5 + 0.75))
    assert m["views.empty_query_frac"] == pytest.approx(1 / 8)
    assert m["checkpoint.save_s"] == pytest.approx(0.25)
    assert m["checkpoint.bytes"] == 100
    assert m["checkpoint.saves_per_run"] == 1
    assert m["train.timed_steps"] == 2


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("benchmarks", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "pretrain-paper", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
