"""Self-tests of the benchmark on tiny versions of its workloads.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH.parent / "tests"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_lists_what_the_benchmark_emits():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in run.PER_LAYER]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    info, result = run.run(workload, 3, 0, trace, scale="tiny")
    assert result["correct"], info["problems"]
    assert result["failed"] == 0 and result["attempted"] >= info["sizes"]["cells"]
    expected = [m[0] for m in (run.PER_LAYER if trace else run.END_TO_END)]
    assert sorted(result["metrics"]) == sorted(expected)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not info["oracle"]["mismatches"]


def test_altered_report_and_failed_cell_are_caught(tmp_path):
    bench = run.Bench("batch-small", 3, 0, tmp_path, scale="tiny")
    child, out, report = bench.run_all()
    checker = bench.checker
    cells = checker.expected_cells
    assert report is not None and checker.failed == 0

    assert checker.check("same", out, child) is not None
    assert checker.failed == 0

    data = (out / "report.json").read_bytes()
    (out / "report.json").write_bytes(data.replace(b'"seed":3', b'"seed":4', 1))
    assert checker.check("altered", out, child) is None
    assert checker.failed == cells
    assert "differs" in checker.problems[-1]

    (out / "report.json").write_bytes(data)
    key = next(iter(report["reconstruction"]["cells"]))
    (out / "errors_embed.json").write_text(
        json.dumps([{"cell": key, "stage": "embed", "error": "injected"}]), encoding="utf-8")
    child.code = 3
    assert checker.check("failed cell", out, child) is None
    assert checker.failed == cells + 1

    # exit code 3 with empty ledgers is not a partial failure: every cell counts
    (out / "errors_embed.json").write_text("[]", encoding="utf-8")
    assert checker.check("empty ledgers", out, child) is None
    assert checker.failed == 2 * cells + 1
    assert checker.attempted == 5 * cells


def test_missing_names_drop_their_metrics_only():
    missing = tracer.Tracer().install(patches=(("pipeline", "no_such_stage", "pipeline.x"),))
    assert missing == ["pipeline.no_such_stage"]
    extra = {"cli.import_s": 0.1, "cells": 1, "cpu_util": 1.0, "run_s": 1.0,
             "untraced_run_s": 1.0, "overhead_s": 0.0}
    metrics = run.per_layer_metrics([], ["reconstruct.predict_edges"], extra)
    assert "reconstruct.predictions" not in metrics and "reconstruct.kept_ratio" not in metrics
    assert metrics["reconstruct.pairs"] == 0 and metrics["linalg.sym_eig_smallest.calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"parent": None, "start": 0.0, "end": 10.0},
        {"parent": 0, "start": 1.0, "end": 6.0},   # worker thread 1
        {"parent": 0, "start": 4.0, "end": 8.0},   # worker thread 2, overlapping
        {"parent": 1, "start": 2.0, "end": 3.0},   # nested on thread 1
    ]
    assert tracer.self_times(spans) == [3.0, 4.0, 4.0, 1.0]
