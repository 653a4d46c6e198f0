"""The runner's statistics, its result line, and its refusal to run
without the library's sources."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    for n in (11, 20, 42, 49, 72, 1705):
        p, value = run.tail_percentile(range(1, n + 1))
        assert n - value >= 10
        assert n - math.ceil((p + 1) * n / 100) < 10
    assert run.tail_percentile(range(1, 50)) == (79, 39)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0)


def test_end_to_end_metrics_match_the_benchmark_file():
    records = [
        [pass_no, label, seconds, "wrong" if label == "b" else None]
        for pass_no in range(3)
        for label, seconds in (("a", 0.1), ("b", 0.2), ("c", 0.3))
    ]
    metrics, p = run.end_to_end({"records": records, "peak_rss_mb": 40.0}, [0.2, 0.3, 0.25])
    declared = {e["name"]: e["unit"] for e in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    assert metrics["ops_per_s"][0] == pytest.approx(5.0)
    assert metrics["op_p50_ms"][0] == pytest.approx(200.0)
    assert metrics["ok_ratio"][0] == 2 / 3
    assert metrics["setup_s"][0] == 0.25


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_one_short_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "3",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [e["name"] for e in BENCHMARK["end_to_end"]]
    report = json.loads((BENCH / "out" / "cli-seed3-trace0.json").read_text())
    env = report["environment"]
    assert env["seed"] == 3 and env["numba_importable"] in (True, False)
    assert 1 <= env["blas_thread_cap"] <= env["nproc"]


def test_group_enum_reports_h4_outside_the_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "group-enum", "--seed", "3",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["attempted"] == 5
    report = json.loads((BENCH / "out" / "group-enum-seed3-trace0.json").read_text())
    assert "H4" not in report["median_ms_per_input"]
    assert [d["input"] for d in report["known_defects"]] == ["H4"]
    if report["known_defects"][0]["reason"]:
        assert "known defect, outside the timed mix: H4" in proc.stdout
