"""Smoke tests of the benchmark at tiny grid sizes, so it cannot rot.

Run from the repository root:  python -m pytest perfbench/tests
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
run = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = run
_spec.loader.exec_module(run)


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--size", "smoke",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_prints_its_declared_metrics(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = bench("verify_effective", 1)
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append(
            {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")}
        )
    assert counts[0] == counts[1]
    assert counts[0]["eulerian.steps"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    # a [0,100] > b [10,30], c [40,50] > d [42,45]; e [60,70] is io inside a
    raw = {
        "names": ["eulerian.a", "stencils.b", "eulerian.c", "model.d", "io.e"],
        "name_id": [0, 1, 2, 3, 4],
        "start_ns": [0, 10, 40, 42, 60],
        "end_ns": [100, 30, 50, 45, 70],
        "parent": [-1, 0, 0, 2, 0],
        "cells": {},
        "import_ns": 0,
    }
    table = run.SpanTable(raw)
    assert table.self_ns == [60, 20, 7, 3, 10]
    # the eulerian layer inside a: a's own 60 plus nested c's own 7
    assert table.in_call_self_s("eulerian.a") == pytest.approx(67e-9)
    assert table.layer_self_s("model") == pytest.approx(3e-9)
    assert table.median_us("eulerian.c") == pytest.approx(0.010)
