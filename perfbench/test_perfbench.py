"""Tests of the benchmark itself (not collected by the repository's suite).

    python -m pytest perfbench/test_perfbench.py -q

The repeat test runs every workload twice, traced, and takes a few minutes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from tracing import self_times  # noqa: E402
from worker import CALL_COUNTS, END_TO_END, PER_LAYER, RUN_COUNTS  # noqa: E402
from workloads import WORKLOADS, _doublings  # noqa: E402


def _run(cwd: str, workload: str, seed: int, seconds: float, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200,
    )


def test_catalogue_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == PER_LAYER


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["query", 0.0, 10.0, -1, 1],
        ["mfd.solve", 1.0, 9.0, 0, 1],
        ["mwu.solve", 2.0, 5.0, 1, 1],
        ["geometry.pairwise", 3.0, 4.0, 2, 1],
        ["geometry.pairwise", 6.0, 8.0, 1, 1],
    ]
    st = self_times(spans)
    assert st[(1, "query")] == pytest.approx(2.0)
    assert st[(1, "mfd.solve")] == pytest.approx(3.0)
    assert st[(1, "mwu.solve")] == pytest.approx(2.0)
    assert st[(1, "geometry.pairwise")] == pytest.approx(3.0)


def test_doublings_counts_prune_rounds_only():
    assert _doublings(1.5, 1.5) == 0
    assert _doublings(1.5, 12.0) == 3
    assert _doublings(0.0, 2e-300) == 2  # the first round lifts tau off 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(str(tmp_path), "direct_dense", 0, 1, 0)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly_at_one_seed(workload):
    results = []
    for _ in range(2):
        p = _run(ROOT, workload, 7, 1, 1)
        assert p.returncode == 0, p.stderr[-3000:]
        results.append(json.loads(p.stdout.strip().splitlines()[-1]))
    a, b = (r["metrics"] for r in results)
    for name in CALL_COUNTS + RUN_COUNTS:
        assert a[name]["value"] == b[name]["value"], name
    assert all(r["correct"] and r["failed"] == 0 for r in results)
