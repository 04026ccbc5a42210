"""Experiment harness smoke tests at tiny scales (no Spark + Spark paths)."""
import math

import numpy as np
import pytest

from repro.experiments import tables
from repro.experiments.harness import (
    ALGOS,
    RunRecord,
    make_quotas,
    parse_algo,
    run_algo,
    streaming_experiment,
    sweep,
)


def test_make_quotas_modes():
    colors = np.array([0] * 70 + [1] * 20 + [2] * 10)
    eq = make_quotas("equal", 9, colors, 3)
    assert eq.sum() == 9 and eq.max() - eq.min() <= 1
    pr = make_quotas("proportional", 10, colors, 3)
    assert pr.sum() <= 10 and pr[0] > pr[2]
    with pytest.raises(ValueError):
        make_quotas("nope", 5, colors, 3)


def test_algo_labels_parse_strictly():
    """ε comes from the SFDM-2 label and g from the MFD one; a label that is
    none of MFD, MFD-<g>, SFDM-2(e=<x>) or an ALGOS entry is rejected, not
    run as the algorithm its prefix names."""
    assert parse_algo("MFD") == ("MFD", {})
    assert parse_algo("MFD-0.1") == ("MFD", {"g": 0.1})
    assert parse_algo("SFDM-2(e=.5)") == ("SFDM-2", {"eps": 0.5})
    assert parse_algo("SFDM-2(e=.15)") == ("SFDM-2", {"eps": 0.15})
    assert parse_algo("FMMD-S") == ("FMMD-S", {})
    rng = np.random.default_rng(0)
    X, colors = rng.normal(size=(40, 2)), np.arange(40) % 2
    for bad in ("MFDX", "MFD-", "MFD-x", "mfd", "SFDM-2", "SFDM-2(e=)", "SFDM-2(e=.5)x", "FairFlow2", ""):
        with pytest.raises(ValueError, match="unknown algorithm label"):
            run_algo(bad, X, colors, np.array([2, 2]), coreset=(X, colors), coreset_time=0.0)


@pytest.mark.parametrize("algo,kwargs,why", [("FMMD-S", dict(fmmds_budget=5), "budget"),
                                             ("SFDM-2(e=.75)", dict(timeout_s=0.0), "timeout")],
                         ids=["fmmds_budget", "sfdm2_timeout"])
def test_run_algo_records_dnf(monkeypatch, algo, kwargs, why):
    """FMMD-S past its node budget and SFDM-2 past its deadline are DNF, each
    with its reason and every quota slot missed; SFDM-2's deadline stops
    the stream itself (feed reads the clock every 1,024 rows)."""
    import repro.baselines.sfdm2 as sfdm2_mod
    from repro.core.gonzalez import coreset_numpy
    from repro.core.streaming import feed

    fed = []

    def recording_feed(*args, **kwargs):
        fed.append(feed(*args, **kwargs))
        return fed[-1]

    monkeypatch.setattr(sfdm2_mod, "feed", recording_feed)
    rng = np.random.default_rng(0)
    X, colors = rng.normal(size=(3000, 2)), np.arange(3000) % 2
    quotas = np.array([4, 4])
    sel, cc = coreset_numpy(X, colors, 8)
    div, _, missed, dnf, note = run_algo(algo, X, colors, quotas, coreset=(X[sel], cc), coreset_time=0.0, **kwargs)
    assert math.isnan(div) and dnf and note == why
    assert missed.tolist() == [4, 4]
    assert fed == ([False] if algo.startswith("SFDM-2") else [])


def test_sweep_all_algos_tiny():
    records = sweep(
        "adult", [8], ALGOS, scale=0.02, repeats=2, timeout_s=120.0,
        fmmds_budget=500_000,
    )
    assert len(records) == len(ALGOS)
    by_algo = {r.algo: r for r in records}
    mfd_r = by_algo["MFD"]
    assert not mfd_r.dnf
    assert mfd_r.diversity > 0 and mfd_r.runtime_s > 0
    # Every non-DNF baseline returns positive diversity.
    for r in records:
        if not r.dnf:
            assert r.diversity > 0, r.algo


def test_sweep_proportional_mode():
    records = sweep("diabetes", [8], ["MFD", "FairFlow"], scale=0.01,
                    quota_mode="proportional", repeats=1)
    assert all(r.quota_mode == "proportional" for r in records)
    assert all(not r.dnf for r in records)


def test_mfd_g_sweep_runtime_monotone_in_g():
    records = sweep("adult", [8], [f"MFD-{g}" for g in (0.1, 0.7)], scale=0.02, repeats=2)
    r01 = next(r for r in records if r.algo == "MFD-0.1")
    r07 = next(r for r in records if r.algo == "MFD-0.7")
    assert r01.runtime_s <= r07.runtime_s * 1.5  # more iterations cost more


def test_streaming_experiment_tiny():
    rows = streaming_experiment("beer", [6], scale=0.001)
    algos = {r["algo"] for r in rows}
    assert algos == {"StreamMFD", "SFDM-2(e=.15)", "SFDM-2(e=.75)"}
    sm = next(r for r in rows if r["algo"] == "StreamMFD")
    dense = next(r for r in rows if r["algo"] == "SFDM-2(e=.15)")
    assert sm["update_us"] < dense["update_us"]  # Fig 10 headline ordering
    assert sm["stored"] <= dense["stored"]  # O(mk) vs O(mk log Delta)
    table = tables.streaming_table(rows, title="F")
    assert "| stored items | missed |" in table
    for r in rows:
        assert f"| {r['stored']} | {r['missed']:.0f} |" in table


def test_jobs_import(monkeypatch):
    """Every jobs/run_*.py imports (without running main), so a renamed
    harness or table function fails here rather than in a job run."""
    import importlib
    import pathlib

    jobs = pathlib.Path(__file__).resolve().parents[1] / "jobs"
    monkeypatch.syspath_prepend(str(jobs))
    scripts = sorted(jobs.glob("run_*.py"))
    assert len(scripts) >= 8
    for path in scripts:
        assert callable(importlib.import_module(path.stem).main), path.name


_WORKER_IMPORT_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import _session

def task(batches):
    import repro
    for pdf in batches:
        yield pdf.assign(ok=repro.__name__ == "repro")

spark = _session.get_spark("worker-path")
try:
    print(spark.range(1).mapInPandas(task, "id long, ok boolean").collect()[0].ok)
finally:
    spark.stop()
"""


def test_job_session_puts_src_on_worker_path(tmp_path):
    """A job started without PYTHONPATH can run a mapInPandas task that
    imports repro: importing jobs/_session.py reaches Spark's Python
    workers, not only the driver."""
    import os
    import pathlib
    import subprocess
    import sys

    jobs = pathlib.Path(__file__).resolve().parents[1] / "jobs"
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYSPARK_SUBMIT_ARGS")}
    env.update(SPARK_MASTER="local[1]", SPARK_DRIVER_MEM="1g")
    out = subprocess.run(
        [sys.executable, "-c", _WORKER_IMPORT_SCRIPT, str(jobs)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip().splitlines()[-1] == "True"


def test_sweep_with_spark_coreset(spark):
    records = sweep("popsim_1m", [6], ["MFD"], scale=0.002, repeats=1, spark=spark)
    assert len(records) == 1 and not records[0].dnf


def _mk(ds, algo, k, div, t, dnf=False):
    return RunRecord(ds, algo, k, "equal", 100, 2, div, t, 0.0, [], dnf)


def test_pivot_table_renders_dnf():
    recs = [_mk("a", "MFD", 10, 1.5, 0.2), _mk("a", "FMMD-S", 10, math.nan, math.nan, True)]
    out = tables.pivot_table(recs, "diversity", title="T")
    assert "DNF" in out and "1.500" in out and "k=10" in out


def test_pareto_table_flags_dominated():
    recs = [
        _mk("a", "fast-bad", 10, 1.0, 0.1),
        _mk("a", "slow-good", 10, 2.0, 1.0),
        _mk("a", "dominated", 10, 0.5, 2.0),
    ]
    out = tables.pareto_table(recs, title="P")
    lines = [l for l in out.splitlines() if "dominated" in l]
    assert lines and lines[0].rstrip().endswith("no |")
    assert "| a | fast-bad | 0.10 | 1.000 | yes |" in out


def test_missed_table_shape():
    r = RunRecord("d", "MFD-0.3", 20, "equal", 100, 3, 1.0, 0.1, 0.4, [0.2, 0.2, 0.0])
    out = tables.missed_table([r], title="M")
    assert "| d | MFD-0.3 | 20 |" in out and "0.40" in out
