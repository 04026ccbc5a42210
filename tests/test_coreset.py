"""Coreset construction (Theorem 4.2): serial + distributed, properties."""
import os
import subprocess
import sys
import textwrap

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import exact
from repro.core.coreset import (
    coreset_arrays,
    coreset_numpy,
    feature_columns,
    to_spark_points,
)
from repro.core.geometry import color_counts


def _instance(n, d, m, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * 4.0
    colors = rng.integers(0, m, size=n)
    colors[:m] = np.arange(m)
    return X, colors


@pytest.mark.parametrize("n,m,k,seed", [(100, 3, 5, 0), (200, 4, 8, 1), (50, 2, 30, 2)])
def test_coreset_numpy_size_and_membership(n, m, k, seed):
    X, colors = _instance(n, 2, m, seed)
    sel, sel_colors = coreset_numpy(X, colors, k)
    counts = color_counts(colors, m)
    # Per color: exactly min(k, |P(c_j)|) centers, no duplicates.
    got = color_counts(sel_colors, m)
    np.testing.assert_array_equal(got, np.minimum(counts, k))
    assert len(set(sel.tolist())) == len(sel)


@pytest.mark.parametrize("seed", range(4))
def test_coreset_preserves_fairdiv_optimum_when_exhaustive(seed):
    """k' >= |P(c_j)| makes the coreset the whole set: optimum unchanged."""
    X, colors = _instance(14, 2, 2, seed)
    quotas = np.array([2, 2])
    sel, sel_colors = coreset_numpy(X, colors, 14)
    g_full, _ = exact.fairdiv_optimum(X, colors, quotas)
    g_core, _ = exact.fairdiv_optimum(X[sel], sel_colors, quotas)
    assert g_core == pytest.approx(g_full)


@pytest.mark.parametrize("seed", range(4))
def test_coreset_quality_constant_factor(seed):
    """With k' = k the coreset optimum stays within a small constant of
    the full optimum on random instances (Lemma 4.1 shape)."""
    X, colors = _instance(16, 2, 2, seed)
    quotas = np.array([2, 1])
    sel, sel_colors = coreset_numpy(X, colors, 6)  # k'=2k
    g_full, _ = exact.fairdiv_optimum(X, colors, quotas)
    g_core, _ = exact.fairdiv_optimum(X[sel], sel_colors, quotas)
    assert g_core >= g_full / 2.5 - 1e-9


def test_feature_columns_ordering():
    import pandas as pd

    pdf = pd.DataFrame({"x10": [1.0], "x2": [1.0], "x0": [1.0], "color": [0], "other": [1]})
    assert feature_columns(pdf) == ["x0", "x2", "x10"]


def _assert_input_rows(Xc, cc, X, colors):
    """Every coreset row is an input row (exact coordinate + color match)."""
    cols = [f"x{i}" for i in range(X.shape[1])]
    merged = pd.DataFrame(Xc, columns=cols).assign(color=cc).merge(
        pd.DataFrame(X, columns=cols).assign(color=colors).drop_duplicates(),
        on=cols + ["color"],
        how="left",
        indicator=True,
    )
    assert len(merged) == len(Xc)
    assert (merged["_merge"] == "both").all()


@pytest.mark.parametrize("more_partitions_than_slots", [False, True])
def test_coreset_spark_matches_contract(spark, more_partitions_than_slots):
    """m·k rows, k per color, all input rows: whether the input has a
    single partition (coalesce leaves it as is) or several per task slot
    (coalesce merges them)."""
    slots = spark.sparkContext.defaultParallelism
    n_partitions = 4 * slots if more_partitions_than_slots else 1
    X, colors = _instance(400, 3, 3, seed=5)
    df = to_spark_points(spark, X, colors, n_partitions=n_partitions)
    assert df.rdd.getNumPartitions() == n_partitions
    Xc, cc = coreset_arrays(df, 10)
    assert Xc.shape == (30, 3)
    assert np.all(color_counts(cc, 3) == 10)
    _assert_input_rows(Xc, cc, X, colors)


def test_coreset_spark_two_stage_close_to_serial(spark):
    """Composable (2-round) coreset covers the space about as well as the
    serial per-color Gonzalez: k-center radius within a small factor."""
    from repro.core.gonzalez import gonzalez
    from repro.core.geometry import pairwise_distances

    X, colors = _instance(600, 2, 2, seed=9)
    df = to_spark_points(spark, X, colors, n_partitions=6)
    Xc, cc = coreset_arrays(df, 8)
    for j in range(2):
        pts = X[colors == j]
        serial = pts[gonzalez(pts, 8)]
        r_serial = pairwise_distances(pts, serial).min(axis=1).max()
        dist_two = pairwise_distances(pts, Xc[cc == j]).min(axis=1).max()
        assert dist_two <= 4 * r_serial + 1e-9


def test_coreset_spark_one_job_at_most_one_task_per_slot(spark):
    """The coreset is one Spark job whose stages run at most one task per
    task slot, however many partitions the input has."""
    X, colors = _instance(2000, 2, 4, seed=11)
    df = to_spark_points(spark, X, colors, n_partitions=32).cache()
    df.count()  # the input's own shuffle runs here, outside the job group
    sc = spark.sparkContext
    sc.setJobGroup("coreset-one-pass", "coreset_arrays")
    try:
        Xc, cc = coreset_arrays(df, 5)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        df.unpersist()
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup("coreset-one-pass")
    assert len(jobs) == 1
    stages = st.getJobInfo(jobs[0]).stageIds
    assert stages
    assert all(st.getStageInfo(s).numTasks <= sc.defaultParallelism for s in stages)
    assert np.all(color_counts(cc, 4) == 5)


def test_coreset_spark_sparse_partitions_and_small_colors(spark):
    """More partitions than rows (most are empty), one color held by a
    single partition, one color with fewer than k points: each color gets
    min(k, |P(c_j)|) centers, all of them input rows."""
    k = 4
    X = np.random.default_rng(13).normal(size=(12, 2)) * 4.0
    colors = np.array([0] * 6 + [1] * 4 + [2] * 2)
    # Color 1's rows share one partition key and the other rows two more
    # keys, so at most 3 of the 64 partitions hold rows and some task slot
    # of the coalesced pass gets none.
    key = np.where(colors == 1, 2, np.arange(len(X)) % 2)
    pdf = pd.DataFrame(X, columns=["x0", "x1"]).assign(color=colors, key=key)
    df = spark.createDataFrame(pdf).repartition(64, "key").drop("key")
    assert df.rdd.getNumPartitions() > len(X)
    pids = df.where(F.col("color") == 1).select(F.spark_partition_id()).distinct().count()
    assert pids == 1
    Xc, cc = coreset_arrays(df, k)
    np.testing.assert_array_equal(color_counts(cc, 3), np.minimum(color_counts(colors, 3), k))
    _assert_input_rows(Xc, cc, X, colors)
    assert len(np.unique(Xc, axis=0)) == len(Xc)


def test_coreset_then_mfd_end_to_end(spark):
    """Corollary 4.3 wiring: Spark coreset -> driver MFD solves FairDiv."""
    from repro.core.mfd import mfd

    X, colors = _instance(500, 2, 3, seed=3)
    df = to_spark_points(spark, X, colors, n_partitions=4)
    Xc, cc = coreset_arrays(df, 6)
    quotas = np.array([2, 2, 2])
    res = mfd(Xc, cc, quotas, seed=0, g=0.5)
    assert res.diversity > 0
    assert res.missed.sum() <= 2


_ZIP_REREAD_SCRIPT = textwrap.dedent(
    """
    import importlib, os, sys, zipfile, zipimport

    from repro.core.coreset import skip_unchanged_zip_rereads

    archive = os.path.join(sys.argv[1], "mods.zip")

    def write(mods):
        with zipfile.ZipFile(archive, "w") as z:
            for name in mods:
                z.writestr(name + ".py", "VALUE = %r\\n" % name)

    reads = []
    read_directory = zipimport._read_directory

    def counting(path):
        reads.append(path)
        return read_directory(path)

    def rereads():
        reads.clear()
        importlib.invalidate_caches()
        return reads.count(archive)

    write(["zmod_a"])
    sys.path.insert(0, archive)
    import zmod_a
    zipimport._read_directory = counting
    assert rereads() == 1  # stock behavior: every call re-reads

    skip_unchanged_zip_rereads()
    installed = zipimport.zipimporter.invalidate_caches
    assert rereads() == 0, "unchanged archive re-read"

    size = os.path.getsize(archive)
    write(["zmod_a", "zmod_b"])
    assert os.path.getsize(archive) != size
    assert rereads() == 1, "rewritten archive not re-read"
    import zmod_b
    assert zmod_b.VALUE == "zmod_b"
    assert rereads() == 0

    skip_unchanged_zip_rereads()
    assert zipimport.zipimporter.invalidate_caches is installed
    assert rereads() == 0

    os.remove(archive)
    assert rereads() == 1, "archive that cannot be stat'ed not re-read"
    print("ok")
    """
)


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="zipimport re-reads lazily from 3.13")
def test_skip_unchanged_zip_rereads(tmp_path):
    """invalidate_caches re-reads an archive only once it changed on disk;
    a second install changes nothing. Runs in a fresh interpreter so this
    process's importers stay as they are."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _ZIP_REREAD_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_coreset_spark_tasks_skip_rereading_unchanged_archives(spark):
    """Once coreset_arrays has run, a Python task on the reused workers
    re-reads no zip archive when PySpark's worker calls
    importlib.invalidate_caches() before the task."""
    X, colors = _instance(2000, 2, 4, seed=13)
    slots = spark.sparkContext.defaultParallelism
    df = to_spark_points(spark, X, colors, n_partitions=2 * slots)
    for _ in range(2):
        coreset_arrays(df, 5)

    def probe(batches):
        import importlib
        import zipimport

        for _ in batches:
            pass
        archives = {
            imp.archive for imp in sys.path_importer_cache.values()
            if isinstance(imp, zipimport.zipimporter)
        }
        reads = []
        read_directory = zipimport._read_directory

        def counting(path):
            reads.append(path)
            return read_directory(path)

        zipimport._read_directory = counting
        try:
            importlib.invalidate_caches()
        finally:
            zipimport._read_directory = read_directory
        yield pd.DataFrame({"pid": [os.getpid()], "archives": [len(archives)], "reads": [len(reads)]})

    out = df.coalesce(slots).mapInPandas(probe, "pid long, archives long, reads long").toPandas()
    assert len(out) == slots
    assert (out["archives"] > 0).all()  # the workers do import from zip archives
    assert (out["reads"] == 0).all(), out
