"""Dataset generators: stats (Table 3 shape), determinism, Spark+oracle checks."""
import numpy as np
import pandas as pd
import pytest

from repro.data.datasets import DATASET_NAMES, dataset_arrays, dataset_pandas, dataset_spark
from repro.oracle import assert_equivalent


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_meta_matches_table3_dims(name):
    pdf, meta = dataset_pandas(name, scale=0.002)
    assert meta.d == pdf.shape[1] - 1
    assert pdf["color"].nunique() == meta.m
    assert len(pdf) == meta.n
    # Paper-scale n recorded for EXPERIMENTS.md diffing.
    assert meta.paper_n >= meta.n


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_determinism(name):
    a, _ = dataset_pandas(name, scale=0.001, seed=7)
    b, _ = dataset_pandas(name, scale=0.001, seed=7)
    pd.testing.assert_frame_equal(a, b)
    c, _ = dataset_pandas(name, scale=0.001, seed=8)
    assert not a.equals(c)


def test_color_marginal_skew_adult():
    pdf, _ = dataset_pandas("adult", scale=0.3, seed=0)
    freq = pdf["color"].value_counts(normalize=True)
    assert freq.iloc[0] > 0.3  # dominant majority
    assert freq.iloc[-1] < 0.03  # thin minority


def test_popsim_spatial_correlation():
    """Popsim colors must correlate with location (segregation): the
    color entropy within a small spatial cell is far below the global."""
    pdf, _ = dataset_pandas("popsim_1m", scale=0.01, seed=0)

    def entropy(s):
        p = s.value_counts(normalize=True).to_numpy()
        return float(-(p * np.log(p + 1e-12)).sum())

    glob = entropy(pdf["color"])
    cell = pdf[(pdf.x0 - pdf.x0.iloc[0]).abs().lt(1.0) & (pdf.x1 - pdf.x1.iloc[0]).abs().lt(1.0)]
    if len(cell) >= 30:
        assert entropy(cell["color"]) < glob


def test_beer_stream_is_shuffled():
    pdf, _ = dataset_pandas("beer", scale=0.005, seed=0)
    # Arrival order should not be sorted by color.
    assert not pdf["color"].is_monotonic_increasing


def test_dataset_arrays_consistent():
    X, colors, meta = dataset_arrays("diabetes", scale=0.002)
    assert X.shape == (meta.n, meta.d)
    assert colors.shape == (meta.n,)
    assert X.dtype == np.float64


@pytest.mark.parametrize("name,scale", [("adult", 0.01), ("census", 0.005)], ids=["adult", "census"])
def test_spark_color_counts_vs_duckdb(spark, name, scale):
    """Distributed group-by of the generated data agrees with DuckDB (on
    census at Table 3's scale too)."""
    sdf, meta = dataset_spark(spark, name, scale=scale, seed=0)
    got = sdf.groupBy("color").count().withColumnRenamed("count", "cnt")
    pdf, _ = dataset_pandas(name, scale=scale, seed=0)
    assert_equivalent(
        got,
        "SELECT color, COUNT(*) AS cnt FROM pts GROUP BY color",
        pts=pdf,
    )


def test_spark_bbox_vs_duckdb(spark):
    sdf, _ = dataset_spark(spark, "popsim_1m", scale=0.002, seed=1)
    from pyspark.sql import functions as F

    got = sdf.agg(
        F.min("x0").alias("lo0"),
        F.max("x0").alias("hi0"),
        F.min("x1").alias("lo1"),
        F.max("x1").alias("hi1"),
    )
    pdf, _ = dataset_pandas("popsim_1m", scale=0.002, seed=1)
    assert_equivalent(
        got,
        "SELECT MIN(x0) AS lo0, MAX(x0) AS hi0, MIN(x1) AS lo1, MAX(x1) AS hi1 FROM pts",
        pts=pdf,
    )


def test_generation_independent_of_hash_seed():
    """A dataset must not depend on Python's per-process string hashing."""
    import os
    import pickle
    import subprocess
    import sys

    code = (
        "import pickle, sys\n"
        "from repro.data.datasets import DATASET_NAMES, dataset_pandas\n"
        "frames = [dataset_pandas(n, scale=0.001, seed=3)[0] for n in DATASET_NAMES]\n"
        "sys.stdout.buffer.write(pickle.dumps(frames))\n"
    )
    frames = []
    for hash_seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        frames.append(pickle.loads(out.stdout))
    for a, b in zip(*frames):
        pd.testing.assert_frame_equal(a, b)
