"""Spark coreset cost (EXPERIMENTS.md, "Spark coreset"): what a Python task
costs, where a task's time goes, and coreset_arrays vs the serial
coreset_numpy as n grows.

Census (generator seed 0, rows shuffled with seed 0), per-color k=100, the
input cached in 16 partitions, Arrow on; medians of 5 calls after one
warm-up (coreset_numpy: 3). Prints markdown tables.

    PYTHONPATH=src python jobs/run_spark_coreset.py

(PYTHONPATH, or an installed package, lets the Spark workers import repro.)
"""
import importlib
import time
import zipimport

import numpy as np
from _session import get_spark

from repro.core import coreset
from repro.data.datasets import dataset_arrays

K = 100
SCALES = (0.02, 0.05, 0.1, 0.15, 0.2)  # census n = 48,522 ... 485,223
TASKS = (1, 4, 16, 64)


def _median_s(fn, runs: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _census(spark, scale: float):
    X, colors, _ = dataset_arrays("census", scale=scale, seed=0)
    rows = np.random.default_rng(0).permutation(len(X))
    X, colors = X[rows], colors[rows]
    df = coreset.to_spark_points(spark, X, colors, n_partitions=16).cache()
    df.count()
    return X, colors, df


def _noop(batches):
    coreset.skip_unchanged_zip_rereads()
    for _ in batches:
        pass
    return iter(())


def _task_split(batches):
    """One row per task: the cost of the invalidate_caches() call PySpark's
    worker makes before each task, and the zip archives it re-read."""
    import pandas as pd

    coreset.skip_unchanged_zip_rereads()
    t0 = time.perf_counter()
    for _ in batches:
        pass
    body = time.perf_counter() - t0
    reads = []
    read_directory = zipimport._read_directory

    def counting(path):
        reads.append(path)
        return read_directory(path)

    zipimport._read_directory = counting
    try:
        t0 = time.perf_counter()
        importlib.invalidate_caches()
        invalidate = time.perf_counter() - t0
    finally:
        zipimport._read_directory = read_directory
    yield pd.DataFrame({"invalidate_s": [invalidate], "body_s": [body], "reads": [len(reads)]})


def main() -> None:
    spark = get_spark("spark-coreset-cost")
    slots = spark.sparkContext.defaultParallelism
    X, colors, df = _census(spark, SCALES[0])
    coreset.coreset_arrays(df, K)  # every worker has run a coreset task

    print(f"| tasks | {' | '.join(map(str, TASKS))} |")
    print(f"|---|{'---|' * len(TASKS)}")
    cells = []
    for t in TASKS:
        src = df.coalesce(t) if t <= 16 else df.repartition(t).cache()
        src.count()
        job_s = _median_s(lambda: src.mapInPandas(_noop, schema=df.schema).collect(), 5)
        cells.append(job_s)
        if t > 16:
            src.unpersist()
    print(f"| no-op `mapInPandas` (s) | {' | '.join(f'{s:.2f}' for s in cells)} |")
    print(f"\nslot held per task at {TASKS[-1]} tasks: {slots * cells[-1] / TASKS[-1]:.3f} s")

    split = df.mapInPandas(_task_split, "invalidate_s double, body_s double, reads long")
    split.collect()
    pdf = split.toPandas()
    print(
        f"per task ({len(pdf)} tasks): invalidate_caches median {pdf.invalidate_s.median() * 1e3:.1f} ms "
        f"(range {pdf.invalidate_s.min() * 1e3:.1f}-{pdf.invalidate_s.max() * 1e3:.1f}), "
        f"archive reads median {int(pdf.reads.median())}, batch reading median {pdf.body_s.median() * 1e3:.1f} ms\n"
    )
    df.unpersist()

    print("| n | `coreset_arrays` (s) | `coreset_numpy` (s) | size |")
    print("|---|---|---|---|")
    for scale in SCALES:
        X, colors, df = _census(spark, scale)
        size = len(coreset.coreset_arrays(df, K)[0])
        spark_s = _median_s(lambda: coreset.coreset_arrays(df, K), 5)
        serial_s = _median_s(lambda: coreset.coreset_numpy(X, colors, K), 3)
        print(f"| {len(X):,} | {spark_s:.2f} | {serial_s:.2f} | {size} |")
        df.unpersist()
    spark.stop()


if __name__ == "__main__":
    main()
