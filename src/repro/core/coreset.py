"""FairDiv coresets (paper Section 4 / Theorem 4.2) — the distributed stage.

Theorem 4.2 says *any* constant-approximation k-center algorithm, run
per color, yields a (1+eps)-coreset for FairDiv. That generality is what
makes the construction distribution-friendly: the two-round composable
Gonzalez (partition-local centers, then Gonzalez over the union of
partial centers) is itself a constant-factor k-center algorithm, so the
union of its per-color outputs is a valid coreset.

This module is the only part of the pipeline that touches all n points;
everything downstream (MWU, rounding, baselines-on-coreset) works on the
O(m k) coreset on the driver, exactly as in the authors' artifact.

Spark pipeline shape (one job, one task per task slot)::

    df.select(x0.., color)
      .coalesce(defaultParallelism)       # narrow: no shuffle
      .mapInPandas(coreset_numpy)         # per-color Gonzalez over a slot's rows
      .toPandas()                         # O(m * slots * k) partial centers
    coreset_numpy(partial centers)        # per-color merge on the driver

Each Python task has a fixed cost well above its Gonzalez work at bench
scale, so the pass runs one task per slot rather than one per partition or
per color. Before every task PySpark's worker calls
``importlib.invalidate_caches()``, which on Python < 3.13 re-reads the
central directory of every zip archive on the worker's path (pyspark.zip,
py4j, the spark-core jar): about 0.23 s of the 0.30 s a task held its
slot on a 4-core VM. :func:`skip_unchanged_zip_rereads`, the first call of
every Python task in this package, makes workers re-read only archives
that changed on disk, which leaves about 0.08 s per task; see
EXPERIMENTS.md ("Spark coreset").
"""
from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

from .gonzalez import coreset_numpy

if TYPE_CHECKING:  # annotations only: the numpy-only paths never load pyspark
    from pyspark.sql import DataFrame, SparkSession


_zip_rereads_skipped = False  # set once skip_unchanged_zip_rereads has installed


def _stat_stamp(path: str) -> tuple[int, int] | None:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_mtime_ns, st.st_size


def skip_unchanged_zip_rereads() -> None:
    """Make ``zipimporter.invalidate_caches`` re-read an archive's directory
    only when the archive's (mtime_ns, size) changed since it was last read,
    or cannot be stat'ed. Call it first thing in a Python task.

    Installs once per process, on Python < 3.13 only (3.13 re-reads lazily).
    The archives of the importers already cached count as read as they are
    now (in a Spark task, the worker's own ``invalidate_caches`` has just
    re-read them), so the next task's call already reads nothing."""
    global _zip_rereads_skipped
    if _zip_rereads_skipped or sys.version_info >= (3, 13):
        return
    import zipimport

    stamps: dict[str, tuple[int, int] | None] = {}
    reread = zipimport.zipimporter.invalidate_caches

    def invalidate_caches(self):
        stamp = _stat_stamp(self.archive)
        files = zipimport._zip_directory_cache.get(self.archive)
        if stamp is not None and files is not None and stamps.get(self.archive) == stamp:
            self._files = files
            return
        reread(self)
        stamps[self.archive] = stamp

    for importer in list(sys.path_importer_cache.values()):
        if isinstance(importer, zipimport.zipimporter):
            stamps[importer.archive] = _stat_stamp(importer.archive)
    zipimport.zipimporter.invalidate_caches = invalidate_caches
    _zip_rereads_skipped = True


def feature_columns(df) -> list[str]:
    """The point-coordinate columns: every column named x0, x1, ..."""
    return sorted(
        (c for c in df.columns if c.startswith("x") and c[1:].isdigit()),
        key=lambda c: int(c[1:]),
    )


def coreset_arrays(df: DataFrame, per_color_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distributed per-color coreset as (X, colors) numpy arrays.

    One Spark job: the rows are coalesced to one partition per task slot
    (``defaultParallelism``) and each task runs :func:`coreset_numpy` over
    its partition; the O(m * slots * k) partial centers are collected and
    merged on the driver by :func:`coreset_numpy` again.
    """
    feats = feature_columns(df)
    work = df.select(*feats, "color")

    def local(batches):
        skip_unchanged_zip_rereads()
        parts = list(batches)
        if parts:
            pdf = pd.concat(parts, ignore_index=True)
            sel, _ = coreset_numpy(
                pdf[feats].to_numpy(dtype=np.float64),
                pdf["color"].to_numpy(dtype=np.int64),
                per_color_k,
            )
            yield pdf.iloc[sel]

    slots = df.sparkSession.sparkContext.defaultParallelism
    pdf = work.coalesce(slots).mapInPandas(local, schema=work.schema).toPandas()
    X = pdf[feats].to_numpy(dtype=np.float64)
    sel, colors = coreset_numpy(X, pdf["color"].to_numpy(dtype=np.int64), per_color_k)
    return X[sel], colors


def to_spark_points(
    spark: SparkSession, X: np.ndarray, colors: np.ndarray, *, n_partitions: int | None = None
) -> DataFrame:
    """Package (X, colors) numpy arrays as a Spark DataFrame x0..x{d-1}, color."""
    X = np.asarray(X, dtype=np.float64)
    pdf = pd.DataFrame(X, columns=[f"x{i}" for i in range(X.shape[1])])
    pdf["color"] = np.asarray(colors, dtype=np.int64)
    sdf = spark.createDataFrame(pdf)
    return sdf.repartition(n_partitions) if n_partitions else sdf
