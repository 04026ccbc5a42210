"""Synthetic stand-ins for the paper's six evaluation datasets.

The paper evaluates on Adult, Diabetes, Census, Popsim, Popsim_1M and
Beer-reviews (Table 3). None is downloadable in this offline container,
so each is replaced by a deterministic generator that matches the
published (n, d, m) and the structural properties the algorithms are
sensitive to:

- cluster structure in R^d (real embeddings are clumpy, not uniform);
- a skewed color marginal (dominant majority group, thin minorities) —
  this is what makes *unfair* max-min solutions drop minority colors;
- for Popsim, spatial correlation between color and location
  (per-cluster color distributions), mimicking geographic segregation,
  the paper's Figure-1 motivation;
- for Beer, a shuffled arrival order for the streaming experiments.

``scale`` multiplies n (benchmarks run at a fraction of the real n;
see EXPERIMENTS.md). All generators are deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

_SPECS: dict[str, dict] = {
    # name: n, d, m, color marginal (sums to 1), n_clusters, and a fixed
    # generator salt, so that a dataset does not depend on Python's
    # per-process string hashing
    "adult": dict(
        n=32_561,
        d=6,
        m=10,
        marginal=[0.39, 0.28, 0.09, 0.07, 0.05, 0.04, 0.03, 0.025, 0.02, 0.005],
        clusters=12,
        salt=59456,
    ),
    "diabetes": dict(
        n=101_763, d=8, m=4, marginal=[0.40, 0.35, 0.15, 0.10], clusters=10, salt=57182
    ),
    "census": dict(
        n=2_426_116,
        d=6,
        m=14,
        marginal=[0.18, 0.15, 0.12, 0.10, 0.09, 0.08, 0.07, 0.06, 0.05, 0.04, 0.03, 0.015, 0.01, 0.005],
        clusters=20,
        salt=51645,
    ),
    "popsim": dict(
        n=4_110_608, d=2, m=5, marginal=[0.58, 0.17, 0.14, 0.06, 0.05], clusters=30, spatial=True, salt=59437
    ),
    "popsim_1m": dict(
        n=821_804, d=2, m=5, marginal=[0.58, 0.17, 0.14, 0.06, 0.05], clusters=30, spatial=True, salt=7235
    ),
    "beer": dict(n=1_518_829, d=6, m=3, marginal=[0.50, 0.35, 0.15], clusters=8, stream=True, salt=19180),
}

DATASET_NAMES = list(_SPECS)


@dataclass
class DatasetMeta:
    name: str
    n: int
    d: int
    m: int
    paper_n: int


def dataset_pandas(name: str, *, scale: float = 1.0, seed: int = 0) -> tuple[pd.DataFrame, DatasetMeta]:
    """Generate one dataset as a pandas frame x0..x{d-1}, color (int64)."""
    spec = _SPECS[name]
    n = max(64, int(spec["n"] * scale))
    d, m = spec["d"], spec["m"]
    marginal = np.asarray(spec["marginal"], dtype=np.float64)
    marginal = marginal / marginal.sum()
    rng = np.random.default_rng(seed + spec["salt"])
    centers = rng.normal(0.0, 10.0, size=(spec["clusters"], d))
    cluster_of = rng.choice(spec["clusters"], size=n)
    X = centers[cluster_of] + rng.normal(0.0, 1.5, size=(n, d))
    if spec.get("spatial"):
        # Per-cluster color distribution: Dirichlet around the marginal,
        # sharp enough that clusters are color-dominated (segregation).
        per_cluster = rng.dirichlet(marginal * 8.0, size=spec["clusters"])
        colors = np.empty(n, dtype=np.int64)
        for c in range(spec["clusters"]):
            mask = cluster_of == c
            colors[mask] = rng.choice(m, size=int(mask.sum()), p=per_cluster[c])
    else:
        colors = rng.choice(m, size=n, p=marginal)
    # Guarantee every color appears even at tiny scales.
    colors[:m] = np.arange(m)
    if spec.get("stream"):
        order = rng.permutation(n)
        X, colors = X[order], colors[order]
    pdf = pd.DataFrame(X, columns=[f"x{i}" for i in range(d)])
    pdf["color"] = colors
    return pdf, DatasetMeta(name=name, n=n, d=d, m=m, paper_n=spec["n"])


def dataset_spark(spark, name: str, *, scale: float = 1.0, seed: int = 0, n_partitions: int | None = None):
    """Same dataset as a Spark DataFrame (plus metadata), ingested by
    :func:`repro.core.coreset.to_spark_points`."""
    from ..core.coreset import to_spark_points  # keeps pyspark out of the numpy-only paths

    X, colors, meta = dataset_arrays(name, scale=scale, seed=seed)
    return to_spark_points(spark, X, colors, n_partitions=n_partitions), meta


def dataset_arrays(name: str, *, scale: float = 1.0, seed: int = 0) -> tuple[np.ndarray, np.ndarray, DatasetMeta]:
    """Dataset as (X, colors) numpy arrays (plus metadata)."""
    pdf, meta = dataset_pandas(name, scale=scale, seed=seed)
    feats = [c for c in pdf.columns if c.startswith("x")]
    return pdf[feats].to_numpy(), pdf["color"].to_numpy(), meta
