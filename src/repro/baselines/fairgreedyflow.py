"""FairGreedyFlow baseline (Addanki, McGregor, Meliou, Moumoulidou [7]).

For a guessed diversity gamma: build a greedy net over the points with
separation gamma/(m+1), assign every point to its nearest net center,
and test via max-flow whether one point per cluster can satisfy all
color quotas. Any optimal solution with div >= gamma places its k points
in k *distinct* clusters (two points >= gamma apart cannot share a
center within gamma/(m+1) when gamma > 2 gamma/(m+1), i.e. m >= 2), so
feasibility is never spuriously rejected; the returned diversity decays
by the 1/((m+1)(1+eps)) chaining factor — the paper's guarantee shape.

Searches gamma over a descending geometric grid from the global-Gonzalez
upper bound (same schedule as MFD, for comparability), stopping at the
first feasible guess.
"""
from __future__ import annotations

import numpy as np

from ..core.geometry import diversity, missed_per_color, pairwise_distances
from ..core.mfd import gamma_upper_bound
from .fairflow import BaselineResult, _flow_select, _greedy_net

DECAY = 0.15  # gamma <- (1 - DECAY) gamma per infeasible guess, as MFD's default
MAX_ROUNDS = 200


def fairgreedyflow(
    X: np.ndarray,
    colors: np.ndarray,
    quotas: np.ndarray,
    *,
    seed: int | None = None,
) -> BaselineResult:
    X = np.asarray(X, dtype=np.float64)
    colors = np.asarray(colors, dtype=np.int64)
    quotas = np.asarray(quotas, dtype=np.int64)
    m = len(quotas)
    k = int(quotas.sum())
    gamma = gamma_upper_bound(X, k)
    if not np.isfinite(gamma):
        gamma = 1.0
    best = None
    for _ in range(MAX_ROUNDS):
        sep = gamma / (m + 1)
        centers = _greedy_net(X, sep)
        clusters = np.argmin(pairwise_distances(X, X[centers]), axis=1)
        sel_rows = _flow_select(X, colors, clusters, centers, quotas)
        got = np.bincount(colors[sel_rows], minlength=m) if sel_rows else np.zeros(m, int)
        if np.all(got >= quotas):
            best = np.array(sel_rows, dtype=np.int64)
            break
        gamma *= 1.0 - DECAY
    if best is None:
        best = np.array(sel_rows, dtype=np.int64) if sel_rows else np.empty(0, dtype=np.int64)
    return BaselineResult(
        indices=best,
        diversity=diversity(X[best]),
        colors=colors[best],
        missed=missed_per_color(colors[best], quotas),
        extras={"gamma": gamma},
    )
