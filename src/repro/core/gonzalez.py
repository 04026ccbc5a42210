"""Gonzalez greedy k-center — the workhorse behind coresets (Theorem 4.2).

One traversal, :func:`gonzalez_order`: classic serial farthest-point
traversal (Gonzalez, TCS 1985), vectorized with an incremental
min-distance array (O(nkd) flops, O(nd) memory), returning the selection
order plus the insertion radii; the QFairDiv range structure stores
per-node Gonzalez *prefixes* of it. :func:`gonzalez` is its order alone;
:func:`coreset_numpy`, per color.

Each step measures one point against all rows with
:func:`repro.core.geometry.dists_to_point_cm` over a coordinate-major copy
of X made once per call: whole coordinate rows per numpy call instead of
a short row sum per point.

Composability (run Gonzalez per partition, then on the union of the
partial centers) yields a constant-factor k-center solution, which is
exactly what Theorem 4.2 requires of ``Alg``; the Spark coreset
(:func:`repro.core.coreset.coreset_arrays`) is built that way.

Gonzalez is a 2-approximation for k-center and a 1/2-approximation for
(unfair) max-min diversification; the min pairwise distance among the
selected centers, doubled, is the upper bound on the FairDiv optimum
where MFD's geometric gamma descent starts
(:func:`repro.core.mfd.gamma_upper_bound`).
"""
from __future__ import annotations

import numpy as np

from .geometry import dists_to_point_cm


def gonzalez(X: np.ndarray, k: int) -> np.ndarray:
    """Indices of ``min(k, n)`` Gonzalez centers of ``X`` (none for k <= 0)."""
    return gonzalez_order(X, k)[0]


def gonzalez_order(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gonzalez selection order plus insertion radii.

    The traversal starts at row 0 (the approximation guarantee holds for
    any start; a fixed one keeps runs deterministic). ``radii[t]`` is the
    distance from center ``t`` to the previously selected centers at the
    moment it was chosen (radii[0] = inf). The order never repeats a row,
    so on input with fewer than k distinct points the tail holds duplicates
    at radius 0. The radii are non-increasing;
    prefix ``order[:t]`` is a valid Gonzalez run for k'=t, which makes
    stored prefixes reusable for any query k. Distances are
    :func:`repro.core.geometry.dists_to_point_cm`'s, whatever X's memory
    layout.
    """
    X = np.asarray(X, dtype=np.float64)
    k = max(0, min(int(k), len(X)))
    order = np.zeros(k, dtype=np.int64)
    radii = np.full(k, np.inf)
    if k == 0:
        return order, radii
    XT = np.ascontiguousarray(X.T)
    buf, dist = np.empty_like(XT), np.empty(len(X))
    mind = dists_to_point_cm(XT, X[0], buf, np.empty(len(X)))
    mind[0] = -np.inf  # a selected row is never picked again, even at distance 0
    for t in range(1, k):
        nxt = int(np.argmax(mind))
        order[t], radii[t] = nxt, mind[nxt]
        np.minimum(mind, dists_to_point_cm(XT, X[nxt], buf, dist), out=mind)
        mind[nxt] = -np.inf
    return order, radii


def coreset_numpy(
    X: np.ndarray, colors: np.ndarray, per_color_k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Serial reference: per-color Gonzalez (the authors' implementation:
    k iterations per color, coreset size <= m*k). Returns (indices, colors)."""
    out = [np.empty(0, dtype=np.int64)]  # no colors (empty input): empty coreset
    for j in np.unique(colors):
        idx = np.where(colors == j)[0]
        out.append(idx[gonzalez(X[idx], per_color_k)])
    sel = np.concatenate(out)
    return sel, np.asarray(colors)[sel]
