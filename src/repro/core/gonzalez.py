"""Gonzalez greedy k-center — the workhorse behind coresets (Theorem 4.2).

Two entry points:

- :func:`gonzalez` — classic serial farthest-point traversal, vectorized
  with an incremental min-distance array: O(nkd) flops, O(n) memory.
- :func:`gonzalez_order` — the same traversal but returning the full
  selection order plus the insertion radii; used by the QFairDiv range
  structure, which stores per-node Gonzalez *prefixes*.

Composability (run Gonzalez per partition, then on the union of the
partial centers) yields a constant-factor k-center solution, which is
exactly what Theorem 4.2 requires of ``Alg``; the Spark coreset
(:func:`repro.core.coreset.coreset_arrays`) is built that way.

Gonzalez is a 2-approximation for k-center and a 1/2-approximation for
(unfair) max-min diversification; the min pairwise distance among the
selected centers is the paper's upper bound for the FairDiv binary
search.
"""
from __future__ import annotations

import numpy as np

from .geometry import dists_to_point


def gonzalez(X: np.ndarray, k: int, *, first: int = 0) -> np.ndarray:
    """Indices of ``min(k, n)`` Gonzalez centers of ``X``.

    ``first`` seeds the traversal (the approximation guarantee holds for
    any seed; a fixed default keeps runs deterministic).
    """
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    k = min(int(k), n)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = first
    mind = dists_to_point(X, X[first])
    for t in range(1, k):
        nxt = int(np.argmax(mind))
        chosen[t] = nxt
        np.minimum(mind, dists_to_point(X, X[nxt]), out=mind)
    return chosen


def gonzalez_order(
    X: np.ndarray, k: int, *, first: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Gonzalez selection order plus insertion radii.

    ``radii[t]`` is the distance from center ``t`` to the previously
    selected centers at the moment it was chosen (radii[0] = inf). The
    radii are non-increasing; prefix ``order[:t]`` is a valid Gonzalez
    run for k'=t, which makes stored prefixes reusable for any query k.
    """
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    k = min(int(k), n)
    order = np.empty(k, dtype=np.int64)
    radii = np.empty(k, dtype=np.float64)
    order[0], radii[0] = first, np.inf
    mind = dists_to_point(X, X[first])
    for t in range(1, k):
        nxt = int(np.argmax(mind))
        order[t], radii[t] = nxt, float(mind[nxt])
        np.minimum(mind, dists_to_point(X, X[nxt]), out=mind)
    return order, radii


def gonzalez_radius(X: np.ndarray, centers_idx: np.ndarray) -> float:
    """k-center objective (max distance of any point to its center)."""
    from .geometry import pairwise_distances

    D = pairwise_distances(np.asarray(X), np.asarray(X)[centers_idx])
    return float(D.min(axis=1).max())
