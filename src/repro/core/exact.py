"""Brute-force reference solvers — used only by tests.

These are exponential/quadratic oracles that define ground truth on tiny
instances: the exact FairDiv optimum (subset enumeration), the exact
k-center optimum, exact neighborhood matrices, the k-center objective of
a given center set, and the point set of a KD-tree fuzzy ball.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .geometry import diversity, pairwise_distances, satisfies_quotas


def fairdiv_optimum(
    X: np.ndarray, colors: np.ndarray, quotas: np.ndarray
) -> tuple[float, tuple[int, ...]]:
    """Exact FairDiv optimum by enumerating all size-k subsets.

    Returns ``(gamma_star, best_subset_indices)``. Only subsets of size
    exactly k = sum(quotas) need be considered: adding points never
    increases div, so an optimal solution of minimal size has size k.
    """
    k = int(np.sum(quotas))
    n = len(X)
    assert n <= 18, "brute force is for tiny instances only"
    best, best_sub = -1.0, ()
    for sub in combinations(range(n), k):
        idx = np.array(sub)
        if not satisfies_quotas(colors[idx], quotas):
            continue
        d = diversity(X[idx])
        if d > best:
            best, best_sub = d, sub
    return best, best_sub


def kcenter_optimum(X: np.ndarray, k: int) -> float:
    """Exact k-center radius by enumerating all size-k center subsets."""
    n = len(X)
    assert n <= 18
    D = pairwise_distances(X)
    best = float("inf")
    for sub in combinations(range(n), k):
        r = D[:, list(sub)].min(axis=1).max()
        best = min(best, float(r))
    return best


def ball_matrix(X: np.ndarray, r: float) -> np.ndarray:
    """Exact boolean matrix A with A[l, i] = 1 iff ||p_i - p_l|| <= r.

    This is the dense instantiation of the paper's S^eps_p neighborhoods
    (the exact ball is a valid S^eps_p: it contains every point within
    gamma/(2(1+eps)) and nothing beyond gamma/2 when r = gamma/(2(1+eps))).
    """
    return pairwise_distances(X) <= r


def gonzalez_radius(X: np.ndarray, centers_idx: np.ndarray) -> float:
    """k-center objective (max distance of any point to its center)."""
    D = pairwise_distances(np.asarray(X), np.asarray(X)[centers_idx])
    return float(D.min(axis=1).max())


def fuzzy_ball_members(tree, x: np.ndarray, r: float, eps: float) -> np.ndarray:
    """Point indices of S^eps_x = union of ``tree``'s canonical subtrees of
    T(x, r) (``tree`` is a :class:`repro.core.kdtree.KDTree`)."""
    nodes = tree.canonical_nodes(np.asarray(x)[None], r, eps)[:, 1]
    if not len(nodes):
        return np.empty(0, dtype=np.int64)
    return np.concatenate([tree.points_under(u) for u in nodes])
