"""Well-Separated Pair Decomposition (Callahan–Kosaraju) over the KD-tree.

The paper uses a WSPD to produce the sorted candidate-distance array
``Gamma`` for MFD's binary search: every pairwise distance of P is
(1+eps)-approximated by some pair's representative distance, so binary
searching Gamma loses at most a (1+eps) factor on gamma*.

The classic construction runs on a fair-split tree; our balanced KD-tree
(tight boxes, widest-dimension median splits) is a fair-split-style tree
and yields the standard O(s^d n) pair bound in practice. Each node's
representative point is read off its slice of the tree's point
permutation, and every pair's representative distance is one numpy
step. The practical MFD path (paper Section 6) replaces the WSPD with a
geometric-decay schedule; this module backs the theory-faithful path and
its tests.
"""
from __future__ import annotations

import numpy as np

from .kdtree import KDTree


def _diam(tree: KDTree, u: int) -> float:
    d = tree.hi[u] - tree.lo[u]
    return float(np.sqrt((d * d).sum()))


def _box_dist(tree: KDTree, u: int, v: int) -> float:
    gap = np.maximum(tree.lo[u] - tree.hi[v], 0.0) + np.maximum(
        tree.lo[v] - tree.hi[u], 0.0
    )
    return float(np.sqrt((gap * gap).sum()))


def wspd_pairs(tree: KDTree, s: float) -> list[tuple[int, int]]:
    """All s-well-separated node pairs (u, v) of the tree.

    (u, v) is s-well-separated when the boxes fit in balls of radius
    rho = max(diam)/2 whose gap is at least s * rho.
    """
    pairs: list[tuple[int, int]] = []
    stack: list[tuple[int, int]] = []

    def push(u: int, v: int) -> None:
        stack.append((u, v))

    for node in range(tree.n_nodes):
        if tree.leaf_point[node] < 0:
            push(tree.left[node], tree.right[node])
    while stack:
        u, v = stack.pop()
        rho = max(_diam(tree, u), _diam(tree, v)) / 2.0
        if _box_dist(tree, u, v) >= s * rho:
            pairs.append((u, v))
            continue
        if _diam(tree, u) < _diam(tree, v):
            u, v = v, u
        # u is the larger box; it cannot be a leaf here because a leaf has
        # diameter 0, which would have satisfied the separation test.
        push(tree.left[u], v)
        push(tree.right[u], v)
    return pairs


def candidate_distances(X: np.ndarray, eps: float) -> np.ndarray:
    """Sorted array Gamma of WSPD representative distances.

    Separation s = 4/eps gives: for every p, q in X there is a g in Gamma
    with (1 - eps) ||p-q|| <= g <= (1 + eps) ||p-q||.
    """
    X = np.asarray(X, dtype=np.float64)
    if len(X) < 2:
        return np.empty(0)
    tree = KDTree(X)
    # Representative of a node: any point in its subtree; here its leftmost
    # leaf, the last entry of the node's slice of ``tree.order``.
    reps = tree.order[tree.start + tree.size - 1]
    u, v = np.array(wspd_pairs(tree, 4.0 / eps)).reshape(-1, 2).T
    diff = X[reps[u]] - X[reps[v]]
    return np.unique(np.sqrt((diff * diff).sum(axis=1)))
