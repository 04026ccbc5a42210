"""Well-Separated Pair Decomposition (Callahan–Kosaraju) over the KD-tree.

The paper uses a WSPD to produce the sorted candidate-distance array
``Gamma`` for MFD's binary search: every pairwise distance of P is
(1+eps)-approximated by some pair's representative distance, so binary
searching Gamma loses at most a (1+eps) factor on gamma*.

The classic construction runs on a fair-split tree; our balanced KD-tree
(tight boxes, widest-dimension median splits) is a fair-split-style tree
and yields the standard O(s^d n) pair bound in practice. The pairs come
from one level-synchronous loop over (u, v) node pairs, the idiom of the
tree's own build and queries; each node's representative point is read
off its slice of the tree's point permutation, and every pair's
representative distance is one numpy step. The practical MFD path
(paper Section 6) replaces the WSPD with a geometric-decay schedule;
this module backs the theory-faithful path and its tests.
"""
from __future__ import annotations

import numpy as np

from .kdtree import KDTree, _norm


def wspd_pairs(tree: KDTree, s: float) -> np.ndarray:
    """All s-well-separated node pairs (u, v) of the tree, as a ``(P, 2)``
    array: (u, v) is s-well-separated when the boxes fit in balls of radius
    rho = max(diam)/2 whose gap is at least s * rho.

    The walk starts from every internal node's two children. Per level,
    every pair that passes the test is reported, and every other pair is
    replaced by the larger box's two children, each paired with the
    smaller box. The larger box is never a leaf: a leaf has diameter 0,
    which passes the test.
    """
    diam = _norm(tree.hi - tree.lo)
    inner = np.flatnonzero(tree.leaf_point < 0)
    u, v = tree.left[inner], tree.right[inner]
    found = [np.empty((0, 2), dtype=np.int64)]
    while len(u):
        gap = np.maximum(tree.lo[u] - tree.hi[v], 0.0) + np.maximum(tree.lo[v] - tree.hi[u], 0.0)
        sep = _norm(gap) >= s * (np.maximum(diam[u], diam[v]) / 2.0)
        found.append(np.column_stack([u[sep], v[sep]]))
        u, v = u[~sep], v[~sep]
        swap = diam[u] < diam[v]
        u, v = np.where(swap, v, u), np.where(swap, u, v)
        u, v = np.column_stack([tree.left[u], tree.right[u]]).ravel(), np.repeat(v, 2)
    return np.concatenate(found)


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
    u, v = wspd_pairs(tree, 4.0 / eps).T
    diff = X[reps[u]] - X[reps[v]]
    return np.unique(_norm(diff))
