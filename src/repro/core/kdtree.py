"""BBD-style KD-tree — the paper's central geometric data structure.

The paper's theory uses an Arya–Mount BBD-tree; the authors' own artifact
substitutes a KD-tree (ParGeo) "with modifications to support sum
queries", and we do the same in numpy. What the MWU algorithms actually
need is the BBD *interface*:

- ``canonical_nodes(Q, r, eps)``: for every query point x in the batch
  ``Q``, a set of disjoint canonical nodes whose point sets cover every
  point of ``B(x, r)`` and include nothing outside ``B(x, (1+eps) r)`` —
  the query T(x, r) that defines the fuzzy neighborhood S^eps_x of the
  paper (Section 3.1). One call answers all of ``Q``.
- ``leaf_paths()``: every point's leaf→root path, along which Oracle and
  Update (Algorithms 2–3) aggregate per-node sums and Round (Algorithm 4)
  deactivates nodes (see :mod:`repro.core.mwu`).

Nodes are stored in flat arrays; each node's box is the tight bounding
box of its subtree's points (tight boxes play the role of BBD shrink
nodes well enough in practice; the paper's own KD-tree substitution makes
the same trade). Exactly one point per leaf, 2n-1 nodes in preorder,
height O(log n) via stable median splits on the widest dimension. Every
node owns a contiguous slice of one point permutation, ``order``, with
its right child's slice before its left child's.

The build and every query are level-synchronous loops over numpy arrays.
The build makes one pass per tree level: one ``np.minimum.reduceat`` and
``np.maximum.reduceat`` give every frontier node's tight box, one stable
``np.lexsort`` keyed by (node, split coordinate) sorts every node's slice,
and the children's preorder ids, starts and sizes follow arithmetically.
Every query is one walk (:meth:`KDTree._walk`): level by level, over all
(query, node) pairs at once, pairs whose node the query prunes drop out,
pairs whose node it accepts are reported, and every other pair moves to
the node's two children. A leaf's tight box is its own point, so a leaf
is always pruned or accepted.
"""
from __future__ import annotations

import numpy as np


def _norm(d: np.ndarray) -> np.ndarray:
    return np.sqrt((d * d).sum(axis=1))


class KDTree:
    """Static balanced KD-tree over an ``(n, d)`` point array."""

    def __init__(self, X: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or len(X) == 0:
            raise ValueError("KDTree needs a non-empty (n, d) array")
        if not np.isfinite(X).all():
            # A walk can neither prune nor accept a NaN leaf: its pairs would double per level.
            raise ValueError("KDTree needs finite coordinates (no NaN or inf)")
        self.X = X
        n = len(X)
        self.n_nodes = 2 * n - 1
        self.lo = np.empty((self.n_nodes, X.shape[1]))
        self.hi = np.empty((self.n_nodes, X.shape[1]))
        self.left = np.full(self.n_nodes, -1, dtype=np.int64)
        self.right = np.full(self.n_nodes, -1, dtype=np.int64)
        self.parent = np.full(self.n_nodes, -1, dtype=np.int64)
        self.point_leaf = np.empty(n, dtype=np.int64)
        self.start = np.empty(self.n_nodes, dtype=np.int64)
        self.size = np.empty(self.n_nodes, dtype=np.int64)
        self.order = np.arange(n, dtype=np.int64)
        # One tree level per pass: every frontier node's slice of ``order``
        # is gathered into one array, segment by segment.
        node, start, size = np.zeros(1, np.int64), np.zeros(1, np.int64), np.full(1, n)
        while len(node):
            self.start[node], self.size[node] = start, size
            offs = np.cumsum(size) - size
            seg = np.repeat(np.arange(len(node)), size)
            rank = np.arange(len(seg)) - offs[seg]
            idx = self.order[start[seg] + rank]
            pts = X[idx]
            lo = self.lo[node] = np.minimum.reduceat(pts, offs)
            hi = self.hi[node] = np.maximum.reduceat(pts, offs)
            leaf = size == 1
            self.point_leaf[idx[offs[leaf]]] = node[leaf]
            # Stable sort of every slice along its node's widest dimension.
            dim = np.argmax(hi - lo, axis=1)
            srt = np.lexsort((pts[np.arange(len(seg)), dim[seg]], seg))
            mid = size // 2
            # The right child's slice comes first. Any fixed layout is a
            # valid tree; this one fixes the row each node's slice starts
            # with (where QFairDiv starts its per-node Gonzalez) and the
            # order in which MWU's Update sums a point's cover nodes.
            self.order[start[seg] + (rank - mid[seg]) % size[seg]] = idx[srt]
            # Preorder ids: the left subtree's 2*mid - 1 nodes come first.
            node, start, size, mid = node[~leaf], start[~leaf], size[~leaf], mid[~leaf]
            self.left[node], self.right[node] = node + 1, node + 2 * mid
            self.parent[node + 1] = self.parent[node + 2 * mid] = node
            node = np.concatenate([node + 1, node + 2 * mid])
            start = np.concatenate([start + size - mid, start])
            size = np.concatenate([mid, size - mid])

    def _walk(self, n_queries: int, test) -> np.ndarray:
        """``(P, 2)`` array of the (query, node) pairs reported by one
        level-synchronous walk from the root. ``test(q, u)`` returns the
        (prune, accept) masks of a batch of pairs. Pairs are sorted by
        query, then by where the node's slice lies in ``order``."""
        q = np.arange(n_queries)
        u = np.zeros(n_queries, dtype=np.int64)
        found = []
        while len(q):
            prune, accept = test(q, u)
            accept &= ~prune
            found.append(np.column_stack([q[accept], u[accept]]))
            split = ~(prune | accept)
            q, u = np.repeat(q[split], 2), u[split]
            u = np.column_stack([self.left[u], self.right[u]]).ravel()
        pairs = np.concatenate(found)
        return pairs[np.lexsort((self.start[pairs[:, 1]], pairs[:, 0]))]

    # -- BBD interface --------------------------------------------------------

    def canonical_nodes(self, Q: np.ndarray, r: float, eps: float) -> np.ndarray:
        """Disjoint canonical nodes for the fuzzy ball queries T(x, r), one
        per row x of the ``(q, d)`` batch ``Q``, as (query, node) pairs.

        Guarantees: every point within ``r`` of ``x`` lies in exactly one
        reported node's subtree, and no reported subtree contains a point
        farther than ``(1+eps) r``; with ``eps = 0`` the reported points
        are exactly B(x, r).
        """
        if not eps >= 0.0:
            raise ValueError(f"eps must be >= 0, got {eps}")
        Q = np.asarray(Q, dtype=np.float64)
        fuzzy = (1.0 + eps) * r

        def test(q, u):
            x, lo, hi = Q[q], self.lo[u], self.hi[u]
            near = np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)
            far = np.maximum(np.abs(x - lo), np.abs(x - hi))
            return _norm(near) > r, _norm(far) <= fuzzy

        return self._walk(len(Q), test)

    def canonical_nodes_rect(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Disjoint canonical nodes exactly covering P within the closed
        axis-aligned rectangle [lo, hi] (used by the QFairDiv index)."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)

        def test(q, u):
            return ((self.hi[u] < lo).any(axis=1) | (self.lo[u] > hi).any(axis=1),
                    (self.lo[u] >= lo).all(axis=1) & (self.hi[u] <= hi).all(axis=1))

        return self._walk(1, test)[:, 1]

    def points_under(self, node: int) -> np.ndarray:
        """Indices of all points in the subtree of ``node`` (a view)."""
        return self.order[self.start[node] : self.start[node] + self.size[node]]

    def leaf_paths(self) -> tuple[np.ndarray, np.ndarray]:
        """``(point, node)`` index pairs, one per node on each point's
        leaf→root path; sorted by point, leaf first within a point."""
        pts = np.arange(len(self.X))
        nodes = self.point_leaf
        out_pts, out_nodes = [], []
        while len(nodes):
            out_pts.append(pts)
            out_nodes.append(nodes)
            up = self.parent[nodes]
            pts, nodes = pts[up >= 0], up[up >= 0]
        pts, nodes = np.concatenate(out_pts), np.concatenate(out_nodes)
        order = np.argsort(pts, kind="stable")
        return pts[order], nodes[order]
