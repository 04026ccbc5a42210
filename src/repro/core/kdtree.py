"""BBD-style KD-tree — the paper's central geometric data structure.

The paper's theory uses an Arya–Mount BBD-tree; the authors' own artifact
substitutes a KD-tree (ParGeo) "with modifications to support sum
queries", and we do the same in numpy. What the MWU algorithms actually
need is the BBD *interface*:

- ``canonical_nodes(x, r, eps)``: a set of disjoint canonical nodes whose
  point sets cover every point of ``B(x, r)`` and include nothing outside
  ``B(x, (1+eps) r)`` — this defines the fuzzy neighborhood S^eps_p of
  the paper (Section 3.1).
- ``leaf_paths()``: every point's leaf→root path, along which Oracle and
  Update (Algorithms 2–3) aggregate per-node sums and Round (Algorithm 4)
  deactivates nodes (see :mod:`repro.core.mwu`).

Nodes are stored in flat arrays; each node's box is the tight bounding
box of its subtree's points (tight boxes play the role of BBD shrink
nodes well enough in practice; the paper's own KD-tree substitution makes
the same trade). Exactly one point per leaf, 2n-1 nodes, height O(log n)
via median splits on the widest dimension.
"""
from __future__ import annotations

import numpy as np


class KDTree:
    """Static balanced KD-tree over an ``(n, d)`` point array."""

    def __init__(self, X: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or len(X) == 0:
            raise ValueError("KDTree needs a non-empty (n, d) array")
        self.X = X
        n = len(X)
        max_nodes = 2 * n - 1
        self.lo = np.empty((max_nodes, X.shape[1]))
        self.hi = np.empty((max_nodes, X.shape[1]))
        self.left = np.full(max_nodes, -1, dtype=np.int64)
        self.right = np.full(max_nodes, -1, dtype=np.int64)
        self.parent = np.full(max_nodes, -1, dtype=np.int64)
        self.leaf_point = np.full(max_nodes, -1, dtype=np.int64)
        self.point_leaf = np.empty(n, dtype=np.int64)
        self.size = np.empty(max_nodes, dtype=np.int64)
        self._n_nodes = 0
        self._build(np.arange(n, dtype=np.int64), -1)
        self.n_nodes = self._n_nodes

    def _build(self, idx: np.ndarray, parent: int) -> int:
        node = self._n_nodes
        self._n_nodes += 1
        pts = self.X[idx]
        self.lo[node] = pts.min(axis=0)
        self.hi[node] = pts.max(axis=0)
        self.parent[node] = parent
        self.size[node] = len(idx)
        if len(idx) == 1:
            self.leaf_point[node] = idx[0]
            self.point_leaf[idx[0]] = node
            return node
        spread = self.hi[node] - self.lo[node]
        dim = int(np.argmax(spread))
        order = idx[np.argsort(pts[:, dim], kind="stable")]
        mid = len(order) // 2
        self.left[node] = self._build(order[:mid], node)
        self.right[node] = self._build(order[mid:], node)
        return node

    # -- geometric predicates -------------------------------------------------

    def _box_min_dist(self, node: int, x: np.ndarray) -> float:
        d = np.maximum(self.lo[node] - x, 0.0) + np.maximum(x - self.hi[node], 0.0)
        return float(np.sqrt((d * d).sum()))

    def _box_max_dist(self, node: int, x: np.ndarray) -> float:
        d = np.maximum(np.abs(x - self.lo[node]), np.abs(x - self.hi[node]))
        return float(np.sqrt((d * d).sum()))

    # -- BBD interface --------------------------------------------------------

    def canonical_nodes(self, x: np.ndarray, r: float, eps: float) -> list[int]:
        """Disjoint canonical nodes for the fuzzy ball query T(x, r).

        Guarantees: every point within ``r`` of ``x`` lies in exactly one
        reported node's subtree, and no reported subtree contains a point
        farther than ``(1+eps) r``.
        """
        x = np.asarray(x, dtype=np.float64)
        out: list[int] = []
        fuzzy = (1.0 + eps) * r
        stack = [0]
        while stack:
            u = stack.pop()
            if self._box_min_dist(u, x) > r:
                continue
            if self._box_max_dist(u, x) <= fuzzy:
                out.append(u)
                continue
            if self.leaf_point[u] >= 0:
                # Straddling leaf: include iff its point is truly within r.
                p = self.X[self.leaf_point[u]]
                if float(np.sqrt(((p - x) ** 2).sum())) <= r:
                    out.append(u)
                continue
            stack.append(self.left[u])
            stack.append(self.right[u])
        return out

    def canonical_nodes_rect(self, lo: np.ndarray, hi: np.ndarray) -> list[int]:
        """Disjoint canonical nodes exactly covering P within the closed
        axis-aligned rectangle [lo, hi] (used by the QFairDiv index)."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        out: list[int] = []
        stack = [0]
        while stack:
            u = stack.pop()
            if np.any(self.hi[u] < lo) or np.any(self.lo[u] > hi):
                continue
            if np.all(self.lo[u] >= lo) and np.all(self.hi[u] <= hi):
                out.append(u)
                continue
            if self.leaf_point[u] >= 0:
                p = self.X[self.leaf_point[u]]
                if np.all(p >= lo) and np.all(p <= hi):
                    out.append(u)
                continue
            stack.append(self.left[u])
            stack.append(self.right[u])
        return out

    def points_under(self, node: int) -> np.ndarray:
        """Indices of all points in the subtree of ``node``."""
        out: list[int] = []
        stack = [node]
        while stack:
            u = stack.pop()
            if self.leaf_point[u] >= 0:
                out.append(int(self.leaf_point[u]))
            else:
                stack.append(self.left[u])
                stack.append(self.right[u])
        return np.array(out, dtype=np.int64)

    def fuzzy_ball_members(self, x: np.ndarray, r: float, eps: float) -> np.ndarray:
        """Point indices of S^eps_x = union of canonical subtrees of T(x, r)."""
        nodes = self.canonical_nodes(x, r, eps)
        if not nodes:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self.points_under(u) for u in nodes])

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
