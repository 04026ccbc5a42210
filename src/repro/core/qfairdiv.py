"""QFairDiv — range-query fair diversification (Section 5.2, Theorem 5.2).

Index: one KD-tree per color; every tree node stores the Gonzalez
*prefix ordering* of its subtree's points (up to ``k_max``). Because a
Gonzalez prefix is itself a Gonzalez run for every smaller k, a single
stored ordering serves all query budgets.

Query(R, quotas): for each color, decompose R into canonical nodes,
take each node's Gonzalez prefix, and re-run Gonzalez on the union
(``coreset_numpy``, per color) — the composable k-center argument gives
a constant-approximation k-center solution of P(c_j) ∩ R, hence (Theorem
4.2) the union over colors is a (1+eps)-coreset of P ∩ R, on which MFD
runs. Fairness is measured against the requested quotas, so a color that
R lacks counts as missed.

Substitution note (documented in DESIGN.md): the paper cites the
range-clustering structures of [6, 44] with O(log^{d-1} n) canonical
nodes per query; a KD-tree's rectangle decomposition is O(n^{1-1/d})
worst case but near-polylog on real queries. The query pipeline and the
approximation argument are unchanged.
"""
from __future__ import annotations

import numpy as np

from .gonzalez import coreset_numpy, gonzalez
from .kdtree import KDTree
from .mfd import FairDivResult, check_instance, solve_coreset


class QFairDivIndex:
    """Preprocessed structure answering fair-diverse range queries."""

    def __init__(self, X: np.ndarray, colors: np.ndarray, *, k_max: int = 64):
        """Index the rows of ``X`` by color; there are m = max(colors) + 1
        colors. An empty X, and what :func:`repro.core.mfd.check_instance`
        rejects (shapes other than (n, d) and (n,), a NaN or inf coordinate,
        a negative color id), raise ``ValueError``."""
        X, colors = np.asarray(X, dtype=np.float64), np.asarray(colors, dtype=np.int64)
        if X.size == 0 or colors.size == 0:
            raise ValueError(f"cannot index an empty point set; got shapes {X.shape} and {colors.shape}")
        self.m = int(colors.max()) + 1
        self.X, self.colors, _ = check_instance(X, colors, np.zeros(self.m, dtype=np.int64))
        self.k_max = int(k_max)
        self.trees: list[KDTree | None] = []
        self.node_orders: list[list[np.ndarray]] = []
        self.color_rows: list[np.ndarray] = []
        for j in range(self.m):
            rows = np.where(self.colors == j)[0]
            self.color_rows.append(rows)
            if len(rows) == 0:
                self.trees.append(None)
                self.node_orders.append([])
                continue
            t = KDTree(self.X[rows])
            self.trees.append(t)
            orders = [t.points_under(u) for u in range(t.n_nodes)]
            self.node_orders.append([pts[gonzalez(t.X[pts], self.k_max)] for pts in orders])

    def query(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        quotas: np.ndarray,
        *,
        eps: float = 1.0,
        g: float = 0.3,
        seed: int | None = None,
    ) -> FairDivResult:
        """FairDiv on P ∩ [lo, hi]. MFD runs on the range's coreset through
        :func:`repro.core.mfd.solve_coreset`: it is asked for what the
        coreset holds of each color, and ``missed`` counts the requested
        quotas the range cannot meet (a color absent from R misses its
        whole quota). Indices refer to rows of the indexed point set.
        Every node stores only its first ``k_max`` Gonzalez rows, so a query
        with sum(quotas) > ``k_max`` raises ``ValueError``."""
        k = int(np.sum(quotas))
        if k > self.k_max:
            raise ValueError(f"sum(quotas) = {k} exceeds the index's k_max = {self.k_max}")
        cand = [np.empty(0, dtype=np.int64)]  # an empty range: an empty coreset
        for j, t in enumerate(self.trees):
            for u in [] if t is None else t.canonical_nodes_rect(lo, hi):
                cand.append(self.color_rows[j][self.node_orders[j][u][:k]])
        cand = np.concatenate(cand)
        rows = cand[coreset_numpy(self.X[cand], self.colors[cand], k)[0]]
        res = solve_coreset(self.X[rows], self.colors[rows], quotas, eps=eps, g=g, seed=seed)
        res.indices = rows[res.indices]
        return res
