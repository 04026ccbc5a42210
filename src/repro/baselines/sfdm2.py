"""SFDM-2 baseline (Wang, Fabbri, Mathioudakis — ICDE 2022 [50]).

Streaming fair diversity maximization. Maintains, for every threshold mu
in a (1+eps)-geometric grid over [d_min, d_max] (the spread; assumed
known a priori, as in the original), a color-blind GMM instance S^mu
(capacity k) and per-color GMM instances S_j^mu (capacity k_j).
Post-processing scans mu descending and, at separation mu/3, balances
colors by augmenting deficient colors from their per-color instances
(the selection's greedy net, :func:`repro.core.geometry.greedy_net`,
extended over the color's buffer) — the (1-eps)/(3m+2) guarantee shape.

The grid density |M| = log_{1+eps}(d_max/d_min) is what drives cost:
eps=0.15 gives a dense grid (slow updates, good diversity), eps=0.75 a
sparse one (faster, poor diversity) — the paper's two operating points,
including the log(Delta) dependence MFD's StreamMFD removes.
"""
from __future__ import annotations

import numpy as np

from ..core.geometry import dists_to_point, greedy_net, pairwise_distances
from ..core.gonzalez import coreset_numpy
from ..core.mfd import FairDivResult, check_instance, check_quotas, fallback_selection, gamma_upper_bound
from ..core.streaming import check_arrival, feed


class SFDM2:
    """Streaming state for SFDM-2. Feed points via :meth:`insert`.

    Raises ``ValueError`` for an ``eps`` that is not finite and > 0 and for
    a non-finite ``d_min`` or ``d_max * (1 + eps)``; with eps <= 0 or an
    infinite upper end the threshold-grid loop would never end. Quotas go
    through :func:`repro.core.mfd.check_quotas`."""

    def __init__(
        self,
        d: int,
        quotas: np.ndarray,
        *,
        eps: float,
        d_min: float,
        d_max: float,
    ):
        if not (np.isfinite(eps) and eps > 0):
            raise ValueError(f"eps must be finite and > 0; got {eps}")
        if not (np.isfinite(d_min) and np.isfinite(d_max * (1 + eps))):
            raise ValueError(f"d_min and d_max * (1 + eps) must be finite; got {d_min}, {d_max}")
        self.d = int(d)
        self.quotas = check_quotas(quotas)
        self.m = len(self.quotas)
        self.k = int(self.quotas.sum())
        mus: list[float] = []
        mu = max(d_min, 1e-12)
        while mu <= d_max * (1 + eps):
            mus.append(mu)
            mu *= 1.0 + eps
        self.mus = np.array(mus)
        # Per threshold: global buffer and per-color buffers (numpy stacks).
        self.glob = [np.empty((0, d)) for _ in mus]
        self.glob_colors = [[] for _ in mus]
        self.per_color = [[np.empty((0, d)) for _ in range(self.m)] for _ in mus]
        self.n_seen = 0

    def insert(self, p: np.ndarray, color: int) -> None:
        """One streaming arrival: O(|M| * k) distance work, after
        :func:`repro.core.streaming.check_arrival`."""
        p, color = check_arrival(p, color, self.d, self.m)
        self.n_seen += 1
        for t, mu in enumerate(self.mus):
            G = self.glob[t]
            if len(G) < self.k and (
                len(G) == 0 or dists_to_point(G, p).min() >= mu
            ):
                self.glob[t] = np.vstack([G, p])
                self.glob_colors[t].append(int(color))
            C = self.per_color[t][color]
            if len(C) < self.quotas[color] + self.k and (
                len(C) == 0 or dists_to_point(C, p).min() >= mu
            ):
                self.per_color[t][color] = np.vstack([C, p])

    def stored_items(self) -> int:
        """Synopsis size (paper: O(m k log Delta))."""
        return sum(len(g) for g in self.glob) + sum(
            len(c) for row in self.per_color for c in row
        )

    def solution(self) -> FairDivResult:
        """Post-processing: largest mu whose balanced set meets all quotas.
        Indices number the selected points, which ``extras['points']`` holds
        as a (|S|, d) array (empty when the threshold grid is)."""
        best_cover, best_pts, best_colors = -1, np.empty((0, self.d)), np.empty(0, dtype=np.int64)
        for t in range(len(self.mus) - 1, -1, -1):
            # Seed with the color-blind instance, respecting quotas.
            cols = np.array(self.glob_colors[t], dtype=np.int64)
            seed = np.sort(fallback_selection(cols, self.quotas))
            pts, cols = self.glob[t][seed], cols[seed]
            used = np.bincount(cols, minlength=self.m)
            # Augment deficient colors at separation mu/3: the selection is pairwise
            # >= mu/3 apart, so its net over color j's buffer keeps all of it.
            for j in np.flatnonzero(used < self.quotas):
                buf = self.per_color[t][j]
                net = greedy_net(np.vstack([pts, buf]), np.nextafter(self.mus[t] / 3.0, -np.inf))
                new = net[net >= len(pts)][: self.quotas[j] - used[j]] - len(pts)
                pts = np.vstack([pts, buf[new]])
                cols = np.concatenate([cols, np.full(len(new), j, dtype=np.int64)])
                used[j] += len(new)
            cover = int(np.minimum(used, self.quotas).sum())
            if cover > best_cover:
                best_cover, best_pts, best_colors = cover, pts, cols
            if np.all(used >= self.quotas):
                break
        return FairDivResult.of(best_pts, best_colors, self.quotas, np.arange(len(best_pts)),
                                points=best_pts, n_thresholds=len(self.mus),
                                stored=self.stored_items())


def offline_bounds(Xc: np.ndarray, k: int) -> tuple[float, float]:
    """[d_min, d_max] for SFDM-2 in the offline experiments (the paper's
    footnote 5): the smallest non-zero pairwise distance of the MFD coreset
    ``Xc``, and :func:`repro.core.mfd.gamma_upper_bound` on the coreset,
    raised to at least 2 d_min. Without a non-zero distance, d_min = 1e-6."""
    D = pairwise_distances(Xc)
    pos = D[D > 0]
    d_min = float(pos.min()) if len(pos) else 1e-6
    d_max = float(gamma_upper_bound(Xc, k))
    if not np.isfinite(d_max):
        d_max = float(pos.max()) if len(pos) else 1.0
    return d_min, max(d_max, d_min * 2)


def sfdm2_offline(
    X: np.ndarray,
    colors: np.ndarray,
    quotas: np.ndarray,
    *,
    eps: float,
    d_min: float | None = None,
    d_max: float | None = None,
) -> FairDivResult:
    """Run SFDM-2 as an offline baseline by streaming the rows of X once
    (this is how [50]'s algorithm is compared in the offline experiments).
    A bound left as None comes from :func:`offline_bounds` on the serial
    MFD coreset (k per color)."""
    X, colors, quotas = check_instance(X, colors, quotas)
    if d_min is None or d_max is None:
        k = int(quotas.sum())
        sel, _ = coreset_numpy(X, colors, k)
        lo, hi = offline_bounds(X[sel], k)
        d_min = lo if d_min is None else d_min
        d_max = hi if d_max is None else d_max
    algo = SFDM2(X.shape[1], quotas, eps=eps, d_min=d_min, d_max=d_max)
    feed(algo, X, colors)
    return algo.solution()
