"""FairFlow baseline (Moumoulidou, McGregor, Meliou — ICDT 2021 [41]).

Reimplemented from the paper's description: per-color Gonzalez
candidates, a greedy net (:func:`repro.core.geometry.greedy_net`) over
the candidate union, and a max-flow assignment of colors to net clusters
(:func:`flow_over_net`). The original artifact's flows are networkx's;
ours are :class:`repro.flow.dinic.Dinic`'s, which is faster here and fixes
which max flow is found (see :mod:`repro.flow.dinic`). Guarantee shape
1/(3m-1): in the paper's experiments this is the *fastest* algorithm but
returns sets with much lower diversity than MFD — exactly the trade our
implementation preserves.
"""
from __future__ import annotations

import numpy as np

from ..core.geometry import dists_to_point, greedy_net, pairwise_distances
from ..core.gonzalez import coreset_numpy
from ..core.mfd import FairDivResult, check_instance, gamma_upper_bound
from ..flow.dinic import Dinic


def flow_over_net(
    U: np.ndarray, u_colors: np.ndarray, quotas: np.ndarray, sep: float
) -> tuple[np.ndarray, int]:
    """The step FairFlow and FairGreedyFlow share: the greedy net of the rows
    of ``U`` at least ``sep`` apart, each row clustered to its nearest center,
    and a max flow source -> color (cap k_j) -> cluster (cap 1 per pair) ->
    sink (cap 1). Returns the selected rows of ``U`` and the cluster count."""
    centers = greedy_net(U, np.nextafter(sep, -np.inf))
    clusters = np.argmin(pairwise_distances(U, U[centers]), axis=1)
    m = len(quotas)
    ncl = len(centers)
    s, t = m + ncl, m + ncl + 1
    g = Dinic(m + ncl + 2)
    for j in range(m):
        g.add_edge(s, j, int(quotas[j]))
    for l in range(ncl):
        g.add_edge(m + l, t, 1)
    pair_edges: dict[tuple[int, int], int] = {}
    for j in range(m):
        for l in np.unique(clusters[u_colors == j]):
            pair_edges[(j, int(l))] = g.add_edge(j, m + int(l), 1)
    g.max_flow(s, t)
    sel: list[int] = []
    for (j, l), eid in pair_edges.items():
        if g.edge_flow(eid) == 1:
            # Prefer the cluster center itself when colors match; else the
            # member of color j nearest to the center.
            members = np.where((clusters == l) & (u_colors == j))[0]
            if centers[l] in members:
                sel.append(int(centers[l]))
            else:
                d = dists_to_point(U[members], U[centers[l]])
                sel.append(int(members[np.argmin(d)]))
    return np.array(sel, dtype=np.int64), ncl


def fairflow(X: np.ndarray, colors: np.ndarray, quotas: np.ndarray) -> FairDivResult:
    """Run FairFlow on (X, colors) with per-color quotas."""
    X, colors, quotas = check_instance(X, colors, quotas)
    m = len(quotas)
    k = int(quotas.sum())
    # Per-color Gonzalez candidates, k per color (the O(nk) stage).
    cand_idx, _ = coreset_numpy(X, colors, k)
    U = X[cand_idx]
    # Unfair-diversity estimate: the union's color-blind Gonzalez diversity.
    delta = gamma_upper_bound(U, k) / 2
    if not np.isfinite(delta):
        delta = 1.0
    sep = delta / (3 * m - 1)
    sel, n_clusters = flow_over_net(U, colors[cand_idx], quotas, sep)
    return FairDivResult.of(X, colors, quotas, cand_idx[sel], sep=sep, n_clusters=n_clusters)
