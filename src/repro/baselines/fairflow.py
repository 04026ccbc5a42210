"""FairFlow baseline (Moumoulidou, McGregor, Meliou — ICDT 2021 [41]).

Reimplemented from the paper's description: per-color Gonzalez
candidates, a greedy net over the candidate union, and a max-flow
assignment of colors to net clusters. The original artifact's flows are
networkx's; ours are :class:`repro.flow.dinic.Dinic`'s, which is faster
here and fixes which max flow is found (see :mod:`repro.flow.dinic`).
Guarantee shape 1/(3m-1): in the paper's experiments this is the
*fastest* algorithm but returns sets with much lower diversity than MFD
— exactly the trade our implementation preserves.
"""
from __future__ import annotations

import numpy as np

from ..core.geometry import diversity, dists_to_point, pairwise_distances
from ..core.gonzalez import gonzalez
from ..core.mfd import FairDivResult, check_instance
from ..flow.dinic import Dinic


def _greedy_net(X: np.ndarray, sep: float) -> np.ndarray:
    """Greedy net: scan points; keep those >= sep from all kept. Every
    point ends within sep of some kept center (standard net property)."""
    centers: list[int] = []
    C = np.empty((0, X.shape[1]))
    for i in range(len(X)):
        if len(centers) == 0 or dists_to_point(C, X[i]).min() >= sep:
            centers.append(i)
            C = np.vstack([C, X[i]])
    return np.array(centers, dtype=np.int64)


def _flow_select(
    U: np.ndarray,
    u_colors: np.ndarray,
    clusters: np.ndarray,
    centers: np.ndarray,
    quotas: np.ndarray,
) -> list[int]:
    """Max-flow: source -> color (cap k_j) -> cluster (cap 1 per pair)
    -> sink (cap 1). Returns selected candidate indices (into U rows)."""
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
    return sel


def fairflow(X: np.ndarray, colors: np.ndarray, quotas: np.ndarray) -> FairDivResult:
    """Run FairFlow on (X, colors) with per-color quotas."""
    from ..core.coreset import coreset_numpy

    X, colors, quotas = check_instance(X, colors, quotas)
    m = len(quotas)
    k = int(quotas.sum())
    # Per-color Gonzalez candidates, k per color (the O(nk) stage).
    cand_idx, _ = coreset_numpy(X, colors, k)
    U, u_colors = X[cand_idx], colors[cand_idx]
    # Unfair-diversity estimate from color-blind Gonzalez on the union.
    delta = diversity(U[gonzalez(U, min(k, len(U)))])
    if not np.isfinite(delta):
        delta = 1.0
    sep = delta / (3 * m - 1)
    centers = _greedy_net(U, sep)
    D = pairwise_distances(U, U[centers])
    clusters = np.argmin(D, axis=1)
    sel = cand_idx[_flow_select(U, u_colors, clusters, centers, quotas)]
    return FairDivResult.of(X, colors, quotas, sel, sep=sep, n_clusters=len(centers))
