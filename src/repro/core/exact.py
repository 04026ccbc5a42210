"""Exact and brute-force solvers.

:func:`fairdiv_optimum` is the one exact FairDiv search: FMMD-S runs it on
its candidate set, and the tests run it on whole instances as ground truth.
The rest are reference oracles for tests on small instances: exact
neighborhood matrices, the k-center objective of a given center set, and
the point set of a KD-tree fuzzy ball.
"""
from __future__ import annotations

import numpy as np

from .geometry import color_counts, pairwise_distances
from .mfd import binary_search, fallback_selection


class NodeBudgetExceeded(RuntimeError):
    """Raised when the exact search exceeds its node budget (DNF)."""


def _exact_quota_independent_set(
    adj: list[int],
    colors: np.ndarray,
    quotas: np.ndarray,
    budget: list[float],
) -> list[int] | None:
    """Exact search: choose >= k_j mutually non-adjacent vertices per color.

    ``adj[i]`` is a conflict bitmask. Colors are processed in scarcity
    order; within a color, candidates are chosen by depth-first search
    with pruning on remaining-supply counts. ``budget`` is a single-cell
    mutable countdown shared across the recursion.
    """
    m = len(quotas)
    order = sorted(
        range(m), key=lambda j: (int((colors == j).sum()) - int(quotas[j]))
    )
    full_mask = (1 << len(adj)) - 1
    by_color = [np.where(colors == j)[0].tolist() for j in range(m)]

    def rec(ci: int, allowed: int, chosen: list[int]) -> list[int] | None:
        budget[0] -= 1
        if budget[0] <= 0:
            raise NodeBudgetExceeded
        if ci == m:
            return chosen
        j = order[ci]
        need = int(quotas[j])
        cands = [v for v in by_color[j] if (allowed >> v) & 1]
        if len(cands) < need:
            return None

        def pick(start: int, left: int, cur_allowed: int, cur: list[int]):
            budget[0] -= 1
            if budget[0] <= 0:
                raise NodeBudgetExceeded
            if left == 0:
                return rec(ci + 1, cur_allowed, cur)
            avail = [p for p in range(start, len(cands)) if (cur_allowed >> cands[p]) & 1]
            if len(avail) < left:
                return None
            for pos in avail:
                v = cands[pos]
                res = pick(
                    pos + 1,
                    left - 1,
                    cur_allowed & ~adj[v] & ~(1 << v),
                    cur + [v],
                )
                if res is not None:
                    return res
            return None

        return pick(0, need, allowed, chosen)

    return rec(0, full_mask, [])


def fairdiv_optimum(
    X: np.ndarray, colors: np.ndarray, quotas: np.ndarray, *, node_budget: int | None = None
) -> tuple[float, np.ndarray] | None:
    """Exact FairDiv optimum of (X, colors): ``(gamma_star, indices)``, or
    None when no set meets the quotas.

    The optimum is one of the pairwise distances, and a larger threshold
    only adds conflicts, so the feasible thresholds are a prefix of the
    ascending distances: :func:`repro.core.mfd.binary_search` finds its last
    one, each probe an exact search for k_j pairwise non-conflicting rows
    per color. With k < 2 there is no pair to keep apart: gamma_star is 0
    and the set is :func:`repro.core.mfd.fallback_selection`. Raises
    :class:`NodeBudgetExceeded` once the searches together visit
    ``node_budget`` nodes (None: no limit)."""
    if np.any(color_counts(colors, len(quotas)) < quotas):
        return None
    if int(np.sum(quotas)) < 2:
        return 0.0, fallback_selection(colors, quotas)
    D = pairwise_distances(X)
    np.fill_diagonal(D, np.inf)
    budget = [np.inf if node_budget is None else node_budget]

    def feasible(gamma: float) -> tuple[float, np.ndarray] | None:
        adj = [sum(1 << int(v) for v in np.flatnonzero(row)) for row in D < gamma]
        sol = _exact_quota_independent_set(adj, colors, quotas, budget)
        return None if sol is None else (gamma, np.array(sol, dtype=np.int64))

    return binary_search(feasible, np.unique(D[np.isfinite(D)]))[0]


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
