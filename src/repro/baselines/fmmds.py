"""FMMD-S baseline (Wang, Mathioudakis, Li, Fabbri — SDM 2023 [52]).

Shape of the original: build a small candidate set (coreset), then for
diversity thresholds (the candidates' pairwise distances) solve an
*exact* integer program — "pick an independent set of the threshold
conflict graph with >= k_j candidates per color" — and return the
solution at the largest feasible threshold, found by MFD's own binary
search (:func:`repro.core.mfd.binary_search`). The original solves the
IP with Gurobi; offline we implement an exact backtracking search over
conflict bitmasks with a node budget.
Budget exhaustion raises :class:`FMMDSBudgetExceeded`, which the
experiment harness records as DNF — reproducing the paper's observation
that FMMD-S attains the best diversity on small instances but fails to
finish (30-min timeout) on the large ones.
"""
from __future__ import annotations

import numpy as np

from ..core.geometry import pairwise_distances
from ..core.gonzalez import gonzalez
from ..core.mfd import FairDivResult, binary_search, check_instance


class FMMDSBudgetExceeded(RuntimeError):
    """Raised when the exact search exceeds its node budget (DNF)."""


def _exact_quota_independent_set(
    adj: list[int],
    colors: np.ndarray,
    quotas: np.ndarray,
    budget: list[int],
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
            raise FMMDSBudgetExceeded
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
                raise FMMDSBudgetExceeded
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


def fmmds(
    X: np.ndarray,
    colors: np.ndarray,
    quotas: np.ndarray,
    *,
    node_budget: int = 300_000,
) -> FairDivResult:
    """Run FMMD-S on (X, colors): exact threshold search over a candidate set.

    Raises :class:`FMMDSBudgetExceeded` when the exact IP search blows the
    node budget (recorded as DNF by the harness).
    """
    X, colors, quotas = check_instance(X, colors, quotas)
    m = len(quotas)
    k = int(quotas.sum())
    # Candidate set: color-blind Gonzalez k plus per-color Gonzalez k_j
    # (guarantees every color has enough candidates).
    cand = [gonzalez(X, min(k, len(X)))]
    for j in range(m):
        idx = np.where(colors == j)[0]
        cand.append(idx[gonzalez(X[idx], int(quotas[j]) * 2)])
    cand_idx = np.unique(np.concatenate(cand))
    U, u_colors = X[cand_idx], colors[cand_idx]
    D = pairwise_distances(U)
    np.fill_diagonal(D, np.inf)
    budget = [node_budget]

    def feasible(gamma: float) -> tuple[list[int], float] | None:
        adj = [sum(1 << int(v) for v in np.flatnonzero(row)) for row in D < gamma]
        sol = _exact_quota_independent_set(adj, u_colors, quotas, budget)
        return None if sol is None else (sol, gamma)

    # A larger threshold only adds conflicts, so the feasible thresholds are
    # a prefix of the ascending candidates: binary-search its last one.
    best = binary_search(feasible, np.unique(D[np.isfinite(D)]))[0]
    best_sel, best_gamma = best if best is not None else ([], 0.0)
    return FairDivResult.of(X, colors, quotas, cand_idx[best_sel], gamma=best_gamma,
                            n_candidates=len(U), budget_left=budget[0])
