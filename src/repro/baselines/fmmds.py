"""FMMD-S baseline (Wang, Mathioudakis, Li, Fabbri — SDM 2023 [52]).

Shape of the original: build a small candidate set (coreset), then for
diversity thresholds (the candidates' pairwise distances) solve an
*exact* integer program — "pick an independent set of the threshold
conflict graph with >= k_j candidates per color" — and return the
solution at the largest feasible threshold. The original solves the IP
with Gurobi; offline the candidate set goes to the one exact FairDiv
search, :func:`repro.core.exact.fairdiv_optimum`, with a node budget.
Budget exhaustion raises :class:`repro.core.exact.NodeBudgetExceeded`,
which the experiment harness records as DNF — reproducing the paper's
observation that FMMD-S attains the best diversity on small instances but
fails to finish (30-min timeout) on the large ones.
"""
from __future__ import annotations

import numpy as np

from ..core.exact import fairdiv_optimum
from ..core.gonzalez import gonzalez
from ..core.mfd import FairDivResult, check_instance, fallback_selection


def fmmds(
    X: np.ndarray,
    colors: np.ndarray,
    quotas: np.ndarray,
    *,
    node_budget: int = 300_000,
) -> FairDivResult:
    """Run FMMD-S on (X, colors): exact threshold search over a candidate set.
    Quotas that no set meets give :func:`repro.core.mfd.fallback_selection`
    with gamma 0, as in FairGreedyFlow; k < 2 gives gamma 0, as in MFD.

    Raises :class:`repro.core.exact.NodeBudgetExceeded` when the exact search
    blows the node budget (recorded as DNF by the harness).
    """
    X, colors, quotas = check_instance(X, colors, quotas)
    m = len(quotas)
    k = int(quotas.sum())
    # Candidate set: color-blind Gonzalez k plus per-color Gonzalez 2 k_j
    # (guarantees every color has enough candidates).
    cand = [gonzalez(X, min(k, len(X)))]
    for j in range(m):
        idx = np.where(colors == j)[0]
        cand.append(idx[gonzalez(X[idx], int(quotas[j]) * 2)])
    cand_idx = np.unique(np.concatenate(cand))
    found = fairdiv_optimum(X[cand_idx], colors[cand_idx], quotas, node_budget=node_budget)
    gamma, sel = (found[0], cand_idx[found[1]]) if found is not None else (0.0, fallback_selection(colors, quotas))
    return FairDivResult.of(X, colors, quotas, sel, gamma=gamma, n_candidates=len(cand_idx))
