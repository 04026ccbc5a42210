"""High-probability fairness variant (paper Section 3.2).

The gamma search and MWU solve are MFD's own
(:func:`repro.core.mfd.certify_and_round`). The MWU fractional solution
x_hat is then transformed into y_hat whose same-color positive entries
are pairwise > gamma / (3 (1+eps)^2) apart (so the rounding indicators
become independent-enough for a Chernoff bound), and y_hat is rounded
with Algorithm 4 (:func:`repro.core.mwu.round_solution`) at rejection
radius r_reject = gamma / (6 (1+eps)^3), repeated up to
ceil(log2(1/delta)) times until every color reaches
(1 - eps) k_j / (1 + eps) points.

r_reject is the LP2 radius gamma' / (2 (1+eps)) of the problem at
gamma' = gamma / (3 (1+eps)^2), so rounding that problem rejects exactly
the points within r_reject of an earlier pick, through its cached ball
incidence.

The paper implements the transform with one BBD tree per color and
active/inactive node bookkeeping; at coreset scale we use the exact-ball
equivalent (greedy absorption of same-color weight within the
separation radius, each point's neighbors read from
:func:`repro.core.geometry.pairs_within`), which computes exactly the
same y_hat semantics:
per-color weight totals are preserved and positive entries are
separated. Approximation drops to gamma*/(6(1+eps)) as in Theorem 3.3.
"""
from __future__ import annotations

import numpy as np

from . import mwu
from .geometry import color_counts, pairs_within
from .mfd import FairDivResult, certify_and_round


def transform_to_separated(
    X: np.ndarray,
    colors: np.ndarray,
    xhat: np.ndarray,
    gamma: float,
    eps: float,
) -> np.ndarray:
    """x_hat -> y_hat: absorb same-color weight within r_sep into one
    representative per cluster (FP1-style Constraints (14)–(17))."""
    r_sep = gamma / (3.0 * (1.0 + eps) ** 2)
    yhat = np.zeros_like(xhat)
    for j in np.unique(colors):
        idx = np.flatnonzero((colors == j) & (xhat > 0))
        # Process in decreasing weight so heavy points become reps.
        order = idx[np.argsort(-xhat[idx])]
        # near[ptr[t]:ptr[t+1]] lists, ascending, the points within r_sep of t.
        src, near = pairs_within(X[order], r_sep)
        ptr = np.searchsorted(src, np.arange(len(order) + 1))
        alive = np.ones(len(order), dtype=bool)
        for t in range(len(order)):
            if alive[t]:
                nb = near[ptr[t] : ptr[t + 1]]
                absorbed = nb[alive[nb]]
                yhat[order[t]] = xhat[order[absorbed]].sum()
                alive[absorbed] = False
    return yhat


def mfd_hp(
    X: np.ndarray,
    colors: np.ndarray,
    quotas: np.ndarray,
    *,
    eps: float = 1.0,
    g: float = 0.3,
    delta: float = 0.1,
    seed: int | None = None,
) -> FairDivResult:
    """Theorem 3.3: constant approximation with fairness holding w.p. >= 1-delta
    (given large-enough k_j; for small k_j the repeats still help).
    ``extras['r_reject']`` is the rejection radius at the result's gamma, a
    lower bound on div(S)."""
    rng = np.random.default_rng(seed)

    def rounding(prob: mwu.MWUProblem, xhat: np.ndarray):
        yhat = transform_to_separated(prob.X, prob.colors, xhat, prob.gamma, eps)
        reject = mwu.MWUProblem(prob.X, prob.colors, prob.quotas, prob.gamma / (3.0 * (1.0 + eps) ** 2), eps)
        quotas = prob.quotas
        target = np.ceil((1.0 - eps / (1 + eps)) * quotas / (1.0 + eps)).astype(int)
        repeats = max(1, int(np.ceil(np.log2(1.0 / delta))))
        best_sel, best_cover = np.empty(0, dtype=np.int64), -1
        for _ in range(repeats):
            sel = mwu.round_solution(reject, yhat, rng)
            got = color_counts(prob.colors[sel], len(quotas))
            cover = int(np.minimum(got, quotas).sum())
            if cover > best_cover:
                best_sel, best_cover = sel, cover
            if np.all(got >= target):
                break
        return best_sel

    res = certify_and_round(X, colors, quotas, rounding, eps=eps, g=g)
    res.extras["r_reject"] = res.gamma / (3.0 * (1.0 + eps) ** 2) / (2.0 * (1.0 + eps))  # reject.radius
    return res
