"""High-probability fairness variant (paper Section 3.2).

Transforms the MWU fractional solution x_hat into y_hat whose same-color
positive entries are pairwise >= gamma / (3 (1+eps)^2) apart (so the
rounding indicators become independent-enough for a Chernoff bound),
then rounds with rejection radius gamma / (6 (1+eps)^3) and repeats up
to ceil(log2(1/delta)) times until every color reaches
(1 - eps) k_j / (1 + eps) points.

The paper implements the transform with one BBD tree per color and
active/inactive node bookkeeping; at coreset scale we use the dense
equivalent (greedy absorption of same-color weight within the
separation radius), which computes exactly the same y_hat semantics:
per-color weight totals are preserved and positive entries are
separated. Approximation drops to gamma*/(6(1+eps)) as in Theorem 3.3.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mwu
from .geometry import color_counts, diversity, missed_per_color, pairwise_distances
from .mfd import MFDResult, gamma_upper_bound


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
        idx = np.where((colors == j) & (xhat > 0))[0]
        if len(idx) == 0:
            continue
        # Process in decreasing weight so heavy points become reps.
        order = idx[np.argsort(-xhat[idx])]
        alive = {int(i): True for i in order}
        D = pairwise_distances(X[order])
        pos = {int(i): t for t, i in enumerate(order)}
        for i in order:
            i = int(i)
            if not alive[i]:
                continue
            near = [int(l) for l in order if alive[int(l)] and D[pos[i], pos[int(l)]] <= r_sep]
            yhat[i] = xhat[near].sum()
            for l in near:
                alive[l] = False
    return yhat


def _round_separated(
    X: np.ndarray, yhat: np.ndarray, r_reject: float, rng: np.random.Generator
) -> np.ndarray:
    """Gumbel-order sampling over positive y_hat, rejecting within r_reject."""
    pos = np.where(yhat > 0)[0]
    if len(pos) == 0:
        return np.empty(0, dtype=np.int64)
    order = pos[np.argsort(-(np.log(yhat[pos]) + rng.gumbel(size=len(pos))))]
    S: list[int] = []
    for i in order:
        if not S:
            S.append(int(i))
            continue
        d = np.sqrt(((X[S] - X[i]) ** 2).sum(axis=1))
        if d.min() > r_reject:
            S.append(int(i))
    return np.array(S, dtype=np.int64)


@dataclass
class HPConfig:
    eps: float = 1.0
    g: float = 0.3
    decay: float = 0.15
    delta: float = 0.1  # failure probability target
    max_rounds: int = 200


def mfd_hp(
    X: np.ndarray,
    colors: np.ndarray,
    quotas: np.ndarray,
    *,
    cfg: HPConfig | None = None,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> MFDResult:
    """Theorem 3.3: constant approximation with fairness holding w.p. >= 1-delta
    (given large-enough k_j; for small k_j the repeats still help)."""
    cfg = cfg or HPConfig()
    X = np.asarray(X, dtype=np.float64)
    colors = np.asarray(colors, dtype=np.int64)
    quotas = np.asarray(quotas, dtype=np.int64)
    rng = rng if rng is not None else np.random.default_rng(seed)
    m = len(quotas)
    k = int(quotas.sum())
    counts = color_counts(colors, m)
    if np.any(counts < quotas):
        raise ValueError("infeasible quotas")

    gamma = gamma_upper_bound(X, k)
    if not np.isfinite(gamma):
        gamma = 1.0
    rounds = 0
    feasible = None
    while rounds < cfg.max_rounds:
        rounds += 1
        prob = mwu.MWUProblem(X, colors, quotas, gamma, cfg.eps)
        xhat = mwu.solve(prob, g=cfg.g)
        if xhat is not None:
            feasible = (prob, xhat)
            break
        gamma *= 1.0 - cfg.decay
    assert feasible is not None, "geometric decay must reach a feasible gamma"
    prob, xhat = feasible

    yhat = transform_to_separated(X, colors, xhat, gamma, cfg.eps)
    r_reject = gamma / (6.0 * (1.0 + cfg.eps) ** 3)
    target = np.ceil((1.0 - cfg.eps / (1 + cfg.eps)) * quotas / (1.0 + cfg.eps)).astype(int)
    repeats = max(1, int(np.ceil(np.log2(1.0 / cfg.delta))))
    best_sel, best_cover = np.empty(0, dtype=np.int64), -1
    for _ in range(repeats):
        sel = _round_separated(X, yhat, r_reject, rng)
        got = color_counts(colors[sel], m)
        cover = int(np.minimum(got, quotas).sum())
        if cover > best_cover:
            best_sel, best_cover = sel, cover
        if np.all(got >= target):
            break
    sel_colors = colors[best_sel]
    return MFDResult(
        indices=best_sel,
        gamma=gamma,
        diversity=diversity(X[best_sel]),
        colors=sel_colors,
        missed=missed_per_color(sel_colors, quotas),
        n_mwu_rounds=rounds,
        extras={"r_reject": r_reject},
    )
