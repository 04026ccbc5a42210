"""MFD — Multiplicative-weight-update method for Fair Diversification.

Top-level driver (the paper's Algorithm 1 plus the Section-6 engineering
choices the authors made in their own artifact):

- candidate gamma schedule: either the theory-faithful WSPD binary
  search (``gamma_schedule="wspd"``) or the practical geometric decay
  the authors shipped (start from the global-Gonzalez upper bound, and
  on infeasibility set gamma <- (1 - 0.15) gamma; ``"geometric"``,
  default);
- early stopping parameter ``g`` (fraction of the theoretical MWU
  iteration count, default 0.3 per their micro-benchmark);
- randomized rounding, 5-run averaging left to the experiment harness.

Run directly on a point set this is Theorem 3.2; run on the Section 4
coreset (see :mod:`repro.core.coreset`) it is Corollary 4.3 — the
configuration evaluated in the paper's experiments.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import mwu
from .geometry import color_counts, diversity, missed_per_color
from .gonzalez import gonzalez
from .kdtree import KDTree
from .wspd import candidate_distances


@dataclass
class MFDResult:
    """Outcome of one MFD run."""

    indices: np.ndarray  # selected row indices into the input X
    gamma: float  # the feasible candidate diversity certified by MWU
    diversity: float  # realized div(S)
    colors: np.ndarray  # colors of the selected points
    missed: np.ndarray  # per-color shortfall vs quotas (Table 4 metric)
    n_mwu_rounds: int  # number of gamma values tried
    extras: dict = field(default_factory=dict)


def gamma_upper_bound(X: np.ndarray, k: int) -> float:
    """Upper bound on the optimal FairDiv diversity: min pairwise distance
    of k color-blind Gonzalez centers (paper Section 6). Any k-subset has
    diversity at most twice the unfair optimum, which the Gonzalez set
    1/2-approximates, so this value upper-bounds gamma*."""
    k = min(int(k), len(X))
    if k < 2:
        return float("inf")
    idx = gonzalez(X, k)
    # The Gonzalez set's diversity is within [opt/2, opt]; doubling makes
    # it a true upper bound on any k-subset's diversity.
    return 2.0 * diversity(X[idx])


def mfd(
    X: np.ndarray,
    colors: np.ndarray,
    quotas: np.ndarray,
    *,
    eps: float = 1.0,
    g: float = 0.3,
    decay: float = 0.15,
    gamma_schedule: str = "geometric",
    backend: str = "dense",
    trim: bool = False,
    max_rounds: int = 200,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> MFDResult:
    """Solve FairDiv on ``(X, colors)`` with per-color quotas.

    ``backend`` picks the LP2 neighborhoods S^eps_p, the only thing it
    changes (see :mod:`repro.core.mwu`): ``'dense'`` uses exact balls
    (right choice at coreset scale); ``'tree'`` uses a BBD-style KD-tree's
    canonical-node covers, the paper's Algorithms 2–4.
    ``extras['lp2_violation']`` is the additive error of Constraints (11)
    over those neighborhoods at the certified gamma. ``trim`` optionally
    drops surplus points of over-quota colors (in reverse sampling order)
    — diversity can only increase; the default False matches the paper's
    rounding output.
    """
    X = np.asarray(X, dtype=np.float64)
    colors = np.asarray(colors, dtype=np.int64)
    quotas = np.asarray(quotas, dtype=np.int64)
    rng = rng if rng is not None else np.random.default_rng(seed)
    n, m = len(X), len(quotas)
    k = int(quotas.sum())
    counts = color_counts(colors, m)
    if np.any(counts < quotas):
        raise ValueError(f"infeasible quotas: need {quotas.tolist()}, have {counts.tolist()}")

    tree = KDTree(X) if backend == "tree" else None

    def attempt(gamma: float):
        prob = mwu.MWUProblem(X, colors, quotas, gamma, eps, tree)
        xhat = mwu.solve(prob, g=g)
        return None if xhat is None else (prob, xhat)

    rounds = 0
    feasible: tuple | None = None
    gamma_feas = 0.0
    if gamma_schedule == "wspd":
        Gamma = candidate_distances(X, eps)
        lo_i, hi_i = 0, len(Gamma) - 1
        while lo_i <= hi_i and rounds < max_rounds:
            mid = (lo_i + hi_i + 1) // 2 if lo_i != hi_i else lo_i
            rounds += 1
            got = attempt(float(Gamma[mid]))
            if got is not None:
                feasible, gamma_feas = got, float(Gamma[mid])
                lo_i = mid + 1
            else:
                hi_i = mid - 1
    else:
        gamma = gamma_upper_bound(X, k)
        if not np.isfinite(gamma):
            gamma = 1.0
        floor = 1e-12 * max(gamma, 1.0)
        while rounds < max_rounds:
            rounds += 1
            got = attempt(gamma)
            if got is not None:
                feasible, gamma_feas = got, gamma
                break
            gamma *= 1.0 - decay
            if gamma < floor:
                break

    if feasible is None:
        # gamma below the min pairwise distance always admits a solution;
        # reaching this means quotas were degenerate (k == 0).
        sel = np.empty(0, dtype=np.int64)
        return MFDResult(sel, 0.0, float("inf"), colors[sel], missed_per_color(colors[sel], quotas), rounds)

    prob, xhat = feasible
    sel = mwu.round_solution(prob, xhat, rng)
    if trim:
        sel = _trim_to_quotas(sel, colors, quotas)
    sel_colors = colors[sel]
    return MFDResult(
        indices=sel,
        gamma=gamma_feas,
        diversity=diversity(X[sel]),
        colors=sel_colors,
        missed=missed_per_color(sel_colors, quotas),
        n_mwu_rounds=rounds,
        extras={"lp2_violation": mwu.lp2_violation(prob, xhat)},
    )


def mfd_spark(
    df,
    quotas: np.ndarray,
    *,
    color_col: str = "color",
    per_color_k: int | None = None,
    **mfd_kwargs,
) -> MFDResult:
    """Corollary 4.3 as one call: distributed per-color coreset over the
    Spark DataFrame (the only O(n) stage), then MFD on the O(mk) coreset
    on the driver. The result's ``extras['coreset_size']`` records the
    coreset cardinality and ``extras['timings']`` the wall seconds of the
    two stages (``coreset_s``, ``solve_s``); indices refer to coreset rows,
    with the selected coordinates in ``extras['points']``."""
    from .coreset import coreset_arrays

    quotas = np.asarray(quotas, dtype=np.int64)
    k = int(quotas.sum())
    t0 = time.perf_counter()
    Xc, cc = coreset_arrays(df, per_color_k or k, color_col=color_col)
    t1 = time.perf_counter()
    eff = np.minimum(quotas, np.bincount(cc, minlength=len(quotas)))
    res = mfd(Xc, cc, eff, **mfd_kwargs)
    res.extras["timings"] = {"coreset_s": t1 - t0, "solve_s": time.perf_counter() - t1}
    res.extras["coreset_size"] = len(Xc)
    res.extras["points"] = Xc[res.indices]
    return res


def _trim_to_quotas(sel: np.ndarray, colors: np.ndarray, quotas: np.ndarray) -> np.ndarray:
    """Drop surplus points of over-quota colors, latest-sampled first."""
    keep = []
    used = np.zeros(len(quotas), dtype=np.int64)
    for i in sel:  # sel is in sampling order: earlier samples are "safer"
        c = colors[i]
        if used[c] < quotas[c]:
            keep.append(int(i))
            used[c] += 1
    return np.array(keep, dtype=np.int64)
