"""FairGreedyFlow baseline (Addanki, McGregor, Meliou, Moumoulidou [7]).

For a guessed diversity gamma, FairFlow's step
(:func:`repro.baselines.fairflow.flow_over_net`) builds a greedy net over
the points with separation gamma/(m+1), assigns every point to its nearest
net center, and tests via max-flow whether one point per cluster can
satisfy all color quotas. Any optimal solution with div >= gamma places its k points in k *distinct*
clusters (two points >= gamma apart cannot share a center within
gamma/(m+1) when gamma > 2 gamma/(m+1), i.e. m >= 2), so feasibility is
never spuriously rejected; the returned diversity decays by the
1/((m+1)(1+eps)) chaining factor — the paper's guarantee shape.

The guesses are MFD's own geometric schedule
(:func:`repro.core.mfd.geometric_descent` from the global-Gonzalez upper
bound, gamma <- (1 - ``mfd.DECAY``) gamma), stopping at the first
feasible guess. As in MFD, k < 2 makes no guess, and when no guess is
feasible the answer is :func:`repro.core.mfd.fallback_selection` with
gamma 0.
"""
from __future__ import annotations

import numpy as np

from ..core import mfd
from ..core.geometry import satisfies_quotas
from .fairflow import flow_over_net


def fairgreedyflow(X: np.ndarray, colors: np.ndarray, quotas: np.ndarray) -> mfd.FairDivResult:
    X, colors, quotas = mfd.check_instance(X, colors, quotas)
    m = len(quotas)
    k = int(quotas.sum())

    def attempt(gamma: float):
        sel = flow_over_net(X, colors, quotas, gamma / (m + 1))[0]
        return (sel, gamma) if satisfies_quotas(colors[sel], quotas) else None

    found = mfd.geometric_descent(attempt, mfd.gamma_upper_bound(X, k))[0] if k >= 2 else None
    sel, gamma = found if found is not None else (mfd.fallback_selection(colors, quotas), 0.0)
    return mfd.FairDivResult.of(X, colors, quotas, sel, gamma=gamma)
