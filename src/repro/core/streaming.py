"""StreamMFD — the paper's streaming algorithm (Section 5.1, Theorem 5.1).

Per color, a doubling-algorithm instance (Charikar et al. [23]) maintains
a constant-approximation k-center synopsis of everything seen so far:
O(k) items stored, O(k) distance work per update (the paper quotes
O(k log k) via a dynamic closest-pair structure; a vectorized linear scan
is faster in practice at these k). By Lemma 4.1/Theorem 4.2 the union of
the per-color synopses is a (1+eps)-coreset of the stream, so
post-processing = MFD on O(mk) points: O(m k^2 log^3 k), independent of
the spread Delta — the paper's headline improvement over SFDM-2 [50].
Post-processing asks MFD for what the synopsis holds and reports misses
against the requested quotas (:func:`repro.core.mfd.solve_coreset`).

:func:`feed` is the one loop that streams the rows of X into a synopsis
(StreamMFD here, SFDM-2 in :mod:`repro.baselines.sfdm2`).
"""
from __future__ import annotations

import time

import numpy as np

from .geometry import dists_to_point, diversity, greedy_net
from .mfd import FairDivResult, solve_coreset


class DoublingKCenter:
    """Incremental k-center with the doubling algorithm.

    Invariant sketch: centers are pairwise > tau and every point seen is
    within c*tau of some center; on overflow tau doubles and the centers
    are pruned to their greedy tau-net
    (:func:`repro.core.geometry.greedy_net`). Constant-factor (8-approx)
    vs the offline optimum.
    """

    def __init__(self, k: int, d: int):
        self.k = int(k)
        self.tau = 0.0
        self.C = np.empty((0, d))

    def insert(self, p: np.ndarray) -> None:
        p = np.asarray(p, dtype=np.float64)
        if len(self.C) < self.k:
            self.C = np.vstack([self.C, p])
            if len(self.C) == self.k and self.k >= 2:
                self.tau = diversity(self.C)
            return
        if dists_to_point(self.C, p).min() > self.tau:
            self.C = np.vstack([self.C, p])
            while len(self.C) > self.k:
                self.tau = max(self.tau * 2.0, 1e-300)
                self.C = self.C[greedy_net(self.C, self.tau)]


class StreamMFD:
    """SFairDiv solver: per-color doubling synopses + MFD post-processing."""

    def __init__(self, d: int, m: int, per_color_k: int):
        self.d, self.m = int(d), int(m)
        self.instances = [DoublingKCenter(per_color_k, d) for _ in range(m)]
        self.n_seen = 0

    def insert(self, p: np.ndarray, color: int) -> None:
        """O(k) update (Theorem 5.1); :func:`check_arrival` first."""
        p, color = check_arrival(p, color, self.d, self.m)
        self.n_seen += 1
        self.instances[color].insert(p)

    def stored_items(self) -> int:
        """Synopsis size: O(m k), independent of the spread."""
        return sum(len(inst.C) for inst in self.instances)

    def synopsis(self) -> tuple[np.ndarray, np.ndarray]:
        """The maintained coreset as (X, colors) arrays."""
        Xs, cs = [], []
        for j, inst in enumerate(self.instances):
            Xs.append(inst.C)
            cs.append(np.full(len(inst.C), j, dtype=np.int64))
        return np.concatenate(Xs, axis=0), np.concatenate(cs)

    def solution(
        self,
        quotas: np.ndarray,
        *,
        eps: float = 1.0,
        g: float = 0.3,
        seed: int | None = None,
    ) -> FairDivResult:
        """Post-processing: MFD on the synopsis (O(m k^2 log^3 k)) through
        :func:`repro.core.mfd.solve_coreset`. A synopsis holding fewer than
        k_j points of color j shows as a miss, with the per-color synopsis
        counts in ``extras['held']``; the selected coordinates are in
        ``extras['synopsis_points']``."""
        Xc, cc = self.synopsis()
        res = solve_coreset(Xc, cc, quotas, eps=eps, g=g, seed=seed)
        res.extras["synopsis_points"] = res.extras["points"]
        return res


def check_arrival(p, color, d: int, m: int) -> tuple[np.ndarray, int]:
    """One stream arrival as a float64 point and an int color. Raises
    ``ValueError``, on arrival, for a point that is not shape (d,), a
    non-finite coordinate or a color id outside ``[0, m)``."""
    p, color = np.asarray(p, dtype=np.float64), int(color)
    if p.shape != (d,):
        raise ValueError(f"stream point must have shape ({d},); got {p.shape}")
    if not 0 <= color < m:
        raise ValueError(f"color id must lie in [0, {m}); got {color}")
    if not np.isfinite(p).all():
        raise ValueError(f"stream point has non-finite coordinates (NaN or inf): {p.tolist()}")
    return p, color


def feed(inst, X: np.ndarray, colors: np.ndarray, *, deadline: float = np.inf) -> bool:
    """Stream the rows of ``X`` into ``inst`` (anything with
    ``insert(p, color)``) in row order. The clock is read every 1,024 rows;
    returns False, leaving the stream unfinished, once
    ``time.perf_counter()`` has passed ``deadline``."""
    for i in range(len(X)):
        inst.insert(X[i], int(colors[i]))
        if (i & 0x3FF) == 0 and time.perf_counter() > deadline:
            return False
    return True

