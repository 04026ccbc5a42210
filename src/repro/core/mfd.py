"""MFD — Multiplicative-weight-update method for Fair Diversification.

Top-level driver (the paper's Algorithm 1 plus the Section-6 engineering
choices the authors made in their own artifact):

- gamma schedule: the geometric descent the authors shipped (start from
  the global-Gonzalez upper bound, and on infeasibility set gamma <-
  (1 - ``DECAY``) gamma, ``DECAY`` = 0.15). Theorem 3.2's binary search
  over WSPD candidate distances is not implemented;
- early stopping parameter ``g`` (fraction of the theoretical MWU
  iteration count, default 0.3 per their micro-benchmark);
- randomized rounding, 5-run averaging left to the experiment harness.

:func:`mfd` and the high-probability variant share one gamma search
(:func:`certify_and_round`); every solve on a coreset or synopsis goes
through :func:`solve_coreset`, the one place that decides quotas. The
descent, :func:`geometric_descent`, is also FairGreedyFlow's, and
:func:`binary_search` is FMMD-S's. MFD and every baseline check their
input with :func:`check_instance` and answer with a
:class:`FairDivResult` built by :meth:`FairDivResult.of`.

Run directly on a point set this is Theorem 3.2's algorithm with the
Section-6 schedule; run on the Section 4 coreset (see
:mod:`repro.core.coreset`) it is Corollary 4.3 — the configuration
evaluated in the paper's experiments.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import mwu
from .geometry import color_counts, diversity, missed_per_color
from .gonzalez import gonzalez
from .kdtree import KDTree

DECAY = 0.15  # the authors' Section-6 schedule: gamma <- 0.85 gamma on infeasibility


@dataclass
class FairDivResult:
    """Outcome of one FairDiv solve, the same for MFD and every baseline."""

    indices: np.ndarray  # selected row indices into the input X (int64)
    gamma: float  # the certified (or best feasible) guess; 0 if none
    diversity: float  # realized div(S)
    colors: np.ndarray  # colors of the selected points
    missed: np.ndarray  # per-color shortfall vs quotas (Table 4 metric)
    extras: dict = field(default_factory=dict)

    @classmethod
    def of(cls, X, colors, quotas, sel, *, gamma=0.0, **extras) -> "FairDivResult":
        """The result that selects rows ``sel`` of ``(X, colors)``: div(S),
        the selected colors and the misses against ``quotas`` are computed
        here, and nowhere else."""
        sel = np.asarray(sel, dtype=np.int64)
        sel_colors = colors[sel]
        missed = missed_per_color(sel_colors, quotas)
        return cls(sel, gamma, diversity(X[sel]), sel_colors, missed, extras)


def check_quotas(quotas) -> np.ndarray:
    """``quotas`` as a 1-D int64 array. Raises ``ValueError`` for another
    shape or a quota that is negative or not an integer, rather than failing
    later or cutting it to an integer."""
    q = np.asarray(quotas)
    if q.ndim != 1:
        raise ValueError(f"quotas must be a 1-D array; got shape {q.shape}")
    if not np.all(np.isfinite(q) & (q >= 0) & (q == np.floor(q))):
        raise ValueError(f"quotas must be non-negative integers; got {q.tolist()}")
    return q.astype(np.int64)


def check_instance(X, colors, quotas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(X, colors, quotas)`` as float64, int64 and int64 arrays. Raises
    ``ValueError`` unless X is (n, d) and colors (n,), and for a non-finite
    coordinate, a color id outside [0, m), m = len(quotas), or a quota
    :func:`check_quotas` rejects; quotas a color cannot meet are not
    checked."""
    X = np.asarray(X, dtype=np.float64)
    colors = np.asarray(colors, dtype=np.int64)
    quotas = check_quotas(quotas)
    if X.ndim != 2 or colors.shape != X.shape[:1]:
        raise ValueError(f"X must be (n, d) and colors (n,); got shapes {X.shape} and {colors.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X has non-finite coordinates (NaN or inf)")
    color_counts(colors, len(quotas))  # raises on an id outside [0, m)
    return X, colors, quotas


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


def geometric_descent(attempt: Callable[[float], object], start: float):
    """The practical gamma schedule (paper Section 6): ``attempt(gamma)`` for
    gamma = ``start`` (finite), then gamma * (1 - :data:`DECAY`), ..., while
    gamma >= 1e-12 * max(start, 1). Returns the first non-None result and the
    tries."""
    gamma, tries = start, 0
    floor = 1e-12 * max(start, 1.0)
    while gamma >= floor:
        tries += 1
        got = attempt(gamma)
        if got is not None:
            return got, tries
        gamma *= 1.0 - DECAY
    return None, tries


def binary_search(attempt: Callable[[float], object], candidates: np.ndarray):
    """FMMD-S's threshold search over the ascending ``candidates``: ``attempt``
    the middle one (mid = (lo + hi + 1) // 2), then search above it on a
    non-None result, below it on None. Returns the last non-None result and
    the tries."""
    lo, hi, tries, best = 0, len(candidates) - 1, 0, None
    while lo <= hi:
        mid = (lo + hi + 1) // 2
        tries += 1
        got = attempt(float(candidates[mid]))
        if got is None:
            hi = mid - 1
        else:
            best, lo = got, mid + 1
    return best, tries


def fallback_selection(colors: np.ndarray, quotas: np.ndarray) -> np.ndarray:
    """The first k_j rows of each color j: the fair set returned, with gamma 0,
    when no gamma is certified, and the cut of Round's picks in
    :func:`certify_and_round`."""
    return np.concatenate([np.flatnonzero(colors == j)[:q] for j, q in enumerate(quotas)])


def certify_and_round(
    X: np.ndarray,
    colors: np.ndarray,
    quotas: np.ndarray,
    rounding: Callable[[mwu.MWUProblem, np.ndarray], np.ndarray],
    *,
    eps: float,
    g: float,
    backend: str = "dense",
) -> FairDivResult:
    """Algorithm 1: validate the input (:func:`check_instance`, then quotas
    the colors can meet, a finite ``eps`` > 0 and a known ``backend``;
    ``ValueError`` otherwise), search for the largest gamma whose LP2 MWU
    certifies feasible (:func:`geometric_descent` from
    :func:`gamma_upper_bound`, at most ~170 rounds; :func:`mwu.solve` may
    certify before its T iterations), and round its x_hat
    with ``rounding(prob, xhat) -> indices``. The answer is the
    first k_j picks of each color j of Round's set, in sampling order, so
    |S(c_j)| <= k_j. If no gamma is certified, the result is
    :func:`fallback_selection`, a fair set, with gamma 0. That is always so
    when X has fewer than k distinct locations: the upper bound is then 0
    and every fair set is optimal. With k < 2 (an empty X included) no
    gamma is tried: k = 0 gives the empty set and k = 1 the first row of
    the needed color, both with gamma 0.

    ``extras`` holds ``timings`` (wall seconds: ``gamma_bound_s``, the
    upper bound; ``incidence_s`` and ``mwu_s``, the neighborhood builds
    and the MWU loops summed over the gamma rounds;
    ``round_s``) and ``counters`` (``gamma_rounds``, the gamma values
    tried; and for the certified
    gamma ``mwu_iterations``, the MWU iterations its x_hat averages (at
    most :func:`mwu.iterations`' T, fewer when MWU stopped early),
    ``lp2_violation``, x_hat's violation of Constraints (11) as MWU
    measured it, ``incidence_pairs``, B's (point, node) pairs,
    ``raw_size``, |S| before the cut, and ``update``, the Update read,
    ``"gather"`` or ``"rows"``: 0, None, 0, 0 and None if no gamma was
    certified).
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0; got {eps}")
    if backend not in ("dense", "tree"):
        raise ValueError(f"backend must be 'dense' or 'tree'; got {backend!r}")
    X, colors, quotas = check_instance(X, colors, quotas)
    counts = color_counts(colors, len(quotas))
    if np.any(counts < quotas):
        raise ValueError(f"infeasible quotas: need {quotas.tolist()}, have {counts.tolist()}")

    k = int(quotas.sum())
    timings = dict.fromkeys(("gamma_bound_s", "incidence_s", "mwu_s", "round_s"), 0.0)
    tree = KDTree(X) if backend == "tree" and k >= 2 else None

    def attempt(gamma: float):
        prob = mwu.MWUProblem(X, colors, quotas, gamma, eps, tree)
        t0 = time.perf_counter()
        prob.incidence  # built and cached here, so that it is timed apart from MWU
        t1 = time.perf_counter()
        sol = mwu.solve(prob, g=g)
        timings["incidence_s"] += t1 - t0
        timings["mwu_s"] += time.perf_counter() - t1
        return None if sol is None else (prob, sol)

    feasible, rounds = None, 0
    if k >= 2:  # with fewer than 2 points every set has diversity inf: nothing to certify
        t0 = time.perf_counter()
        start = gamma_upper_bound(X, k)
        timings["gamma_bound_s"] = time.perf_counter() - t0
        feasible, rounds = geometric_descent(attempt, start)

    counters = {"gamma_rounds": rounds, "mwu_iterations": 0, "lp2_violation": None,
                "incidence_pairs": 0, "raw_size": 0, "update": None}
    if feasible is None:
        sel, gamma = fallback_selection(colors, quotas), 0.0
    else:
        prob, sol = feasible
        t0 = time.perf_counter()
        sel = rounding(prob, sol.xhat)
        timings["round_s"] = time.perf_counter() - t0
        gamma, inc = prob.gamma, prob.incidence
        counters.update(mwu_iterations=sol.iterations, lp2_violation=sol.violation,
                        incidence_pairs=len(inc.cover_pt), raw_size=len(sel),
                        update="gather" if inc.gathers(k) else "rows")
        sel = sel[np.sort(fallback_selection(colors[sel], quotas))]
    return FairDivResult.of(X, colors, quotas, sel, gamma=gamma, timings=timings, counters=counters)


def mfd(
    X: np.ndarray,
    colors: np.ndarray,
    quotas: np.ndarray,
    *,
    eps: float = 1.0,
    g: float = 0.3,
    backend: str = "dense",
    seed: int | None = None,
) -> FairDivResult:
    """Solve FairDiv on ``(X, colors)`` with per-color quotas.

    The gamma search is :func:`certify_and_round`'s. ``backend`` picks the
    LP2 neighborhoods S^eps_p, the only thing it changes (see
    :mod:`repro.core.mwu`): ``'dense'`` uses exact balls (right choice at
    coreset scale); ``'tree'`` uses a BBD-style KD-tree's canonical-node
    covers, the paper's Algorithms 2–4. Round is Algorithm 4 at the LP2
    radius; of its picks, :func:`certify_and_round` keeps the first k_j
    of each color j (the paper returns them all), so |S(c_j)| <= k_j and
    div(S) can only grow.
    """
    rng = np.random.default_rng(seed)
    return certify_and_round(X, colors, quotas, lambda prob, xhat: mwu.round_solution(prob, xhat, rng),
                             eps=eps, g=g, backend=backend)


def solve_coreset(Xc: np.ndarray, cc: np.ndarray, quotas: np.ndarray, *, solver=None, **kwargs):
    """FairDiv on a coreset or synopsis ``(Xc, cc)``, the one place that
    decides effective quotas: ``solver`` (default :func:`mfd`) is asked for
    min(k_j, held_j) points of color j, and ``missed`` is measured against
    the *requested* k_j. ``extras`` gets ``held`` (coreset rows per color),
    ``coreset_size`` and ``points`` (the selected coreset rows' coordinates).
    """
    Xc, cc, quotas = check_instance(Xc, cc, quotas)
    held = color_counts(cc, len(quotas))
    res = (solver or mfd)(Xc, cc, np.minimum(quotas, held), **kwargs)
    res.missed = missed_per_color(res.colors, quotas)
    res.extras.update(held=held, coreset_size=len(Xc), points=Xc[res.indices])
    return res


def mfd_spark(df, quotas: np.ndarray, **mfd_kwargs) -> FairDivResult:
    """Corollary 4.3 as one call: distributed per-color coreset over the
    Spark DataFrame (the only O(n) stage, k points per color), then
    :func:`solve_coreset` on the O(mk) coreset on the driver, which returns
    at most k_j points of color j. ``extras['timings']`` adds the wall
    seconds of the two stages (``coreset_s``, ``solve_s``) to the solve's
    own; indices refer to coreset rows, with the selected coordinates in
    ``extras['points']``."""
    from .coreset import coreset_arrays

    k = int(np.sum(quotas))
    t0 = time.perf_counter()
    Xc, cc = coreset_arrays(df, k)
    t1 = time.perf_counter()
    res = solve_coreset(Xc, cc, quotas, **mfd_kwargs)
    res.extras["timings"].update(coreset_s=t1 - t0, solve_s=time.perf_counter() - t1)
    return res

