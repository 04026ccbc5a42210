"""One result contract for MFD and every baseline: each entry point answers
with a FairDivResult whose int64 indices pick the solved set, at most k_j
points of color j, and whose colors, diversity and misses are that set's,
measured against the *requested* quotas. MFD's answers also count Round's
picks before the cut to the quotas."""
import numpy as np
import pytest

from repro.baselines.fairflow import fairflow
from repro.baselines.fairgreedyflow import fairgreedyflow
from repro.baselines.fmmds import fmmds
from repro.baselines.sfdm2 import sfdm2_offline
from repro.core.coreset import coreset_numpy
from repro.core.geometry import color_counts, diversity, missed_per_color
from repro.core.hp import mfd_hp
from repro.core.mfd import FairDivResult, mfd, solve_coreset
from repro.core.qfairdiv import QFairDivIndex
from repro.core.streaming import StreamMFD, feed

QUOTAS = np.array([4, 2, 2])
PER_COLOR_K = 3  # below QUOTAS[0]: coreset and synopsis solves must miss against the request

ENTRY_POINTS = [
    "mfd_dense", "mfd_tree", "mfd_hp", "solve_coreset", "solve_coreset_fairgreedyflow",
    "streammfd", "qfairdiv", "fairflow", "fairgreedyflow", "fmmds", "sfdm2_offline",
]
MFD_ENTRY_POINTS = {"mfd_dense", "mfd_tree", "mfd_hp", "solve_coreset", "streammfd", "qfairdiv"}


def _instance(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-10.0, 10.0, size=(120, 2))
    colors = rng.integers(0, 3, size=120)
    colors[:3] = np.arange(3)
    return X, colors


def _solve(entry, X, colors, seed):
    """The result and the (points, colors) arrays its indices refer to."""
    direct = {
        "mfd_dense": lambda: mfd(X, colors, QUOTAS, seed=seed),
        "mfd_tree": lambda: mfd(X, colors, QUOTAS, backend="tree", seed=seed),
        "mfd_hp": lambda: mfd_hp(X, colors, QUOTAS, seed=seed),
        "fairflow": lambda: fairflow(X, colors, QUOTAS),
        "fairgreedyflow": lambda: fairgreedyflow(X, colors, QUOTAS),
        "fmmds": lambda: fmmds(X, colors, QUOTAS),
    }
    if entry in direct:
        return direct[entry](), X, colors
    if entry.startswith("solve_coreset"):
        sel, cc = coreset_numpy(X, colors, PER_COLOR_K)
        kwargs = dict(solver=fairgreedyflow) if entry.endswith("fairgreedyflow") else dict(seed=seed)
        return solve_coreset(X[sel], cc, QUOTAS, **kwargs), X[sel], cc
    if entry == "streammfd":
        sm = StreamMFD(2, 3, per_color_k=PER_COLOR_K)
        feed(sm, X, colors)
        Xs, cs = sm.synopsis()
        return sm.solution(QUOTAS, seed=seed), Xs, cs
    if entry == "qfairdiv":
        index = QFairDivIndex(X, colors, k_max=16)
        return index.query(np.array([-6.0, -6.0]), np.array([6.0, 6.0]), QUOTAS, seed=seed), X, colors
    sel, _ = coreset_numpy(X, colors, int(QUOTAS.sum()))
    res = sfdm2_offline(X, colors, QUOTAS, X[sel], eps=0.5)
    pts = res.extras["points"]
    # SFDM-2 stores copies of input rows; the distinct uniform points identify them.
    rows = [int(np.flatnonzero((X == p).all(axis=1))[0]) for p in pts]
    return res, pts, colors[np.array(rows, dtype=np.int64)]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_result_contract(entry, seed):
    X, colors = _instance(seed)
    res, P, C = _solve(entry, X, colors, seed)
    assert isinstance(res, FairDivResult)
    assert res.indices.dtype == np.int64
    sel_pts, sel_colors = P[res.indices], C[res.indices]
    np.testing.assert_array_equal(res.colors, sel_colors)
    assert res.diversity == diversity(sel_pts)
    np.testing.assert_array_equal(res.missed, missed_per_color(sel_colors, QUOTAS))
    assert np.all(color_counts(sel_colors, len(QUOTAS)) <= QUOTAS)
    if entry in MFD_ENTRY_POINTS:
        assert res.extras["counters"]["raw_size"] >= len(res.indices)
    for key in ("points", "synopsis_points"):
        if key in res.extras:
            np.testing.assert_array_equal(res.extras[key], sel_pts)
