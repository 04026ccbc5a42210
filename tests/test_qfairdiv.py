"""QFairDiv range-query structure: containment, fairness, quality."""
import numpy as np
import pytest

from repro.core import exact
from repro.core.kdtree import KDTree
from repro.core.qfairdiv import QFairDivIndex


def _instance(n, m, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-10, 10, size=(n, 2))
    colors = rng.integers(0, m, size=n)
    colors[:m] = np.arange(m)
    return X, colors


@pytest.mark.parametrize("seed", range(5))
def test_rect_canonical_cover_exact(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5, 5, size=(80, 2))
    t = KDTree(X)
    lo, hi = np.array([-2.0, -3.0]), np.array([3.0, 2.0])
    nodes = t.canonical_nodes_rect(lo, hi)
    got = sorted(np.concatenate([t.points_under(u) for u in nodes]).tolist()) if len(nodes) else []
    want = sorted(
        np.where(np.all(X >= lo, axis=1) & np.all(X <= hi, axis=1))[0].tolist()
    )
    assert got == want


@pytest.mark.parametrize("seed", range(3))
def test_query_results_inside_rect_and_fair(seed):
    X, colors = _instance(600, 3, seed)
    idx = QFairDivIndex(X, colors, k_max=16)
    lo, hi = np.array([-6.0, -6.0]), np.array([6.0, 6.0])
    quotas = np.array([2, 2, 2])
    res = idx.query(lo, hi, quotas, seed=seed)
    pts = X[res.indices]
    assert np.all(pts >= lo - 1e-12) and np.all(pts <= hi + 1e-12)
    assert res.missed.sum() <= 1
    assert res.extras["coreset_size"] <= 3 * 6 + 18  # O(mk)


def test_query_quotas_clip_to_range_content():
    X, colors = _instance(200, 2, 7)
    # Rectangle that excludes color 1 entirely.
    X[colors == 1] += 100.0
    idx = QFairDivIndex(X, colors, k_max=8)
    res = idx.query(np.array([-20.0, -20.0]), np.array([20.0, 20.0]), np.array([2, 2]))
    assert np.all(colors[res.indices] == 0)


def test_query_beyond_k_max_raises():
    """Every node stores only k_max Gonzalez rows, so a query for more points
    than that is refused, not answered from prefixes cut at k_max."""
    X, colors = _instance(400, 2, 3)
    idx = QFairDivIndex(X, colors, k_max=8)
    lo, hi = np.array([-10.0, -10.0]), np.array([10.0, 10.0])
    with pytest.raises(ValueError, match="k_max"):
        idx.query(lo, hi, np.array([20, 20]))
    assert len(idx.query(lo, hi, np.array([4, 4]), seed=0).indices) <= 8  # k = k_max is answered


@pytest.mark.parametrize("seed", range(3))
def test_query_quality_vs_bruteforce(seed):
    """Query diversity within a constant factor of the in-range optimum."""
    X, colors = _instance(16, 2, seed)
    lo, hi = np.array([-10.0, -10.0]), np.array([10.0, 10.0])
    quotas = np.array([2, 1])
    inside = np.where(np.all(X >= lo, axis=1) & np.all(X <= hi, axis=1))[0]
    gstar, _ = exact.fairdiv_optimum(X[inside], colors[inside], quotas)
    idx = QFairDivIndex(X, colors, k_max=16)
    best = max(idx.query(lo, hi, quotas, seed=s, g=1.0).diversity for s in range(5))
    assert best >= gstar / 6 - 1e-9


def test_empty_range():
    X, colors = _instance(100, 2, 1)
    idx = QFairDivIndex(X, colors)
    res = idx.query(np.array([100.0, 100.0]), np.array([101.0, 101.0]), np.array([1, 1]))
    assert len(res.indices) == 0


def test_query_range_without_a_color_misses_its_quota():
    """As in the empty-range case, a color absent from R misses its whole
    quota; MFD is asked only for what the range holds."""
    X, colors = _instance(200, 2, 7)
    X[colors == 1] += 100.0
    idx = QFairDivIndex(X, colors, k_max=8)
    res = idx.query(np.array([-20.0, -20.0]), np.array([20.0, 20.0]), np.array([2, 2]))
    assert res.extras["held"][1] == 0
    assert res.missed[1] == 2
    assert res.missed[0] == max(0, 2 - np.sum(res.colors == 0))


def test_negative_color_rejected():
    """A negative color id raises ValueError instead of being left out of
    the index."""
    X, colors = _instance(50, 2, 0)
    colors[5] = -1
    with pytest.raises(ValueError):
        QFairDivIndex(X, colors)


@pytest.mark.parametrize("bad", ["colors_length", "x_not_2d", "empty"])
def test_bad_shapes_rejected(bad):
    """X that is not (n, d), colors that are not (n,), and an empty X raise
    a clear ValueError, not an index that leaves out the rows without a
    color or numpy's error for a reduction over an empty array."""
    X, colors = _instance(30, 2, 0)
    X, colors = {"colors_length": (X, colors[:25]), "x_not_2d": (X[:, 0], colors),
                 "empty": (X[:0], colors[:0])}[bad]
    with pytest.raises(ValueError, match="X must be|empty point set"):
        QFairDivIndex(X, colors)
