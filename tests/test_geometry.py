"""Unit tests for repro.core.geometry against brute-force references."""
import functools
import math

import numpy as np
import pytest

from repro.core import geometry as G
from repro.core.exact import ball_matrix


def _rand(n, d, seed):
    return np.random.default_rng(seed).normal(size=(n, d))


@pytest.mark.parametrize("n,d,seed", [(5, 2, 0), (20, 3, 1), (50, 6, 2), (7, 1, 3)])
def test_pairwise_matches_loops(n, d, seed):
    X = _rand(n, d, seed)
    D = G.pairwise_distances(X)
    for i in range(n):
        for j in range(n):
            assert D[i, j] == pytest.approx(np.linalg.norm(X[i] - X[j]), abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_pairwise_rectangular(seed):
    X, Y = _rand(10, 4, seed), _rand(6, 4, seed + 100)
    D = G.pairwise_distances(X, Y)
    assert D.shape == (10, 6)
    assert D[3, 4] == pytest.approx(np.linalg.norm(X[3] - Y[4]))


def _assert_pairs_match_ball_matrix(X, r):
    """pairs_within gives np.nonzero of the full ball matrix: the same
    arrays, dtype and order."""
    got, want = G.pairs_within(X, r), np.nonzero(ball_matrix(X, r))
    assert len(got) == 2
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    return got


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("r", [0.0, 0.5, 10.0])
def test_pairs_within_tiny(n, r):
    _assert_pairs_match_ball_matrix(_rand(n, 3, n), r)


@pytest.mark.parametrize("seed", range(3))
def test_pairs_within_spans_several_blocks(seed):
    """n^2 is several times the per-block cell budget, so the rows come
    from several blocks of different heights, with mirrored pairs."""
    n = 1500
    assert n * n > 4 * G._BLOCK_CELLS
    X = _rand(n, 4, seed)
    r = float(np.quantile(G.pairwise_distances(X[:200]), 0.02))
    i, j = _assert_pairs_match_ball_matrix(X, r)
    assert len(i) > 2 * n  # not just the diagonal


@pytest.mark.parametrize("r", [0.0, 1.0, 2.5])
def test_pairs_within_duplicate_rows(r):
    """Integer coordinates keep the distances exact: at r = 0 the pairs
    are exactly the rows at the same location."""
    rng = np.random.default_rng(0)
    X = rng.integers(0, 4, size=(300, 2)).astype(float)
    i, j = _assert_pairs_match_ball_matrix(X, r)
    if r == 0.0:
        same = (X[:, None, :] == X[None, :, :]).all(axis=2)
        assert np.array_equal(np.stack([i, j]), np.stack(np.nonzero(same)))


def test_pairs_within_includes_pair_at_exactly_r():
    X = np.array([[0.0, 0.0], [3.0, 4.0], [10.0, 10.0]])
    i, j = _assert_pairs_match_ball_matrix(X, 5.0)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
    i, j = _assert_pairs_match_ball_matrix(X, np.nextafter(5.0, 0.0))
    assert list(zip(i.tolist(), j.tolist())) == [(0, 0), (1, 1), (2, 2)]


@pytest.mark.parametrize("seed", range(5))
def test_dists_to_point(seed):
    """Close to the norm, and bitwise equal to the row-sum formula the
    baselines used inline, for every dimension up to 9 (past numpy's
    8-wide pairwise block): a faster kernel must keep this summation order."""
    for d in range(1, 10):
        X = _rand(200, d, seed)
        p = _rand(1, d, seed + 7)[0]
        got = G.dists_to_point(X, p)
        np.testing.assert_allclose(got, np.linalg.norm(X - p, axis=1))
        np.testing.assert_array_equal(got, np.sqrt(((X - p) ** 2).sum(axis=1)))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("d", [0, *range(1, 18), 31, 64, 127, 130, 300])
def test_dists_to_point_cm_bitwise(d):
    """The coordinate-major kernel gives the exact bits of the squared
    coordinates added in order, with duplicate rows and coordinate scales
    1e-3 to 1e6; its scratch buffers are reused from one point to the
    next. Below numpy's 8-wide pairwise block that is also the row-sum
    formula's and :func:`dists_to_point`'s bits; from it up, through its
    128-value split, it is within rounding of them."""
    rng = np.random.default_rng(d)
    X = rng.normal(size=(150, d)) * np.logspace(-3, 6, 150)[:, None]
    X[::5] = X[7]
    XT = np.ascontiguousarray(X.T)
    buf, out = np.empty_like(XT), np.empty(len(X))
    for p in (X[7], X[0], X[149], np.zeros(d)):
        in_order = np.sqrt(functools.reduce(np.add, list(((X - p) ** 2).T), np.zeros(len(X))))
        got = G.dists_to_point_cm(XT, p, buf, out)
        assert got is out
        assert np.array_equal(_bits(got), _bits(in_order))
        if d < 8:
            assert np.array_equal(_bits(got), _bits(np.sqrt(((X - p) ** 2).sum(axis=1))))
            assert np.array_equal(_bits(got), _bits(G.dists_to_point(X, p)))
        else:
            assert np.allclose(got, G.dists_to_point(X, p), rtol=1e-15, atol=0)


def _realized_distance():
    X = _rand(40, 3, 11)
    return float(G.pairwise_distances(X[:1], X[1:2])[0, 0])


@pytest.mark.parametrize("r", [
    0.0, 5e-324, 1e-200, 1.0, 0.1, _realized_distance(),
    np.nextafter(_realized_distance(), np.inf), np.nextafter(_realized_distance(), -np.inf),
    1e154, 1e200, np.finfo(float).max,
])
def test_sq_threshold_is_the_largest_square_within_r(r):
    """sqrt(t) <= r < sqrt(nextafter(t, inf)), also where r*r underflows
    (5e-324, 1e-200) or overflows (1e200)."""
    t = G.sq_threshold(r)
    assert math.sqrt(t) <= r < math.sqrt(math.nextafter(t, math.inf))


def test_sq_threshold_edges():
    assert G.sq_threshold(np.inf) == np.inf
    assert np.isnan(G.sq_threshold(-1.0)) and np.isnan(G.sq_threshold(np.nan))
    assert G.sq_threshold(1e200) == np.finfo(float).max


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("r", [np.inf, 1e200, -1.0, np.nan])
def test_pairs_within_tiny_extreme_radii(n, r):
    _assert_pairs_match_ball_matrix(_rand(n, 3, n), r)


@pytest.mark.parametrize("fortran", [False, True])
def test_pairs_within_three_blocks_at_edge_radii(fortran):
    """Over three or more row blocks, at a realized distance and the
    doubles either side of it, at 0 (with duplicate rows), at 1e200 and
    at inf, the pairs are the full matrix's, for either memory layout."""
    n = 1100
    assert n * n > 3 * G._BLOCK_CELLS
    rng = np.random.default_rng(5)
    X = np.round(rng.normal(size=(n, 3)) * 3.0, 2)
    X[::9] = X[4]
    if fortran:
        X = np.asfortranarray(X)
    r = float(G.pairwise_distances(X[10:11], X[20:21])[0, 0])
    for rr in (r, np.nextafter(r, np.inf), np.nextafter(r, -np.inf), 0.0, 1e200, np.inf):
        _assert_pairs_match_ball_matrix(X, rr)


@pytest.mark.parametrize("d", [8, 17])
def test_distances_do_not_depend_on_memory_layout(d):
    """With d >= 8 numpy adds a row pairwise only when it is contiguous, so
    a Fortran-ordered X (what ``pd.read_csv(...).to_numpy()`` gives) must
    give the same distance bits, the same pairs at every realized radius
    and the same MFD answers as its C-ordered copy."""
    from repro.core.mfd import mfd

    rng = np.random.default_rng(d)
    X = rng.normal(size=(60, d))
    F = np.asfortranarray(X)
    D = G.pairwise_distances(X)
    assert np.array_equal(G.pairwise_distances(F).view(np.int64), D.view(np.int64))
    assert np.array_equal(G.pairwise_distances(F, F[:7]).view(np.int64), D[:, :7].view(np.int64))
    for r in np.unique(D):
        for got, want in zip(G.pairs_within(F, r), G.pairs_within(X, r)):
            assert np.array_equal(got, want)
    colors = rng.integers(0, 3, size=len(X))
    for backend in ("dense", "tree"):
        a = mfd(X, colors, np.array([3, 3, 3]), backend=backend, seed=0)
        b = mfd(F, colors, np.array([3, 3, 3]), backend=backend, seed=0)
        assert np.array_equal(a.indices, b.indices)
        assert (a.gamma, a.diversity) == (b.gamma, b.diversity)


@pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (30, 2)])
def test_diversity_matches_min_pairwise(n, seed):
    X = _rand(n, 3, seed)
    D = G.pairwise_distances(X)
    np.fill_diagonal(D, np.inf)
    assert G.diversity(X) == pytest.approx(D.min())


def test_diversity_degenerate():
    assert G.diversity(np.zeros((1, 2))) == np.inf
    assert G.diversity(np.zeros((0, 2))) == np.inf
    assert G.diversity(np.zeros((3, 2))) == 0.0


@pytest.mark.parametrize("m", [1, 2, 5])
def test_color_counts_and_quotas(m):
    colors = np.array([i % m for i in range(13)])
    counts = G.color_counts(colors, m)
    assert counts.sum() == 13
    assert G.satisfies_quotas(colors, counts)
    assert not G.satisfies_quotas(colors, counts + 1)
    assert np.all(G.missed_per_color(colors, counts) == 0)
    assert np.all(G.missed_per_color(colors, counts + 2) == 2)


def _net_at_least(X, sep):
    """Reference: the row-by-row net keeping rows >= sep from every kept row."""
    centers = []
    C = np.empty((0, X.shape[1]))
    for i in range(len(X)):
        if len(centers) == 0 or G.dists_to_point(C, X[i]).min() >= sep:
            centers.append(i)
            C = np.vstack([C, X[i]])
    return np.array(centers, dtype=np.int64)


def _net_farther_than(C, tau):
    """Reference: the doubling prune, keeping rows > tau from every kept row."""
    keep = []
    for i in range(len(C)):
        if not keep or G.dists_to_point(C[keep], C[i]).min() > tau:
            keep.append(i)
    return np.array(keep, dtype=np.int64)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 11])
@pytest.mark.parametrize("seed", range(6))
def test_greedy_net_matches_reference_loops(seed, d):
    """Rounded coordinates and duplicate rows, so that many distances tie:
    at r = 0, at r equal to a pairwise distance, and at a typical r, the
    net is each reference loop's (">= sep" is r = nextafter(sep, -inf))."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))
    X = np.round(rng.normal(size=(n, d)) * 2.0, 1)
    X[rng.integers(0, n, n // 3)] = X[rng.integers(0, n, n // 3)]
    i, j = rng.integers(0, n, 2)
    for r in [0.0, float(G.dists_to_point(X[i:i + 1], X[j])[0]), float(np.median(G.pairwise_distances(X)))]:
        got = G.greedy_net(X, r)
        assert got.dtype == np.int64
        assert got.tolist() == _net_farther_than(X, r).tolist()
        assert G.greedy_net(X, np.nextafter(r, -np.inf)).tolist() == _net_at_least(X, r).tolist()
    assert G.greedy_net(np.empty((0, d)), 1.0).tolist() == []


@pytest.mark.parametrize("k,m", [(10, 3), (20, 14), (5, 5), (100, 7), (3, 10)])
def test_equal_quotas_sum(k, m):
    q = G.equal_quotas(k, m)
    assert q.sum() == k
    assert q.max() - q.min() <= 1


@pytest.mark.parametrize("k,seed", [(10, 0), (50, 1), (100, 2)])
def test_proportional_quotas(k, seed):
    rng = np.random.default_rng(seed)
    colors = rng.choice(4, size=1000, p=[0.7, 0.2, 0.05, 0.05])
    q = G.proportional_quotas(k, colors, 4)
    assert q.sum() <= k
    counts = G.color_counts(colors, 4)
    # Proportionality: big colors get more.
    assert q[0] >= q[1] >= q[2] - 1
    assert np.all(q <= counts)
