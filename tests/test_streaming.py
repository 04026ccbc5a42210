"""Streaming: doubling algorithm, StreamMFD, SFDM-2."""
import numpy as np
import pytest

from repro.baselines.sfdm2 import SFDM2, sfdm2_offline
from repro.core.geometry import dists_to_point, equal_quotas, pairwise_distances
from repro.core.exact import gonzalez_radius
from repro.core.gonzalez import coreset_numpy, gonzalez
from repro.core.streaming import DoublingKCenter, StreamMFD, feed


def _stream(n, d, m, seed, spread=5.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * spread
    colors = rng.integers(0, m, size=n)
    colors[:m] = np.arange(m)
    return X, colors


def _sfdm2(X, colors, quotas, *, eps):
    """The harness's SFDM-2 cell without Spark: bounds from the serial MFD coreset."""
    sel, _ = coreset_numpy(X, colors, int(quotas.sum()))
    return sfdm2_offline(X, colors, quotas, X[sel], eps=eps)


@pytest.mark.parametrize("k,seed", [(4, 0), (8, 1), (16, 2)])
def test_doubling_capacity_and_coverage(k, seed):
    X, _ = _stream(500, 2, 1, seed)
    dk = DoublingKCenter(k, 2)
    for p in X:
        dk.insert(p)
    assert len(dk.C) <= k
    # Constant-factor coverage vs offline Gonzalez (2-approx of optimum).
    r_stream = pairwise_distances(X, dk.C).min(axis=1).max()
    r_gonz = gonzalez_radius(X, gonzalez(X, k))
    assert r_stream <= 16 * r_gonz + 1e-9


def test_doubling_insert_order_invariance_of_guarantee():
    X, _ = _stream(300, 2, 1, 3)
    for perm_seed in range(3):
        order = np.random.default_rng(perm_seed).permutation(len(X))
        dk = DoublingKCenter(6, 2)
        for p in X[order]:
            dk.insert(p)
        r = pairwise_distances(X, dk.C).min(axis=1).max()
        assert r <= 16 * gonzalez_radius(X, gonzalez(X, 6)) + 1e-9


@pytest.mark.parametrize("m,k", [(2, 6), (3, 9)])
def test_streammfd_storage_and_solution(m, k):
    X, colors = _stream(2000, 2, m, 7)
    quotas = equal_quotas(k, m)
    sm = StreamMFD(2, m, per_color_k=k)
    for i in range(len(X)):
        sm.insert(X[i], int(colors[i]))
    # O(mk) storage, independent of n and spread.
    assert sm.stored_items() <= m * k
    res = sm.solution(quotas, seed=0)
    assert res.diversity > 0
    assert res.missed.sum() <= 2


def test_streammfd_update_cheaper_than_sfdm2_dense():
    """Update-time ordering of Fig 10: StreamMFD < SFDM-2(eps=.15)."""
    import time

    X, colors = _stream(1500, 2, 3, 11)
    quotas = equal_quotas(9, 3)
    sm = StreamMFD(2, 3, per_color_k=9)
    t0 = time.perf_counter()
    for i in range(len(X)):
        sm.insert(X[i], int(colors[i]))
    t_sm = time.perf_counter() - t0
    sf = SFDM2(2, quotas, eps=0.15, d_min=0.05, d_max=30.0)
    t0 = time.perf_counter()
    for i in range(len(X)):
        sf.insert(X[i], int(colors[i]))
    t_sf = time.perf_counter() - t0
    assert t_sm < t_sf


@pytest.mark.parametrize("eps", [0.15, 0.75])
def test_sfdm2_fairness_and_storage(eps):
    X, colors = _stream(800, 2, 3, 13)
    quotas = equal_quotas(6, 3)
    res = _sfdm2(X, colors, quotas, eps=eps)
    assert res.missed.sum() <= 1
    assert res.diversity > 0
    # log(Delta) storage blowup: denser grid stores more.
    assert res.extras["stored"] > 0


def test_sfdm2_dense_grid_at_least_as_diverse():
    """eps=0.15 should (weakly) beat eps=0.75 on diversity — Fig 10 shape."""
    X, colors = _stream(1200, 2, 3, 17)
    quotas = equal_quotas(6, 3)
    d15 = _sfdm2(X, colors, quotas, eps=0.15).diversity
    d75 = _sfdm2(X, colors, quotas, eps=0.75).diversity
    assert d15 >= 0.6 * d75  # allow noise but dense grid must be competitive


@pytest.mark.parametrize("identical_points", [False, True])
@pytest.mark.parametrize("given", [("d_min", "d_max"), ("d_min",), ("d_max",)], ids=["both", "d_min", "d_max"])
def test_sfdm2_offline_passes_caller_bounds_unchanged(monkeypatch, given, identical_points):
    """The bounds SFDM2 receives are those of the coreset the caller passes,
    not of X, also when every row of X sits at one location: on a coreset
    of six points 5.75 apart plus one 0.25 from the first, d_min = 0.25 and
    d_max = 2 * 5.75 (the six Gonzalez centers' diversity, doubled)."""
    import repro.baselines.sfdm2 as sfdm2_mod

    X, colors = _stream(300, 2, 3, 23)
    if identical_points:
        X[:] = 1.0
    coreset = np.zeros((7, 2))
    coreset[:6, 0] = 5.75 * np.arange(6)
    coreset[6, 0] = 0.25
    bounds = {name: {"d_min": 0.25, "d_max": 11.5}[name] for name in given}
    seen = {}

    class Recording(SFDM2):
        def __init__(self, d, quotas, *, eps, d_min, d_max):
            seen.update(d_min=d_min, d_max=d_max)
            super().__init__(d, quotas, eps=eps, d_min=d_min, d_max=d_max)

    monkeypatch.setattr(sfdm2_mod, "SFDM2", Recording)
    sfdm2_offline(X, colors, equal_quotas(6, 3), coreset, eps=0.75)
    assert {name: seen[name] for name in given} == bounds


def test_sfdm2_offline_bounds_on_identical_rows(monkeypatch):
    """A coreset with no non-zero distance (all rows at one location) gives
    d_min = 1e-6 and a grid that still spans d_max >= 2 d_min."""
    import repro.baselines.sfdm2 as sfdm2_mod

    X, colors = _stream(300, 2, 3, 23)
    X[:] = 1.0
    seen = {}

    class Recording(SFDM2):
        def __init__(self, d, quotas, *, eps, d_min, d_max):
            seen.update(d_min=d_min, d_max=d_max)
            super().__init__(d, quotas, eps=eps, d_min=d_min, d_max=d_max)

    monkeypatch.setattr(sfdm2_mod, "SFDM2", Recording)
    _sfdm2(X, colors, equal_quotas(6, 3), eps=0.75)
    assert seen["d_min"] == 1e-6 and seen["d_max"] >= 2 * seen["d_min"]


def test_feed_stops_at_deadline():
    """feed reads the clock every 1,024 rows and stops once the deadline
    has passed; with no deadline it streams every row."""
    X, colors = _stream(3000, 2, 2, 29)
    sm = StreamMFD(2, 2, per_color_k=4)
    assert not feed(sm, X, colors, deadline=0.0)
    assert sm.n_seen == 1
    sm = StreamMFD(2, 2, per_color_k=4)
    assert feed(sm, X, colors)
    assert sm.n_seen == 3000


@pytest.mark.parametrize("color", [-1, 2])
def test_streammfd_rejects_out_of_range_color(color):
    """A color id outside [0, m) raises ValueError and stores nothing
    (-1 used to land in the last color's synopsis)."""
    sm = StreamMFD(2, 2, per_color_k=4)
    with pytest.raises(ValueError):
        sm.insert(np.zeros(2), color)
    assert sm.n_seen == 0 and sm.stored_items() == 0


@pytest.mark.parametrize("color", [-1, 2])
def test_sfdm2_rejects_out_of_range_color(color):
    """A color id outside [0, m) raises ValueError and stores nothing
    (-1 used to fill the last color's buffers)."""
    algo = SFDM2(2, np.array([1, 1]), eps=0.5, d_min=0.1, d_max=10.0)
    with pytest.raises(ValueError):
        algo.insert(np.zeros(2), color)
    assert algo.n_seen == 0 and algo.stored_items() == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_streammfd_rejects_non_finite_point(bad):
    """A NaN or inf coordinate raises ValueError when the point arrives,
    not later from solution(), and stores nothing."""
    sm = StreamMFD(2, 2, per_color_k=4)
    with pytest.raises(ValueError, match="non-finite"):
        sm.insert(np.array([0.0, bad]), 0)
    assert sm.n_seen == 0 and sm.stored_items() == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sfdm2_rejects_non_finite_point(bad):
    """A NaN or inf coordinate raises ValueError when the point arrives and
    stores nothing (a NaN first point used to enter every empty buffer and
    give diversity nan with no misses)."""
    algo = SFDM2(2, np.array([1, 1]), eps=0.5, d_min=0.1, d_max=10.0)
    with pytest.raises(ValueError, match="non-finite"):
        algo.insert(np.array([bad, 0.0]), 0)
    assert algo.n_seen == 0 and algo.stored_items() == 0


@pytest.mark.parametrize("p", [np.zeros(1), np.zeros(3), np.zeros((1, 2)), np.float64(0.0)],
                         ids=["d1", "d3", "row", "scalar"])
@pytest.mark.parametrize("algo", ["streammfd", "sfdm2"])
def test_stream_rejects_point_of_wrong_shape(algo, p):
    """A point that is not shape (d,) raises ValueError on arrival and
    stores nothing (it used to be counted and broadcast against the
    synopsis)."""
    if algo == "streammfd":
        inst = StreamMFD(2, 2, per_color_k=4)
    else:
        inst = SFDM2(2, np.array([1, 1]), eps=0.5, d_min=0.1, d_max=10.0)
    with pytest.raises(ValueError, match="shape"):
        inst.insert(p, 0)
    assert inst.n_seen == 0 and inst.stored_items() == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(eps=0.0), dict(eps=-0.5), dict(eps=np.nan), dict(eps=np.inf),
        dict(d_max=np.inf), dict(d_max=np.nan), dict(d_max=1.7e308),
        dict(d_min=np.nan), dict(d_min=-np.inf),
    ],
)
def test_sfdm2_rejects_an_endless_threshold_grid(kwargs):
    """An eps that is not finite and > 0, or a non-finite d_min or
    d_max * (1 + eps), raises ValueError before the threshold grid is
    built (with eps <= 0 or an infinite upper end its loop never ends)."""
    args = dict(eps=0.5, d_min=0.1, d_max=10.0) | kwargs
    with pytest.raises(ValueError, match="must be finite"):
        SFDM2(2, np.array([1, 1]), **args)


@pytest.mark.parametrize("quotas", [[-1, 3], [2.7, 2]])
def test_sfdm2_rejects_negative_or_fractional_quotas(quotas):
    """The stream's quotas are checked as the offline entry points' are,
    not cut to integers."""
    with pytest.raises(ValueError, match="quotas must be non-negative integers"):
        SFDM2(2, np.array(quotas), eps=0.5, d_min=0.1, d_max=10.0)


def test_streammfd_solution_before_any_insert():
    """An empty synopsis gives an empty answer that misses every quota."""
    res = StreamMFD(2, 2, 5).solution(np.array([1, 1]))
    assert len(res.indices) == 0
    assert res.missed.tolist() == [1, 1]
    assert res.extras["synopsis_points"].shape == (0, 2)


def test_sfdm2_solution_with_an_empty_threshold_grid():
    """d_min above d_max leaves SFDM-2 no threshold: the answer is empty,
    its points are a (0, d) array and it misses every quota."""
    algo = SFDM2(3, np.array([1, 1]), eps=0.5, d_min=5.0, d_max=1.0)
    feed(algo, np.zeros((10, 3)), np.arange(10) % 2)
    res = algo.solution()
    assert res.extras["n_thresholds"] == 0
    assert len(res.indices) == 0 and res.indices.dtype == np.int64
    assert res.colors.dtype == np.int64 and len(res.colors) == 0
    assert res.missed.tolist() == [1, 1]
    assert res.extras["points"].shape == (0, 3)


def _sfdm2_balanced(algo):
    """Reference: SFDM-2's post-processing with its balancing as a
    point-by-point loop. Returns the chosen points and colors."""
    best_sel, best_colors, best_cover = None, None, -1
    for t in range(len(algo.mus) - 1, -1, -1):
        mu = algo.mus[t]
        sel_pts, sel_colors = [], []
        used = np.zeros(algo.m, dtype=np.int64)
        for p, c in zip(algo.glob[t], algo.glob_colors[t]):
            if used[c] < algo.quotas[c]:
                sel_pts.append(p)
                sel_colors.append(c)
                used[c] += 1
        for j in range(algo.m):
            if used[j] >= algo.quotas[j]:
                continue
            for p in algo.per_color[t][j]:
                if used[j] >= algo.quotas[j]:
                    break
                if sel_pts and dists_to_point(np.array(sel_pts), p).min() < mu / 3.0:
                    continue
                sel_pts.append(p)
                sel_colors.append(j)
                used[j] += 1
        cover = int(np.minimum(used, algo.quotas).sum())
        if cover > best_cover:
            best_cover = cover
            best_sel, best_colors = list(sel_pts), list(sel_colors)
        if np.all(used >= algo.quotas):
            break
    pts = np.array(best_sel or [], dtype=np.float64).reshape(-1, algo.d)
    return pts, np.array(best_colors or [], dtype=np.int64)


@pytest.mark.parametrize("seed", range(4))
def test_sfdm2_solution_matches_reference_loop(seed):
    """Integer coordinates, duplicate rows and a rare color, so that the
    color-blind buffers fall short and the balancing runs, with distances
    equal to mu/3 (mu = 3, 6, 12, 24): after every 100 arrivals,
    solution() gives the reference loop's points and colors exactly."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-6, 7, size=(600, 2)).astype(np.float64)
    X[rng.integers(0, 600, 150)] = X[rng.integers(0, 600, 150)]
    colors = rng.choice(3, size=600, p=[0.8, 0.15, 0.05])
    algo = SFDM2(2, np.array([2, 3, 3]), eps=1.0, d_min=3.0, d_max=12.0)
    for a in range(0, 600, 100):
        feed(algo, X[a:a + 100], colors[a:a + 100])
        res = algo.solution()
        pts, cols = _sfdm2_balanced(algo)
        assert res.extras["points"].tobytes() == pts.tobytes()
        assert res.colors.tolist() == cols.tolist()


def test_streammfd_synopsis_shortfall_reported_against_requested_quotas():
    """A synopsis holding fewer than k_0 points of color 0 cannot meet k_0:
    the shortfall is a miss, and extras['held'] shows it."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20_000, 2)) * 5.0
    colors = (rng.random(20_000) < 0.5).astype(np.int64)
    sm = StreamMFD(2, 2, per_color_k=50)
    for i in range(len(X)):
        sm.insert(X[i], int(colors[i]))
    res = sm.solution(np.array([45, 5]), seed=0)
    held = res.extras["held"]
    assert held.tolist() == [len(inst.C) for inst in sm.instances]
    assert held[0] < 45
    assert res.missed[0] == 45 - np.sum(res.colors == 0) > 0
