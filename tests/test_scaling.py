"""Table-2 shape checks: space/update complexities that distinguish the
paper's algorithms from the baselines, validated empirically."""
import numpy as np
import pytest

from repro.baselines.sfdm2 import SFDM2
from repro.core.coreset import coreset_numpy
from repro.core.geometry import equal_quotas
from repro.core.streaming import StreamMFD


def _stream(n, d, m, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * spread
    colors = rng.integers(0, m, size=n)
    colors[:m] = np.arange(m)
    return X, colors


@pytest.mark.parametrize("n", [500, 2000, 8000])
def test_coreset_size_independent_of_n(n):
    """|G| = O(mk) regardless of n (Theorem 4.2)."""
    X, colors = _stream(n, 2, 3, 0)
    sel, _ = coreset_numpy(X, colors, 10)
    assert len(sel) <= 3 * 10


@pytest.mark.parametrize("spread", [1.0, 1e3, 1e6])
def test_streammfd_storage_independent_of_spread(spread):
    """StreamMFD stores O(mk) items whatever the spread Delta (the paper's
    headline vs SFDM-2's O(mk log Delta))."""
    X, colors = _stream(1000, 2, 2, 1, spread=spread)
    X[0] *= 0.0  # pin a tiny pairwise distance so Delta really grows
    sm = StreamMFD(2, 2, per_color_k=8)
    for i in range(len(X)):
        sm.insert(X[i], int(colors[i]))
    assert sm.stored_items() <= 2 * 8


def test_sfdm2_storage_grows_with_spread():
    """SFDM-2's synopsis grows ~log(Delta): widening [d_min, d_max] by
    10^3 must add threshold instances."""
    quotas = equal_quotas(6, 2)
    small = SFDM2(2, quotas, eps=0.5, d_min=1.0, d_max=10.0)
    large = SFDM2(2, quotas, eps=0.5, d_min=1e-3, d_max=1e4)
    assert len(large.mus) > 2 * len(small.mus)


def test_sfdm2_grid_density_vs_eps():
    """|M| = log_{1+eps} Delta: eps=0.15 grid is ~4-5x denser than 0.75."""
    quotas = equal_quotas(4, 2)
    dense = SFDM2(2, quotas, eps=0.15, d_min=0.01, d_max=100.0)
    sparse = SFDM2(2, quotas, eps=0.75, d_min=0.01, d_max=100.0)
    ratio = len(dense.mus) / len(sparse.mus)
    assert 2.5 <= ratio <= 8


@pytest.mark.parametrize("n", [200, 800])
def test_mwu_iteration_count_matches_theory(n, monkeypatch):
    """T = ceil(g * eps^-2 * k * ln n) caps MWU — the early-stopping
    contract. At gamma = 0.1 the balls are singletons, so the first Oracle
    output is already an LP2 certificate and MWU stops after one call; at
    gamma = 4.5 no checkpoint (t = 1, 2, 4, 8) passes and MWU runs all T."""
    from repro.core import mwu

    X, colors = _stream(n, 2, 2, 3)
    quotas = np.array([2, 2])
    # Count oracle calls by monkey-patching.
    calls = {"n": 0}
    orig = mwu._oracle

    def counting(*a, **k):
        calls["n"] += 1
        return orig(*a, **k)

    monkeypatch.setattr(mwu, "_oracle", counting)
    expect = int(np.ceil(0.3 * np.ceil(4 * np.log(n))))
    for gamma, iterations in ((0.1, 1), (4.5, expect)):
        calls["n"] = 0
        sol = mwu.solve(mwu.MWUProblem(X, colors, quotas, gamma=gamma, eps=1.0), g=0.3)
        assert calls["n"] == sol.iterations == iterations
    assert expect == mwu.iterations(n, 4, 1.0, 0.3) > 4


def test_mfd_spark_wrapper(spark):
    from repro.core.coreset import to_spark_points
    from repro.core.mfd import mfd_spark

    X, colors = _stream(800, 2, 3, 5, spread=4.0)
    df = to_spark_points(spark, X, colors, n_partitions=4)
    res = mfd_spark(df, np.array([2, 2, 2]), seed=0)
    assert res.diversity > 0
    assert res.extras["coreset_size"] <= 3 * 6
    assert res.extras["points"].shape[1] == 2
    timings = res.extras["timings"]
    # The Spark stages' timings join the solve's own (certify_and_round's).
    assert set(timings) == {"coreset_s", "solve_s", "gamma_bound_s", "incidence_s", "mwu_s", "round_s"}
    assert all(t > 0 for t in timings.values())
