"""High-probability variant (Section 3.2): separation, fairness, diversity."""
import numpy as np
import pytest

from repro.core.geometry import pairwise_distances
from repro.core.hp import mfd_hp, transform_to_separated
from repro.core.mfd import mfd


def _instance(n, m, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2)) * 3.0
    colors = rng.integers(0, m, size=n)
    colors[:m] = np.arange(m)
    return X, colors


@pytest.mark.parametrize("seed", range(4))
def test_transform_preserves_color_mass_and_separates(seed):
    rng = np.random.default_rng(seed)
    X, colors = _instance(50, 3, seed)
    xhat = rng.random(50) * (rng.random(50) < 0.5)
    gamma, eps = 2.0, 0.5
    yhat = transform_to_separated(X, colors, xhat, gamma, eps)
    # Constraint (14): per-color mass preserved.
    for j in range(3):
        assert yhat[colors == j].sum() == pytest.approx(
            xhat[colors == j].sum(), abs=1e-9
        )
    # Constraint (17): positive same-color entries separated.
    r_sep = gamma / (3 * (1 + eps) ** 2)
    for j in range(3):
        idx = np.where((colors == j) & (yhat > 0))[0]
        if len(idx) >= 2:
            D = pairwise_distances(X[idx])
            np.fill_diagonal(D, np.inf)
            assert D.min() > r_sep - 1e-9



def _transform_reference(X, colors, xhat, gamma, eps):
    """Point-by-point greedy absorption, the transform's reference loop."""
    r_sep = gamma / (3.0 * (1.0 + eps) ** 2)
    yhat = np.zeros_like(xhat)
    for j in np.unique(colors):
        idx = np.where((colors == j) & (xhat > 0))[0]
        order = idx[np.argsort(-xhat[idx])]
        D = pairwise_distances(X[order])
        alive = [True] * len(order)
        for t in range(len(order)):
            if alive[t]:
                near = [u for u in range(len(order)) if alive[u] and D[t, u] <= r_sep]
                yhat[order[t]] = xhat[order[near]].sum()
                for u in near:
                    alive[u] = False
    return yhat


@pytest.mark.parametrize("seed", range(6))
def test_transform_matches_reference_loop(seed):
    rng = np.random.default_rng(seed)
    X, colors = _instance(60, 3, seed)
    xhat = rng.random(60) * (rng.random(60) < 0.6)
    gamma, eps = rng.uniform(0.5, 6.0), [0.25, 0.5, 1.0][seed % 3]
    want = _transform_reference(X, colors, xhat, gamma, eps)
    assert np.array_equal(transform_to_separated(X, colors, xhat, gamma, eps), want)


@pytest.mark.parametrize("seed", range(3))
def test_hp_diversity_bound(seed):
    X, colors = _instance(80, 3, seed)
    quotas = np.array([3, 3, 3])
    res = mfd_hp(X, colors, quotas, eps=1.0, g=0.5, seed=seed)
    # Theorem 3.3 shape: div >= gamma / (6 (1+eps)^3) (the reject radius).
    if len(res.indices) >= 2:
        assert res.diversity > res.extras["r_reject"] - 1e-9


def test_hp_meets_relaxed_quotas_usually():
    X, colors = _instance(120, 2, 5)
    quotas = np.array([4, 4])
    ok = 0
    for s in range(5):
        res = mfd_hp(X, colors, quotas, eps=1.0, g=0.5, delta=0.05, seed=s)
        got = np.array([(res.colors == j).sum() for j in range(2)])
        if np.all(got >= np.ceil(quotas / 4)):  # (1-eps/(1+eps))/(1+eps) with eps=1 -> k/4
            ok += 1
    assert ok >= 3


def test_hp_vs_expectation_variant_diversity_tradeoff():
    """HP variant trades diversity (1/6 vs 1/2 factor) for concentration;
    its certified radius must be below the expectation variant's."""
    X, colors = _instance(60, 2, 8)
    quotas = np.array([3, 3])
    exp_res = mfd(X, colors, quotas, seed=0)
    hp_res = mfd_hp(X, colors, quotas, seed=0)
    assert hp_res.extras["r_reject"] <= exp_res.gamma / (2 * (1 + 1.0)) + 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_hp_selection_is_maximal(seed, monkeypatch):
    """Algorithm 4 keeps sampling until nothing is left: every positive-y_hat
    point lies within r_reject of a point of each Round output (the answer
    is then cut to the quotas)."""
    from repro.core import mwu

    raw, round_solution = [], mwu.round_solution

    def recording(*args):
        raw.append(round_solution(*args))
        return raw[-1]

    monkeypatch.setattr(mwu, "round_solution", recording)
    X, colors = _instance(80, 3, seed)
    quotas = np.array([3, 3, 3])
    res = mfd_hp(X, colors, quotas, eps=1.0, g=0.5, seed=seed)
    prob = mwu.MWUProblem(X, colors, quotas, res.gamma, 1.0)
    yhat = transform_to_separated(X, colors, mwu.solve(prob, g=0.5).xhat, res.gamma, 1.0)
    assert raw
    for sel in raw:
        D = pairwise_distances(X[yhat > 0], X[sel])
        assert np.all(D.min(axis=1) <= res.extras["r_reject"] + 1e-9)
