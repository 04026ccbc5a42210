"""Baselines: FairFlow, FairGreedyFlow, FMMD-S — fairness + diversity shape."""
import numpy as np
import pytest

from repro.core import exact
from repro.core.geometry import equal_quotas, greedy_net
from repro.baselines.fairflow import fairflow
from repro.baselines.fairgreedyflow import fairgreedyflow
from repro.baselines.fmmds import FMMDSBudgetExceeded, fmmds


def _instance(n, d, m, seed, spread=4.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * spread
    colors = rng.integers(0, m, size=n)
    colors[:m] = np.arange(m)
    return X, colors


@pytest.mark.parametrize("seed", range(4))
def test_greedy_net_properties(seed):
    X, _ = _instance(100, 2, 2, seed)
    centers = greedy_net(X, 2.0)
    C = X[centers]
    from repro.core.geometry import pairwise_distances

    D = pairwise_distances(C)
    np.fill_diagonal(D, np.inf)
    assert D.min() >= 2.0  # centers pairwise separated
    cover = pairwise_distances(X, C).min(axis=1)
    assert cover.max() < 2.0  # every point within sep of a center


@pytest.mark.parametrize("algo", [fairflow, fairgreedyflow])
@pytest.mark.parametrize("m,k,seed", [(2, 4, 0), (3, 6, 1), (4, 8, 2)])
def test_flow_baselines_satisfy_fairness(algo, m, k, seed):
    X, colors = _instance(150, 2, m, seed)
    quotas = equal_quotas(k, m)
    res = algo(X, colors, quotas)
    assert res.missed.sum() == 0, f"{algo.__name__} missed quotas"
    assert res.diversity > 0
    # No duplicate selections.
    assert len(set(res.indices.tolist())) == len(res.indices)


@pytest.mark.parametrize("seed", range(3))
def test_fmmds_satisfies_fairness_and_beats_flow_div(seed):
    """FMMD-S (exact search) should match or beat the flow heuristics on
    diversity — the paper's consistent finding."""
    X, colors = _instance(120, 2, 2, seed)
    quotas = np.array([3, 3])
    r_fm = fmmds(X, colors, quotas)
    r_ff = fairflow(X, colors, quotas)
    assert r_fm.missed.sum() == 0
    assert r_fm.diversity >= r_ff.diversity - 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_fmmds_near_optimal_on_tiny(seed):
    """On instances where the candidate set is the whole input, FMMD-S's
    exact search returns the true optimum."""
    X, colors = _instance(12, 2, 2, seed)
    quotas = np.array([2, 1])
    gstar, _ = exact.fairdiv_optimum(X, colors, quotas)
    res = fmmds(X, colors, quotas)
    # Candidate set may omit points; allow a 2x slack from Gonzalez pruning.
    assert res.diversity >= gstar / 2 - 1e-9
    assert res.missed.sum() == 0


def test_fmmds_budget_exceeded_raises():
    X, colors = _instance(200, 2, 4, 0)
    quotas = equal_quotas(16, 4)
    with pytest.raises(FMMDSBudgetExceeded):
        fmmds(X, colors, quotas, node_budget=50)


def test_fairflow_faster_shape_than_fgf():
    """FairFlow does one clustering; FairGreedyFlow scans gammas — the
    cost ordering from the paper (FairFlow fastest) must hold."""
    import time

    X, colors = _instance(2000, 2, 3, 1)
    quotas = equal_quotas(9, 3)
    t0 = time.perf_counter()
    fairflow(X, colors, quotas)
    t_ff = time.perf_counter() - t0
    t0 = time.perf_counter()
    fairgreedyflow(X, colors, quotas)
    t_fgf = time.perf_counter() - t0
    assert t_ff <= t_fgf * 3  # allow noise; FairFlow should not be slower


@pytest.mark.parametrize("algo", [fairflow, fairgreedyflow, fmmds])
def test_baselines_handle_zero_quota(algo):
    X, colors = _instance(60, 2, 3, 5)
    quotas = np.array([2, 0, 2])
    res = algo(X, colors, quotas)
    assert res.missed[1] == 0


def _count_greedy_nets(monkeypatch):
    import repro.baselines.fairflow as ff

    calls = []

    def counted(X, sep):
        calls.append(sep)
        return greedy_net(X, sep)

    monkeypatch.setattr(ff, "greedy_net", counted)
    return calls


def test_fairgreedyflow_makes_no_guess_at_gamma_zero(monkeypatch):
    """200 points on 5 locations, k = 8: the upper bound is 0, so no guess
    can be certified and none is made; the answer is MFD's fallback, a fair
    set, which is optimal here (every fair set has diversity 0)."""
    calls = _count_greedy_nets(monkeypatch)
    rng = np.random.default_rng(0)
    X = (rng.normal(size=(5, 2)) * 3.0)[rng.integers(0, 5, size=200)]
    colors = rng.integers(0, 2, size=200)
    quotas = np.array([4, 4])
    res = fairgreedyflow(X, colors, quotas)
    assert calls == []
    assert res.missed.tolist() == [0, 0]
    want = np.concatenate([np.flatnonzero(colors == j)[:4] for j in range(2)])
    assert res.indices.tolist() == want.tolist()
    assert res.gamma == 0.0


@pytest.mark.parametrize("quotas", [[0, 0], [1, 0], [0, 1]])
def test_fairgreedyflow_k_below_two_makes_no_guess(monkeypatch, quotas):
    """As in MFD, k < 2 needs no gamma: k = 0 gives the empty set and
    k = 1 the first row of the needed color."""
    calls = _count_greedy_nets(monkeypatch)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 2)) * 100.0
    colors = rng.integers(0, 2, size=30)
    res = fairgreedyflow(X, colors, np.array(quotas))
    assert calls == []
    want = [int(np.flatnonzero(colors == j)[0]) for j in range(2) if quotas[j]]
    assert res.indices.tolist() == want
    assert res.missed.tolist() == [0, 0] and res.gamma == 0.0
