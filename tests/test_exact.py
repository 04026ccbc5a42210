"""The one exact FairDiv search, :func:`repro.core.exact.fairdiv_optimum`,
against a brute-force subset enumeration."""
from itertools import combinations

import numpy as np
import pytest

from repro.baselines.fmmds import fmmds
from repro.core.exact import fairdiv_optimum
from repro.core.geometry import equal_quotas, pairwise_distances, satisfies_quotas
from repro.data.datasets import dataset_arrays


def _brute_force(D, colors, quotas):
    """Largest min pairwise distance in ``D`` over every size-k subset that
    meets the quotas, or None when no subset does (k >= 2)."""
    k, m = int(quotas.sum()), len(quotas)
    subs = np.array(list(combinations(range(len(D)), k)))
    counts = np.stack([(colors[subs] == j).sum(axis=1) for j in range(m)], axis=1)
    subs = subs[np.all(counts >= quotas, axis=1)]
    if not len(subs):
        return None
    a, b = np.triu_indices(k, 1)
    return float(D[subs[:, a], subs[:, b]].min(axis=1).max())


def _instance(seed):
    """n in 6..16, m in 1..3, quotas with k in 2..5 (zeros allowed), rows
    rounded to one decimal (tied distances) and some rows repeated; every
    sixth instance has only three distinct rows."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(6, 17)), int(rng.integers(1, 4))
    X = np.round(rng.normal(size=(n, 2)) * 2.0, 1)
    dup = rng.choice(n, size=int(rng.integers(0, 4)), replace=False)
    X[dup] = X[rng.integers(0, n, size=len(dup))]
    if seed % 6 == 5:
        X = X[rng.integers(0, 3, size=n)]
    colors = rng.integers(0, m, size=n)
    quotas = np.zeros(m, dtype=np.int64)
    while quotas.sum() < 2:
        quotas = rng.integers(0, 4, size=m)
        quotas[rng.random(m) < 0.3] = 0
        quotas = quotas if quotas.sum() <= 5 else np.zeros(m, dtype=np.int64)
    return X, colors, quotas


@pytest.mark.parametrize("seed", range(48))
def test_oracle_equals_brute_force(seed):
    X, colors, quotas = _instance(seed)
    D = pairwise_distances(X)
    want = _brute_force(D, colors, quotas)
    got = fairdiv_optimum(X, colors, quotas)
    if want is None:
        assert got is None
        return
    gamma, idx = got
    assert gamma == pytest.approx(want, rel=1e-12, abs=0.0)
    assert idx.dtype == np.int64 and len(set(idx.tolist())) == len(idx) == quotas.sum()
    assert satisfies_quotas(colors[idx], quotas)
    sub = D[np.ix_(idx, idx)]
    assert sub[np.triu_indices(len(idx), 1)].min() == gamma  # the set attains gamma


def test_oracle_grid_covers_its_cases():
    """The seeded grid holds duplicates, zero quotas, unmeetable quotas and
    optima of 0 (every fair set repeats a row)."""
    cases = [_instance(seed) for seed in range(48)]
    assert sum(len(np.unique(X, axis=0)) < len(X) for X, _, _ in cases) >= 5
    assert sum(bool(np.any(q == 0)) for _, _, q in cases) >= 5
    found = [fairdiv_optimum(X, c, q) for X, c, q in cases]
    assert sum(f is None for f in found) >= 1
    assert sum(f is not None and f[0] == 0.0 for f in found) >= 1


@pytest.mark.parametrize("quotas,want", [([0, 0], []), ([1, 0], [1]), ([0, 1], [0])])
def test_oracle_k_below_two(quotas, want):
    """With k < 2 there is no pair to keep apart: gamma 0 and the first row
    of the needed color."""
    X = np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 9.0]])
    gamma, idx = fairdiv_optimum(X, np.array([1, 0, 0]), np.array(quotas))
    assert gamma == 0.0 and idx.tolist() == want


@pytest.mark.parametrize("quotas", [[3, 3], [0, 1]])
def test_oracle_none_for_unmeetable_quotas(quotas):
    X = np.random.default_rng(0).normal(size=(10, 2))
    colors = np.array([0] * 8 + [1] * 2) if quotas == [3, 3] else np.zeros(10, dtype=np.int64)
    assert fairdiv_optimum(X, colors, np.array(quotas)) is None


def test_oracle_on_a_dataset_subset_of_sixty_rows():
    """n = 60, beyond any subset enumeration: a census subset at k = 10 is
    solved within a small node budget, the set meets the quotas and attains
    gamma, and no FMMD-S candidate set does better."""
    X, colors, meta = dataset_arrays("census", scale=0.02, seed=0)
    X, colors = X[:60], colors[:60]
    quotas = equal_quotas(10, meta.m)
    gamma, idx = fairdiv_optimum(X, colors, quotas, node_budget=50_000)
    assert satisfies_quotas(colors[idx], quotas)
    D = pairwise_distances(X)
    assert D[np.ix_(idx, idx)][np.triu_indices(len(idx), 1)].min() == gamma > 0
    assert fmmds(X, colors, quotas).gamma <= gamma
