"""Gonzalez k-center: approximation guarantees vs brute-force optimum."""
from itertools import combinations

import numpy as np
import pytest

from repro.core.geometry import dists_to_point, diversity, pairwise_distances
from repro.core.exact import gonzalez_radius
from repro.core.gonzalez import gonzalez, gonzalez_order
from repro.data.datasets import DATASET_NAMES, dataset_arrays


def _rand(n, d, seed):
    return np.random.default_rng(seed).normal(size=(n, d))


def _kcenter_optimum(X, k):
    """Exact k-center radius by enumerating all size-k center subsets."""
    D = pairwise_distances(X)
    return min(float(D[:, list(sub)].min(axis=1).max()) for sub in combinations(range(len(X)), k))


@pytest.mark.parametrize("n,k,seed", [(10, 2, 0), (12, 3, 1), (14, 4, 2), (9, 5, 3)])
def test_two_approximation_of_kcenter(n, k, seed):
    X = _rand(n, 2, seed)
    idx = gonzalez(X, k)
    opt = _kcenter_optimum(X, k)
    assert gonzalez_radius(X, idx) <= 2 * opt + 1e-9


@pytest.mark.parametrize("n,k,seed", [(30, 5, 0), (50, 8, 1), (100, 10, 2)])
def test_centers_are_distinct_and_valid(n, k, seed):
    X = _rand(n, 3, seed)
    idx = gonzalez(X, k)
    assert len(idx) == k
    assert len(set(idx.tolist())) == k
    assert idx.min() >= 0 and idx.max() < n


@pytest.mark.parametrize("seed", range(3))
def test_duplicate_rows_never_repicked(seed):
    """With fewer distinct points than k, Gonzalez and the per-color
    coreset still return k distinct rows (the duplicates at radius 0)."""
    from repro.core.coreset import coreset_numpy

    rng = np.random.default_rng(seed)
    X = rng.normal(size=(4, 2))[rng.integers(0, 4, size=30)]
    colors = np.arange(30) % 2
    order, radii = gonzalez_order(X, 12)
    assert len(set(order.tolist())) == 12
    assert np.all(radii[len(np.unique(X, axis=0)):] == 0.0)
    sel, _ = coreset_numpy(X, colors, 10)
    assert len(sel) == 20 and len(set(sel.tolist())) == 20
    np.testing.assert_array_equal(
        gonzalez_order(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]), 3)[0], [0, 2, 1]
    )


def _gonzalez_order_rowmajor(X, k):
    """Reference: the traversal measured with the row-major
    ``dists_to_point``, one row sum per point."""
    k = min(k, len(X))
    order, radii = np.zeros(k, dtype=np.int64), np.full(k, np.inf)
    mind = dists_to_point(X, X[0])
    mind[0] = -np.inf
    for t in range(1, k):
        nxt = int(np.argmax(mind))
        order[t], radii[t] = nxt, mind[nxt]
        np.minimum(mind, dists_to_point(X, X[nxt]), out=mind)
        mind[nxt] = -np.inf
    return order, radii


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_order_and_radii_bitwise_equal_rowmajor_reference(name):
    """On every dataset (d = 2, 6 and 8), with and without duplicate rows,
    at k = 20 and 100: the same order, and the same radii, bit for bit
    below d = 8 (where numpy's row sum adds coordinates in order, as the
    coordinate-major kernel does) and within rounding from it up."""
    paper_n = dataset_arrays(name, scale=0.0)[2].paper_n
    X, _, _ = dataset_arrays(name, scale=1500 / paper_n)
    dup = np.round(X, 0)
    dup[::3] = dup[5]
    for Y in (X, dup):
        for k in (20, 100):
            got, want = gonzalez_order(Y, k), _gonzalez_order_rowmajor(Y, k)
            np.testing.assert_array_equal(got[0], want[0])
            if Y.shape[1] < 8:
                assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))
            else:
                assert np.allclose(got[1], want[1], rtol=1e-15, atol=0)


@pytest.mark.parametrize("d", [2, 8, 9])
def test_order_does_not_depend_on_memory_layout(d):
    X = np.random.default_rng(d).normal(size=(300, d)) * 1e3
    for Y in (np.asfortranarray(X), X[:, ::-1][:, ::-1], np.repeat(X, 2, axis=1)[:, ::2]):
        for got, want in zip(gonzalez_order(Y, 40), gonzalez_order(X, 40)):
            np.testing.assert_array_equal(got, want)


def test_k_larger_than_n_truncates():
    X = _rand(4, 2, 0)
    assert len(gonzalez(X, 10)) == 4
    assert len(gonzalez(X, 0)) == 0


@pytest.mark.parametrize("n,k,seed", [(40, 6, 0), (60, 10, 1)])
def test_order_radii_non_increasing_and_prefix_property(n, k, seed):
    X = _rand(n, 2, seed)
    order, radii = gonzalez_order(X, k)
    assert np.all(np.diff(radii[1:]) <= 1e-12)
    # Prefix t is exactly gonzalez with k=t.
    for t in (2, k // 2, k):
        np.testing.assert_array_equal(order[:t], gonzalez(X, t))


@pytest.mark.parametrize("n,k,seed", [(12, 3, 0), (14, 4, 5)])
def test_maxmin_half_approximation(n, k, seed):
    """Gonzalez centers 1/2-approximate unfair max-min diversification
    (Tamir/Ravi et al.), which is what MFD's gamma upper bound relies on."""
    X = _rand(n, 2, seed)
    idx = gonzalez(X, k)
    # Brute force optimal diversity of any k-subset.
    best = max(diversity(X[list(s)]) for s in combinations(range(n), k))
    assert diversity(X[idx]) >= best / 2 - 1e-9
    # And it upper bounds nothing smaller: centers diversity <= best.
    assert diversity(X[idx]) <= best + 1e-9


@pytest.mark.parametrize("parts,k,seed", [(2, 4, 0), (4, 6, 1), (8, 5, 2)])
def test_merge_gonzalez_composability(parts, k, seed):
    """Two-round (partitioned) Gonzalez stays a constant-factor k-center
    solution — the property Theorem 4.2 needs from any 'Alg'. Round two is
    the coreset's driver-side merge, ``coreset_numpy`` over the union."""
    from repro.core.coreset import coreset_numpy

    X = _rand(200, 3, seed)
    chunks = np.array_split(X, parts)
    partials = np.concatenate([c[gonzalez(c, k)] for c in chunks])
    sel, _ = coreset_numpy(partials, np.zeros(len(partials), dtype=np.int64), k)
    merged = partials[sel]
    assert merged.shape == (k, 3)
    r_merged = pairwise_distances(X, merged).min(axis=1).max()
    r_serial = gonzalez_radius(X, gonzalez(X, k))
    # Composable bound: within a small constant factor of serial Gonzalez.
    assert r_merged <= 4 * r_serial + 1e-9
