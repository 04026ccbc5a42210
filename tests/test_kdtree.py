"""KD-tree (BBD interface) invariants, cross-checked against brute force."""
import numpy as np
import pytest

from repro.core.exact import fuzzy_ball_members
from repro.core.kdtree import KDTree
from repro.core.qfairdiv import QFairDivIndex


def _rand(n, d, seed):
    return np.random.default_rng(seed).normal(size=(n, d))


@pytest.mark.parametrize("n,d,seed", [(1, 2, 0), (2, 2, 1), (17, 3, 2), (64, 2, 3), (100, 6, 4)])
def test_structure_invariants(n, d, seed):
    X = _rand(n, d, seed)
    t = KDTree(X)
    assert t.n_nodes == 2 * n - 1
    leaves = [u for u in range(t.n_nodes) if t.size[u] == 1]
    assert len(leaves) == n
    assert sorted(t.order[t.start[u]] for u in leaves) == list(range(n))
    assert all(t.point_leaf[t.order[t.start[u]]] == u for u in leaves)
    # Every point's leaf box is the point itself.
    for i in range(n):
        u = t.point_leaf[i]
        np.testing.assert_allclose(t.lo[u], X[i])
        np.testing.assert_allclose(t.hi[u], X[i])
    # Children partition the parent's point set.
    for u in range(t.n_nodes):
        if t.size[u] > 1:
            l, r = t.left[u], t.right[u]
            assert t.parent[l] == u and t.parent[r] == u
            assert t.size[u] == t.size[l] + t.size[r]
            assert sorted(t.points_under(u)) == sorted([*t.points_under(l), *t.points_under(r)])


def _reference_layout(X):
    """The tree layout, built by recursion: preorder node ids, tight boxes,
    a stable median split on the widest dimension (first on ties), and the
    right child's slice of ``order`` before the left child's."""
    n = len(X)
    a = {k: np.full(2 * n - 1, -1, dtype=np.int64)
         for k in ("start", "size", "left", "right", "parent")}
    a["lo"], a["hi"] = np.empty((2 * n - 1, X.shape[1])), np.empty((2 * n - 1, X.shape[1]))
    a["order"], a["point_leaf"] = np.arange(n), np.empty(n, dtype=np.int64)

    def build(node, start, size, parent):
        idx = a["order"][start : start + size]
        a["lo"][node], a["hi"][node] = X[idx].min(axis=0), X[idx].max(axis=0)
        a["start"][node], a["size"][node], a["parent"][node] = start, size, parent
        if size == 1:
            a["point_leaf"][idx[0]] = node
            return
        dim = int(np.argmax(a["hi"][node] - a["lo"][node]))
        srt = idx[np.argsort(X[idx, dim], kind="stable")]
        mid = size // 2
        idx[:] = np.concatenate([srt[mid:], srt[:mid]])
        a["left"][node], a["right"][node] = node + 1, node + 2 * mid
        build(node + 1, start + size - mid, mid, node)
        build(node + 2 * mid, start, size - mid, node)

    build(0, 0, n, -1)
    return a


@pytest.mark.parametrize("case", ["n1", "n2", "n3", "n80", "d1", "ties", "duplicates"])
def test_layout_matches_recursive_reference(case):
    """Every node array equals the recursive reference's. The layout fixes
    where QFairDiv starts each node's Gonzalez and the order in which MWU's
    Update sums a point's cover nodes."""
    rng = np.random.default_rng(11)
    X = {
        "n1": rng.normal(size=(1, 2)),
        "n2": rng.normal(size=(2, 2)),
        "n3": rng.normal(size=(3, 3)),
        "n80": rng.normal(size=(80, 2)),
        "d1": rng.normal(size=(41, 1)),
        "ties": np.round(rng.normal(size=(90, 2)), 0),
        "duplicates": np.vstack([np.tile([[1.0, 2.0]], (9, 1)), rng.normal(size=(12, 2)),
                                 np.tile([[0.5, -1.0]], (6, 1))]),
    }[case]
    t = KDTree(X)
    for name, want in _reference_layout(X).items():
        np.testing.assert_array_equal(getattr(t, name), want, err_msg=name)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
def test_canonical_cover_soundness(seed, eps):
    """One batched query over several points: for each, B(x,r) members
    covered exactly once and nothing beyond (1+eps)r; at eps = 0 the
    cover is exactly B(x,r)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 2))
    t = KDTree(X)
    Q = np.vstack([rng.normal(size=(4, 2)), X[:3]])
    r = float(rng.uniform(0.2, 1.5))
    pairs = t.canonical_nodes(Q, r, eps)
    assert pairs.shape[1] == 2 and np.all(np.diff(pairs[:, 0]) >= 0)
    for i, x in enumerate(Q):
        members = [t.points_under(u) for u in pairs[pairs[:, 0] == i, 1]]
        flat = np.concatenate(members) if members else np.empty(0, dtype=np.int64)
        # Disjointness: no point reported twice.
        assert len(flat) == len(set(flat.tolist()))
        dists = np.linalg.norm(X - x, axis=1)
        inside = set(np.where(dists <= r)[0].tolist())
        reported = set(flat.tolist())
        assert inside <= reported, "a point within r was not covered"
        far = set(np.where(dists > (1 + eps) * r + 1e-9)[0].tolist())
        assert not (reported & far), "a point beyond (1+eps)r was reported"
        if eps == 0.0:
            assert reported == inside


@pytest.mark.parametrize("seed", range(4))
def test_path_to_root(seed):
    X = _rand(33, 3, seed)
    t = KDTree(X)
    pts, nodes = t.leaf_paths()
    assert np.all(np.diff(pts) >= 0)
    for i in (0, 10, 32):
        path = nodes[pts == i].tolist()
        assert path[0] == t.point_leaf[i]
        assert path[-1] == 0
        for a, b in zip(path, path[1:]):
            assert t.parent[a] == b


@pytest.mark.parametrize("seed", range(4))
def test_subtree_sums_match_bruteforce(seed):
    """Summing point weights along the leaf→root paths gives each node's
    subtree sum (the P^T x that MWU's Update reads)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 2))
    w = rng.random(40)
    w[rng.random(40) < 0.3] = 0.0
    t = KDTree(X)
    pts, nodes = t.leaf_paths()
    s = np.bincount(nodes, weights=w[pts], minlength=t.n_nodes)
    for u in range(t.n_nodes):
        assert s[u] == pytest.approx(w[t.points_under(u)].sum(), abs=1e-9)


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_height_logarithmic(n):
    X = _rand(n, 2, 0)
    t = KDTree(X)
    depth = np.zeros(t.n_nodes, dtype=int)
    for u in range(1, t.n_nodes):
        depth[u] = depth[t.parent[u]] + 1
    assert depth.max() <= 2 * int(np.ceil(np.log2(n))) + 2


def test_fuzzy_ball_members_matches_nodes():
    X = _rand(50, 2, 7)
    t = KDTree(X)
    x = X[3]
    got = fuzzy_ball_members(t, x, 0.8, 0.5)
    nodes = t.canonical_nodes(x[None], 0.8, 0.5)[:, 1]
    assert got.tolist() == np.concatenate([t.points_under(u) for u in nodes]).tolist()
    dists = np.linalg.norm(X - x, axis=1)
    assert set(np.where(dists <= 0.8)[0].tolist()) <= set(got.tolist())
    assert np.all(dists[got] <= (1 + 0.5) * 0.8 + 1e-9)


def test_negative_fuzz_rejected():
    t = KDTree(_rand(10, 2, 0))
    with pytest.raises(ValueError):
        t.canonical_nodes(np.zeros((1, 2)), 1.0, -0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("build", ["kdtree", "qfairdiv"])
def test_non_finite_row_rejected(build, bad):
    """A NaN box is neither pruned nor accepted, so a walk over it would
    double its pairs at every level: construction raises instead (the
    tree is never queried here)."""
    X = _rand(40, 2, 0)
    X[7, 1] = bad
    with pytest.raises(ValueError):
        if build == "kdtree":
            KDTree(X)
        else:
            QFairDivIndex(X, np.arange(40) % 2)
