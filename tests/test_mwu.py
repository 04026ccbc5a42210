"""MWU Oracle / Update / Round over both neighborhood kinds, vs
brute-force references."""
import itertools
import tracemalloc

import numpy as np
import pytest

from repro.core import mwu
from repro.core.exact import ball_matrix, fuzzy_ball_members
from repro.core.geometry import diversity, pairwise_distances
from repro.core.kdtree import KDTree


def _instance(n=40, d=2, m=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * 3.0
    colors = rng.integers(0, m, size=n)
    # Ensure every color is present.
    colors[:m] = np.arange(m)
    return X, colors


def _problem(X, colors, quotas, gamma, eps, kind):
    """An LP2 instance with exact-ball ("dense") or tree-cover ("tree")
    neighborhoods."""
    tree = KDTree(X) if kind == "tree" else None
    return mwu.MWUProblem(X, colors, quotas, gamma, eps, tree)


def _reference_matrix(prob):
    """A[l, i] = 1 iff i in S^eps_l, materialized without the incidence:
    the exact ball matrix, or the tree's own fuzzy-ball members."""
    if prob.tree is None:
        return ball_matrix(prob.X, prob.radius).astype(float)
    n = len(prob.X)
    A = np.zeros((n, n))
    for ell in range(n):
        A[ell, fuzzy_ball_members(prob.tree, prob.X[ell], prob.radius, prob.eps)] = 1.0
    return A


def _oracle_xbar(inc, h, colors, quotas):
    """The Oracle's selection as a dense 0/1 vector x̄ (None if infeasible)."""
    sel = mwu._oracle(inc, h, mwu._color_groups(colors, quotas))
    if sel is None:
        return None
    xbar = np.zeros(len(h))
    xbar[sel] = 1.0
    return xbar


def _reference_solve(prob, g):
    """The MWU loop with a dense x̄: per-color index lists, ``argpartition``
    of ``w[idx]``, and Update by two ``bincount`` passes over every pair.
    It stops at the first t in 1, 2, 4, ... whose summed rows are at most
    t (1 + eps/2), else at T. Returns (x̂, t), or None."""
    inc = prob.incidence
    n, k = len(prob.X), int(prob.quotas.sum())
    T = max(1, int(np.ceil(g * int(np.ceil(prob.eps**-2 * k * np.log(max(n, 2)))))))
    by_color = [np.where(prob.colors == j)[0] for j in range(len(prob.quotas))]
    h = np.full(n, 1.0 / n)
    xhat = np.zeros(n)
    mass = np.zeros(n)
    for t in range(1, T + 1):
        per_node = np.bincount(inc.cover_node, weights=h[inc.cover_pt], minlength=inc.n_nodes)
        w = np.bincount(inc.member_pt, weights=per_node[inc.member_node], minlength=n)
        sel = []
        for j, kj in enumerate(prob.quotas):
            if kj == 0:
                continue
            idx = by_color[j]
            if len(idx) < kj:
                return None
            sel.append(idx[np.argpartition(w[idx], kj - 1)[:kj]])
        sel = np.concatenate(sel)
        if w[sel].sum() > 1.0 + 1e-12:
            return None
        xbar = np.zeros(n)
        xbar[sel] = 1.0
        xhat += xbar
        per_node = np.bincount(inc.member_node, weights=xbar[inc.member_pt], minlength=inc.n_nodes)
        rows = np.bincount(inc.cover_pt, weights=per_node[inc.cover_node], minlength=n)
        mass += rows
        if bin(t).count("1") == 1 and mass.max() <= t * (1.0 + prob.eps / 2.0):
            break
        h *= 1.0 + prob.eps / 4.0 * (rows - 1.0) / k
        h /= h.sum()
    return xhat / t, t


@pytest.mark.parametrize("kind", ["dense", "tree"])
@pytest.mark.parametrize(
    "n, gamma, gathers, stop",
    [(40, 2.0, False, 1), (600, 3.0, True, 1), (100, 9.25, False, 2), (600, 14.0, True, 32), (600, 60.0, True, None)],
    ids=["rows", "gather", "rows-stop-2", "gather-to-T", "infeasible"],
)
def test_solve_bit_identical_to_dense_xbar_loop(kind, n, gamma, gathers, stop):
    """x̂ equals the dense-x̄ reference loop exactly, on both Update reads
    (small incidences read every pair; large ones gather from the
    selection) and with a zero-quota color, whether MWU stops at the first
    checkpoint, at a later one, or at T = 32 with no checkpoint passing."""
    X, colors = _instance(n=n, seed=4)
    quotas = np.array([3, 0, 2])
    prob = _problem(X, colors, quotas, gamma=gamma, eps=1.0, kind=kind)
    assert prob.incidence.gathers(int(quotas.sum())) == gathers
    got, want = mwu.solve(prob, g=1.0), _reference_solve(prob, g=1.0)
    assert (got is None) == (want is None) == (stop is None)
    if stop is not None:
        assert np.array_equal(got.xhat, want[0])
        assert got.iterations == want[1] == stop
        assert got.violation == pytest.approx(mwu.lp2_violation(prob, got.xhat), abs=1e-12)
        assert (got.violation <= 0.5) == (stop < mwu.iterations(n, 5, 1.0, 1.0))


@pytest.mark.parametrize("kind", ["dense", "tree"])
@pytest.mark.parametrize("n", [40, 600])
def test_selected_rows_equal_rows(kind, n):
    """The gathered A x̄ of a selection equals ``Incidence.rows`` of its 0/1
    vector exactly."""
    X, colors = _instance(n=n, seed=5)
    inc = _problem(X, colors, np.array([1, 1, 1]), gamma=3.0, eps=0.5, kind=kind).incidence
    rng = np.random.default_rng(n)
    for k in (1, 7, n // 4):
        sel = rng.choice(n, size=k, replace=False)
        xbar = np.zeros(n)
        xbar[sel] = 1.0
        assert np.array_equal(inc.selected_rows(sel), inc.rows(xbar))


@pytest.mark.parametrize("kind", ["dense", "tree"])
@pytest.mark.parametrize("seed", range(3))
def test_incidence_matches_neighborhood_matrix(kind, seed):
    """coeffs(h) = A^T h and rows(x) = A x against the materialized A (the
    tree's A is not symmetric, so both directions are checked)."""
    X, colors = _instance(n=30, seed=seed)
    prob = _problem(X, colors, np.array([1, 1, 1]), gamma=2.5, eps=0.5, kind=kind)
    A = _reference_matrix(prob)
    assert kind == "dense" or (A != A.T).any()
    rng = np.random.default_rng(seed)
    h, x = rng.random(len(X)), rng.random(len(X))
    np.testing.assert_allclose(prob.incidence.coeffs(h), A.T @ h, atol=1e-12)
    np.testing.assert_allclose(prob.incidence.rows(x), A @ x, atol=1e-12)
    # The per-point node lists Round reads: covers(i) spans S^eps_i, and
    # members(i) are exactly the nodes whose points include i.
    under = prob.tree.points_under if kind == "tree" else (lambda u: np.array([u]))
    n_nodes = prob.incidence.n_nodes
    for i in range(len(X)):
        covered = np.concatenate([under(u) for u in prob.incidence.covers(i)])
        assert sorted(covered.tolist()) == np.flatnonzero(A[i]).tolist()
        holding = [u for u in range(n_nodes) if i in under(u)]
        assert sorted(prob.incidence.members(i).tolist()) == holding


def test_dense_incidence_builds_without_an_n_by_n_matrix():
    """The exact-ball build's peak traced memory is far below one n×n
    float64 matrix (n^2 * 8 bytes = 72 MB at n = 3,000)."""
    n = 3000
    X, colors = _instance(n=n, d=6, seed=0)
    prob = mwu.MWUProblem(X, colors, np.array([1, 1, 1]), gamma=12.0, eps=1.0)
    tracemalloc.start()
    try:
        inc = prob.incidence
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inc.cover_pt) > 2 * n  # not just the diagonal
    full = n * n * 8  # bytes of one n×n float64 matrix
    assert peak < full / 8


@pytest.mark.parametrize("seed", range(4))
def test_oracle_dense_matches_bruteforce_minimum(seed):
    """The oracle's selection minimizes h^T A x over P (k_j smallest
    coefficients per color)."""
    X, colors = _instance(seed=seed)
    quotas = np.array([2, 3, 1])
    prob = mwu.MWUProblem(X, colors, quotas, gamma=2.0, eps=1.0)
    A = ball_matrix(X, prob.radius).astype(float)
    rng = np.random.default_rng(seed)
    h = rng.random(len(X))
    h /= h.sum()
    xbar = _oracle_xbar(prob.incidence, h, colors, quotas)
    w = A @ h
    if xbar is None:
        # Then even the minimal selection exceeds 1.
        best = sum(np.sort(w[colors == j])[: quotas[j]].sum() for j in range(3))
        assert best > 1.0
    else:
        got = w @ xbar
        best = sum(np.sort(w[colors == j])[: quotas[j]].sum() for j in range(3))
        assert got == pytest.approx(best, abs=1e-9)
        assert got <= 1.0 + 1e-9
        for j in range(3):
            assert xbar[colors == j].sum() == quotas[j]


@pytest.mark.parametrize("seed", range(3))
def test_tree_oracle_coefficients_match_fuzzy_neighborhoods(seed):
    """Oracle coefficients over tree covers equal sum of h over fuzzy-ball
    membership — cross-checked by materializing S^eps via the same tree."""
    X, colors = _instance(n=30, seed=seed)
    quotas = np.array([1, 1, 1])
    prob = _problem(X, colors, quotas, gamma=2.5, eps=0.5, kind="tree")
    rng = np.random.default_rng(seed)
    h = rng.random(len(X))
    h /= h.sum()
    w_ref = _reference_matrix(prob).T @ h
    xbar = _oracle_xbar(prob.incidence, h, colors, quotas)
    # Recompute the oracle on reference coefficients.
    sel_ref = []
    for j in range(3):
        idx = np.where(colors == j)[0]
        sel_ref.append(idx[np.argsort(w_ref[idx])[:1]])
    best = w_ref[np.concatenate(sel_ref)].sum()
    if xbar is None:
        assert best > 1.0
    else:
        assert w_ref @ xbar == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("backend", ["dense", "tree"])
@pytest.mark.parametrize("seed", range(3))
def test_solve_satisfies_trivial_constraints(backend, seed):
    X, colors = _instance(seed=seed)
    quotas = np.array([2, 2, 2])
    prob = _problem(X, colors, quotas, gamma=1.0, eps=1.0, kind=backend)
    xhat = mwu.solve(prob, g=1.0).xhat
    # Constraints (10) and (12) hold exactly (P is satisfied by every oracle).
    for j in range(3):
        assert xhat[colors == j].sum() == pytest.approx(quotas[j], abs=1e-9)
    assert np.all(xhat >= 0) and np.all(xhat <= 1 + 1e-12)


def test_solve_full_T_bounds_lp2_violation():
    """With g=1 the averaged solution satisfies Constraints (11) within
    additive eps after the full T (Theorem 2.2), and within eps/2 when MWU
    stops early."""
    X, colors = _instance(n=30, seed=1)
    eps = 0.5
    # Large pairwise distances: gamma 0.5 is clearly feasible, and MWU stops
    # at t = 1; at gamma 5.0 with quotas 3 no checkpoint passes.
    for quotas, gamma, early in (([1, 1, 1], 0.5, True), ([3, 3, 3], 5.0, False)):
        prob = mwu.MWUProblem(X, colors, np.array(quotas), gamma=gamma, eps=eps)
        sol = mwu.solve(prob, g=1.0)
        T = mwu.iterations(len(X), sum(quotas), eps, 1.0)
        assert (sol.iterations < T) == early
        assert mwu.lp2_violation(prob, sol.xhat) <= (eps / 2 if early else eps) + 1e-9
        # Same value as the brute-force ball matrix gives.
        A = ball_matrix(X, prob.radius).astype(float)
        assert mwu.lp2_violation(prob, sol.xhat) == pytest.approx((A @ sol.xhat).max() - 1.0, abs=1e-12)


@pytest.mark.parametrize("solver", ["dense", "tree", "hp", "coreset"])
def test_early_stop_is_an_lp2_certificate(solver, monkeypatch):
    """Whenever MWU returns before T, inside ``mfd`` (dense, tree),
    ``mfd_hp`` and ``solve_coreset`` on a seeded grid, its x̂ lies in P
    (sum k_j per color j, 0 <= x̂ <= 1) and meets Constraints (11) within
    eps/2, as :func:`mwu.lp2_violation` measures it apart from MWU."""
    from repro.core.coreset import coreset_numpy
    from repro.core.hp import mfd_hp
    from repro.core.mfd import mfd, solve_coreset

    calls, solve = [], mwu.solve

    def recording(prob, **kw):
        calls.append((prob, kw["g"], solve(prob, **kw)))
        return calls[-1][2]

    monkeypatch.setattr(mwu, "solve", recording)
    for (n, k), seed, eps in itertools.product([(120, 9), (400, 60)], range(3), [1.0, 0.5]):
        X, colors = _instance(n=n, d=2 + seed, seed=seed)
        quotas = np.full(3, k // 3)
        if solver == "hp":
            mfd_hp(X, colors, quotas, eps=eps, seed=seed)
        elif solver == "coreset":
            sel, _ = coreset_numpy(X, colors, k)
            solve_coreset(X[sel], colors[sel], quotas, eps=eps, seed=seed)
        else:
            mfd(X, colors, quotas, eps=eps, backend=solver, seed=seed)
    early = [(prob, sol) for prob, g, sol in calls if sol is not None
             and sol.iterations < mwu.iterations(len(prob.X), int(prob.quotas.sum()), prob.eps, g)]
    assert early
    for prob, sol in early:
        xhat = sol.xhat
        assert mwu.lp2_violation(prob, xhat) <= prob.eps / 2 + 1e-12
        sums = np.bincount(prob.colors, weights=xhat, minlength=len(prob.quotas))
        np.testing.assert_allclose(sums, prob.quotas, atol=1e-9)
        assert np.all((xhat >= 0) & (xhat <= 1))


def test_infeasible_when_gamma_huge():
    """For gamma far above the point spread, every fair selection packs k
    points into one ball, so the oracle must report infeasibility."""
    X, colors = _instance(n=25, seed=2)
    quotas = np.array([3, 3, 3])
    span = float(pairwise_distances(X).max())
    for kind in ("dense", "tree"):
        prob = _problem(X, colors, quotas, gamma=10 * span, eps=0.5, kind=kind)
        assert mwu.solve(prob, g=0.3) is None


@pytest.mark.parametrize("backend", ["dense", "tree"])
@pytest.mark.parametrize("seed", range(3))
def test_round_separation(backend, seed):
    """Rounded sets respect the LP2 radius: min pairwise distance > r
    (dense, exact balls) or > r given fuzzy covers (tree: >= r holds
    because conflicts only widen)."""
    X, colors = _instance(n=50, seed=seed)
    quotas = np.array([2, 2, 2])
    xhat = mwu.solve(mwu.MWUProblem(X, colors, quotas, gamma=1.2, eps=1.0), g=0.5).xhat
    prob = _problem(X, colors, quotas, gamma=1.2, eps=1.0, kind=backend)
    sel = mwu.round_solution(prob, xhat, np.random.default_rng(seed))
    assert len(sel) == len(set(sel.tolist()))
    if len(sel) >= 2:
        assert diversity(X[sel]) > prob.radius - 1e-9
    # Only positive-weight points can be selected.
    assert np.all(xhat[sel] > 0)


@pytest.mark.parametrize("kind", ["dense", "tree"])
def test_round_fairness_in_expectation(kind):
    """Monte-Carlo check of Lemma 3.1: E[|S(c_j)|] >= k_j / (1 + eps)."""
    X, colors = _instance(n=40, seed=3)
    quotas = np.array([2, 2, 2])
    eps = 1.0
    prob = _problem(X, colors, quotas, gamma=1.0, eps=eps, kind=kind)
    xhat = mwu.solve(prob, g=1.0).xhat
    rng = np.random.default_rng(0)
    trials = 300
    got = np.zeros(3)
    for _ in range(trials):
        sel = mwu.round_solution(prob, xhat, rng)
        for j in range(3):
            got[j] += (colors[sel] == j).sum()
    got /= trials
    # Allow Monte-Carlo slack of 3 sigma ~ 0.25.
    assert np.all(got >= quotas / (1 + eps) - 0.3), got
