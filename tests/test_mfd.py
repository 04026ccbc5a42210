"""End-to-end MFD: approximation vs brute-force optimum, fairness, the gamma search."""
import numpy as np
import pytest

from repro.core import exact
from repro.core.geometry import equal_quotas, missed_per_color
from repro.core.mfd import gamma_upper_bound, mfd


def _instance(n, d, m, seed, spread=3.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * spread
    colors = rng.integers(0, m, size=n)
    colors[:m] = np.arange(m)
    return X, colors


@pytest.mark.parametrize("seed", range(4))
def test_gamma_upper_bound_is_upper_bound(seed):
    X, colors = _instance(12, 2, 2, seed)
    quotas = np.array([2, 2])
    gstar, _ = exact.fairdiv_optimum(X, colors, quotas)
    assert gamma_upper_bound(X, int(quotas.sum())) >= gstar - 1e-9


@pytest.mark.parametrize("backend", ["dense", "tree"])
@pytest.mark.parametrize("seed", range(3))
def test_mfd_respects_certified_gamma(backend, seed):
    X, colors = _instance(60, 2, 3, seed)
    quotas = np.array([3, 3, 3])
    res = mfd(X, colors, quotas, backend=backend, seed=seed, g=0.5)
    assert res.gamma > 0
    # Lemma 3.1: realized diversity >= gamma / (2 (1+eps)); eps=1 default.
    assert res.diversity >= res.gamma / (2 * (1 + 1.0)) - 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_mfd_constant_approximation_on_tiny_instances(seed):
    """div(S) within the paper's 1/(2(1+eps)) factor (with schedule slack)
    of the exact optimum, checked by subset enumeration."""
    X, colors = _instance(12, 2, 2, seed)
    quotas = np.array([2, 1])
    gstar, _ = exact.fairdiv_optimum(X, colors, quotas)
    eps = 1.0
    # Average over rounding randomness.
    best = max(
        mfd(X, colors, quotas, eps=eps, g=1.0, seed=s).diversity
        for s in range(5)
    )
    # Guarantee: gamma_feasible >= (1-DECAY) * gamma* is not exact because of
    # early stopping; allow the combined factor with 25% schedule slack.
    assert best >= gstar / (2 * (1 + eps)) * 0.75 - 1e-9


@pytest.mark.parametrize("m,k", [(2, 4), (3, 6), (4, 8)])
def test_mfd_fairness_in_expectation(m, k):
    X, colors = _instance(80, 2, m, seed=7)
    quotas = equal_quotas(k, m)
    tot_missed = 0.0
    trials = 10
    for s in range(trials):
        res = mfd(X, colors, quotas, seed=s, g=0.5)
        tot_missed += res.missed.sum()
    # E[|S(c_j)|] >= k_j/(1+eps); empirically misses should be small.
    assert tot_missed / trials <= 0.2 * k + 1


def test_mfd_trim_keeps_fairness_and_improves_div():
    """certify_and_round cuts Round's raw output to the first k_j picks of
    each color j, in sampling order: the misses stay Round's, div(S) can
    only grow, and counters['raw_size'] is the size before the cut."""
    from repro.core import mwu
    from repro.core.geometry import diversity
    from repro.core.mfd import certify_and_round

    X, colors = _instance(100, 2, 3, seed=11)
    quotas = np.array([5, 5, 5])
    rng = np.random.default_rng(3)
    raw = []

    def rounding(prob, xhat):
        raw.append(mwu.round_solution(prob, xhat, rng))
        return raw[-1], {}

    res = certify_and_round(X, colors, quotas, rounding, eps=1.0, g=0.3)
    (sel,) = raw
    want, used = [], np.zeros(3, dtype=np.int64)
    for i in sel:
        if used[colors[i]] < quotas[colors[i]]:
            want.append(int(i))
            used[colors[i]] += 1
    assert len(sel) > len(want)  # Round overshoots here
    assert res.indices.tolist() == want
    assert res.extras["counters"]["raw_size"] == len(sel)
    assert res.diversity >= diversity(X[sel])
    np.testing.assert_array_equal(res.missed, missed_per_color(colors[sel], quotas))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("m,k", [(2, 2), (2, 6), (3, 12)])
@pytest.mark.parametrize("entry", ["dense", "tree", "hp", "coreset"])
def test_certified_gamma_within_upper_bound(entry, m, k, seed):
    """The one gamma schedule descends from gamma_upper_bound, a proven bound
    on any k-subset's diversity, so no certified gamma exceeds it."""
    from repro.core.gonzalez import coreset_numpy
    from repro.core.hp import mfd_hp
    from repro.core.mfd import solve_coreset

    X, colors = _instance(90, 2, m, seed)
    quotas = equal_quotas(k, m)
    if entry == "coreset":
        sel, cc = coreset_numpy(X, colors, k)
        X, res = X[sel], solve_coreset(X[sel], cc, quotas, seed=seed)
    elif entry == "hp":
        res = mfd_hp(X, colors, quotas, seed=seed)
    else:
        res = mfd(X, colors, quotas, backend=entry, seed=seed)
    assert 0 < res.gamma <= gamma_upper_bound(X, k)


def test_mfd_rejects_infeasible_quotas():
    X, colors = _instance(20, 2, 2, seed=0)
    with pytest.raises(ValueError):
        mfd(X, colors, np.array([50, 1]))


def test_mfd_zero_quota_color_ok():
    X, colors = _instance(30, 2, 3, seed=1)
    res = mfd(X, colors, np.array([2, 0, 2]), seed=0)
    assert res.missed[1] == 0


@pytest.mark.parametrize("g", [0.1, 0.3, 1.0])
def test_early_stopping_parameter_monotone_cost(g):
    """Smaller g runs fewer MWU iterations but still returns a solution
    with the same structural guarantees (micro-benchmark, Fig 3/4)."""
    X, colors = _instance(60, 2, 3, seed=9)
    quotas = np.array([2, 2, 2])
    res = mfd(X, colors, quotas, seed=0, g=g)
    assert res.diversity >= res.gamma / 4 - 1e-9
    assert len(res.indices) >= 1


@pytest.mark.parametrize("solver", ["dense", "tree", "hp"])
def test_fewer_distinct_locations_than_k_gives_fair_set(solver):
    """200 points on 5 locations, k=8: every fair set has diversity 0 and
    is optimal, so the answer is one with gamma 0 and no misses."""
    from repro.core.hp import mfd_hp

    rng = np.random.default_rng(0)
    X = (rng.normal(size=(5, 2)) * 3.0)[rng.integers(0, 5, size=200)]
    colors = rng.integers(0, 2, size=200)
    quotas = np.array([4, 4])
    if solver == "hp":
        res = mfd_hp(X, colors, quotas, seed=0)
    else:
        res = mfd(X, colors, quotas, backend=solver, seed=0)
    assert gamma_upper_bound(X, 8) == 0.0
    assert res.gamma == 0.0
    assert res.diversity == 0.0
    assert res.missed.tolist() == [0, 0]
    assert np.array_equal(np.bincount(res.colors, minlength=2), quotas)


def test_mfd_spark_coreset_smaller_than_quota_shows_as_miss(spark):
    """A Spark coreset of 3 points per color < k_0 = 4 holds 3 points of
    color 0, and the missing one is reported against the requested quota."""
    from repro.core.coreset import coreset_arrays, to_spark_points
    from repro.core.mfd import solve_coreset

    X, colors = _instance(300, 2, 3, seed=4)
    df = to_spark_points(spark, X, colors, n_partitions=4)
    quotas = np.array([4, 2, 2])
    Xc, cc = coreset_arrays(df, 3)
    res = solve_coreset(Xc, cc, quotas, seed=0)
    assert res.extras["held"].tolist() == [3, 3, 3]
    assert res.missed[0] == 4 - np.sum(res.colors == 0) > 0
    assert res.missed.tolist() == missed_per_color(res.colors, quotas).tolist()


@pytest.mark.parametrize(
    "solver", ["dense", "tree", "hp", "coreset", "fairflow", "fairgreedyflow", "fmmds", "sfdm2_offline"]
)
@pytest.mark.parametrize(
    "bad", ["nan", "inf", "color_ge_m", "negative_color", "negative_quota", "fractional_quota"]
)
def test_bad_input_raises_value_error(bad, solver):
    """Non-finite coordinates, color ids outside [0, m) and quotas that are
    negative or not integers are rejected with a clear ValueError by every
    entry point, the baselines included, not turned into a nan diversity,
    a numpy error, a silent answer that ignores the stray color, or a
    quota cut to an integer."""
    from repro.baselines.fairflow import fairflow
    from repro.baselines.fairgreedyflow import fairgreedyflow
    from repro.baselines.fmmds import fmmds
    from repro.baselines.sfdm2 import sfdm2_offline
    from repro.core.hp import mfd_hp
    from repro.core.mfd import solve_coreset

    X, colors = _instance(30, 2, 2, seed=0)
    quotas = {"negative_quota": np.array([-1, 3]), "fractional_quota": np.array([2.7, 2])}.get(bad, np.array([2, 2]))
    if bad == "nan":
        X[5, 0] = np.nan
    elif bad == "inf":
        X[5, 1] = np.inf
    elif bad == "color_ge_m":
        colors[5] = 2
    elif bad == "negative_color":
        colors[5] = -1
    run = {
        "dense": lambda: mfd(X, colors, quotas, backend="dense", seed=0),
        "tree": lambda: mfd(X, colors, quotas, backend="tree", seed=0),
        "hp": lambda: mfd_hp(X, colors, quotas, seed=0),
        "coreset": lambda: solve_coreset(X, colors, quotas, seed=0),
        "fairflow": lambda: fairflow(X, colors, quotas),
        "fairgreedyflow": lambda: fairgreedyflow(X, colors, quotas),
        "fmmds": lambda: fmmds(X, colors, quotas),
        "sfdm2_offline": lambda: sfdm2_offline(X, colors, quotas, eps=0.5),
    }[solver]
    with pytest.raises(ValueError, match="non-finite|color ids|quotas must be non-negative integers"):
        run()


@pytest.mark.parametrize("backend", ["dense", "tree"])
@pytest.mark.parametrize("bad", ["eps_zero", "eps_negative", "eps_nan", "eps_inf"])
def test_bad_solver_argument_raises_value_error(bad, backend):
    """A degenerate eps is rejected up front with one ValueError, not a
    ZeroDivisionError deep in MWU or a silent result."""
    kwargs, match = {
        "eps_zero": (dict(eps=0.0), "eps must be finite and > 0"),
        "eps_negative": (dict(eps=-0.5), "eps must be finite and > 0"),
        "eps_nan": (dict(eps=np.nan), "eps must be finite and > 0"),
        "eps_inf": (dict(eps=np.inf), "eps must be finite and > 0"),
    }[bad]
    X, colors = _instance(40, 2, 2, seed=0)
    with pytest.raises(ValueError, match=match):
        mfd(X, colors, np.array([2, 2]), backend=backend, seed=0, **kwargs)


@pytest.mark.parametrize("backend", ["Dense", "trees", "kdtree", ""])
def test_unknown_backend_raises_value_error(backend):
    """A mistyped backend does not silently run the dense one."""
    X, colors = _instance(40, 2, 2, seed=0)
    with pytest.raises(ValueError, match="backend must be 'dense' or 'tree'"):
        mfd(X, colors, np.array([2, 2]), backend=backend, seed=0)


@pytest.mark.parametrize("backend", ["dense", "tree"])
def test_empty_coreset_gives_empty_selection(backend):
    """An empty coreset (what an empty DataFrame gives ``mfd_spark``) is an
    empty answer whose misses are the requested quotas."""
    from repro.core.mfd import solve_coreset

    res = solve_coreset(np.empty((0, 2)), np.empty(0, dtype=np.int64), np.array([2, 1]), backend=backend)
    assert len(res.indices) == 0 and res.indices.dtype == np.int64
    assert res.missed.tolist() == [2, 1]
    assert res.gamma == 0.0 and res.n_mwu_rounds == 0


@pytest.mark.parametrize("backend", ["dense", "tree"])
def test_extras_record_stage_timings_and_counters(backend):
    """Every result carries per-stage wall seconds and the search's counters."""
    X, colors = _instance(60, 2, 3, seed=3)
    res = mfd(X, colors, np.array([2, 2, 2]), backend=backend, seed=0)
    timings, counters = res.extras["timings"], res.extras["counters"]
    assert set(timings) == {"gamma_bound_s", "incidence_s", "mwu_s", "round_s"}
    assert all(t > 0 for t in timings.values())
    assert counters["gamma_rounds"] == res.n_mwu_rounds >= 1
    assert counters["mwu_iterations"] == int(np.ceil(0.3 * np.ceil(6 * np.log(60))))
    assert counters["incidence_pairs"] >= 60  # every point covers itself
    assert counters["update"] in ("gather", "rows")


@pytest.mark.parametrize("quotas", [[0, 0], [1, 0], [0, 1]])
@pytest.mark.parametrize("solver", ["dense", "tree", "hp"])
def test_k_below_two_tries_no_gamma(solver, quotas):
    """With k < 2 there is no pair to keep apart, so no gamma is searched
    (none is invented at a scale the data does not have): k = 0 gives the
    empty set and k = 1 the first row of the needed color, with gamma 0."""
    from repro.core.hp import mfd_hp

    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 2)) * 100.0
    colors = rng.integers(0, 2, size=30)
    quotas = np.array(quotas)
    if solver == "hp":
        res = mfd_hp(X, colors, quotas, seed=0)
    else:
        res = mfd(X, colors, quotas, backend=solver, seed=0)
    want = [int(np.flatnonzero(colors == j)[0]) for j in range(2) if quotas[j]]
    assert res.indices.tolist() == want and res.indices.dtype == np.int64
    assert res.gamma == 0.0 and res.n_mwu_rounds == 0
    assert res.missed.tolist() == [0, 0]
    assert res.extras["counters"]["incidence_pairs"] == 0
    assert res.extras["counters"]["raw_size"] == 0
    assert res.extras["counters"]["gamma_rounds"] == 0


# The four gamma-search loops that the two shared ones replaced (MFD's
# binary search and geometric schedule, FairGreedyFlow's and FMMD-S's),
# kept verbatim up to the call signature as references.


def _ref_mfd_wspd(attempt, Gamma):
    rounds, feasible = 0, None
    lo_i, hi_i = 0, len(Gamma) - 1
    while lo_i <= hi_i:
        mid = (lo_i + hi_i + 1) // 2
        rounds += 1
        got = attempt(float(Gamma[mid]))
        if got is not None:
            feasible = got
            lo_i = mid + 1
        else:
            hi_i = mid - 1
    return feasible, rounds


def _ref_mfd_geometric(attempt, gamma, decay):
    rounds, feasible = 0, None
    floor = 1e-12 * max(gamma, 1.0)
    while feasible is None and gamma >= floor:
        rounds += 1
        feasible = attempt(gamma)
        gamma *= 1.0 - decay
    return feasible, rounds


def _ref_fairgreedyflow(attempt, gamma):
    for _ in range(200):
        got = attempt(gamma)
        if got is not None:
            return got
        gamma *= 1.0 - 0.15
    return None


def _ref_fmmds(attempt, thresholds):
    lo, hi = 0, len(thresholds) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        sol = attempt(float(thresholds[mid]))
        if sol is not None:
            best = sol
            hi = mid - 1
        else:
            lo = mid + 1
    return best


def _probe(feasible):
    """``attempt`` for a feasibility predicate: records every probe and
    returns the probed value (and its position) when feasible."""
    probes = []

    def attempt(gamma):
        probes.append(gamma)
        return (gamma, len(probes)) if feasible(gamma) else None

    return attempt, probes


def _predicates(rng, values):
    """A monotone predicate (feasible up to a threshold near the values)
    and a non-monotone one (an arbitrary fixed subset of floats)."""
    thr = float(rng.choice(values)) if len(values) and rng.random() < 0.8 else float(rng.normal())
    salt = int(rng.integers(1 << 30))
    return [lambda g: g <= thr, lambda g: hash((salt, g)) % 3 == 0]


@pytest.mark.parametrize("seed", range(40))
def test_shared_searches_probe_as_the_replaced_loops(seed):
    """On random candidate arrays, with monotone and non-monotone
    feasibility, the shared searches probe the same gammas in the same
    order and return the same result as the loops they replace."""
    from repro.core.mfd import DECAY, binary_search, geometric_descent

    rng = np.random.default_rng(seed)
    cands = np.unique(rng.exponential(size=int(rng.integers(0, 60))) * 10.0 ** rng.integers(-3, 4))
    for feasible in _predicates(rng, cands):
        new, new_probes = _probe(feasible)
        old, old_probes = _probe(feasible)
        assert binary_search(new, cands) == _ref_mfd_wspd(old, cands)
        assert new_probes == old_probes
        new, new_probes = _probe(feasible)
        old, old_probes = _probe(feasible)
        assert binary_search(new, cands)[0] == _ref_fmmds(old, cands[::-1])
        assert new_probes == old_probes

    start = float(rng.exponential() * 10.0 ** rng.integers(-3, 4)) if seed % 8 else 0.0
    grid = start * (1.0 - DECAY) ** np.arange(40)
    for feasible in _predicates(rng, grid):
        new, new_probes = _probe(feasible)
        old, old_probes = _probe(feasible)
        assert geometric_descent(new, start) == _ref_mfd_geometric(old, start, DECAY)
        assert new_probes == old_probes
        if start > 0:  # at start 0 the old FairGreedyFlow loop spun 200 times
            new, new_probes = _probe(feasible)
            old, old_probes = _probe(feasible)
            got = geometric_descent(new, start)[0]
            want = _ref_fairgreedyflow(old, start)
            assert new_probes == old_probes[: len(new_probes)]
            if got is not None or len(old_probes) <= len(new_probes):
                assert got == want
