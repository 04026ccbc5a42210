"""The paper's shapes (Kurkure et al., SIGMOD 2024, Tables 3-4 and Figs
3-10) at small scale: which algorithm wins, by roughly how much, and where
MFD's misses stay near zero. Each instance runs once per module (a
module-scoped fixture) and each test checks one claim on it. The tables
themselves are printed by ``jobs/run_<table>.py``; see EXPERIMENTS.md for
the full-scale numbers.
"""
import math

import pytest

from repro.data.datasets import DATASET_NAMES, dataset_spark
from repro.experiments.harness import ALGOS, streaming_experiment, sweep
from repro.experiments.tables import pareto_table


def _by_algo(recs):
    return {r.algo: r for r in recs}


# --- Table 3: dataset statistics ---------------------------------------------


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_table3_spark_sees_all_m_colors(spark, name):
    """Spark's group-by over the generated frame at scale 0.005 counts all
    m colors of the dataset (the DuckDB cross-check of the counts is
    ``tests/test_datasets.py::test_spark_color_counts_vs_duckdb``)."""
    sdf, meta = dataset_spark(spark, name, scale=0.005)
    assert len(sdf.groupBy("color").count().collect()) == meta.m


# --- Table 4: MFD fairness misses, g = 0.1 vs g = 0.3 -------------------------


@pytest.fixture(scope="module")
def table4(spark):
    recs = []
    for ds, scale in (("diabetes", 0.03), ("popsim", 0.002)):
        recs += sweep(ds, [20], [f"MFD-{g}" for g in (0.1, 0.3)], scale=scale, repeats=3, spark=spark)
    return recs


def test_table4_mfd_g03_misses_at_most_3(table4):
    """The paper's headline: with g = 0.3 misses are near zero (Diabetes 0,
    Popsim <= 1.4 on average)."""
    g3 = [r for r in table4 if r.algo == "MFD-0.3"]
    assert g3
    assert all(r.missed_total <= 3 for r in g3)


# --- Figs 3-4: MFD diversity and runtime vs early-stop g ----------------------


@pytest.fixture(scope="module")
def fig3_4(spark):
    return sweep("adult", [20, 40], [f"MFD-{g}" for g in (0.1, 0.3, 0.7)], scale=0.2, repeats=2, spark=spark)


@pytest.mark.parametrize("k", [20, 40])
def test_fig3_diversity_within_2_5x_across_g(fig3_4, k):
    """g barely affects diversity."""
    by = {(r.algo, r.k): r for r in fig3_4}
    divs = [by[(f"MFD-{g}", k)].diversity for g in (0.1, 0.3, 0.7)]
    assert max(divs) <= 2.5 * min(divs) + 1e-9


# --- Figs 5-6: end to end, equal quotas ---------------------------------------


@pytest.fixture(scope="module")
def fig5_6():
    # spark=None: numpy coreset, so runtimes compare algorithms rather than
    # first-job JVM warm-up (at this small n the fixed Spark overhead would
    # dominate MFD's wall-clock; the Spark pipeline runs in the Table 4 and
    # Fig 3-4 instances and at full bench scale in jobs/run_all.py).
    return _by_algo(sweep("adult", [20], ALGOS, scale=0.25, repeats=2, spark=None, timeout_s=120))


def test_fig5_mfd_finishes_with_positive_diversity(fig5_6):
    assert not fig5_6["MFD"].dnf and fig5_6["MFD"].diversity > 0


@pytest.mark.parametrize("algo", ["FairFlow", "FairGreedyFlow"])
def test_fig5_flow_baseline_diversity_at_most_1_3x_mfd(fig5_6, algo):
    """The flow baselines' diversity is at or below MFD's (the paper's
    consistent shape), with 30% slack at this scale."""
    if not fig5_6[algo].dnf:
        assert fig5_6[algo].diversity <= fig5_6["MFD"].diversity * 1.3


def test_fig6_mfd_faster_than_sfdm2_e015(fig5_6):
    """MFD is far faster than the dense-grid streaming baseline."""
    sfdm = fig5_6["SFDM-2(e=.15)"]
    if not sfdm.dnf and not math.isnan(sfdm.runtime_s):
        assert fig5_6["MFD"].runtime_s < sfdm.runtime_s


# --- Figs 7-8: end to end, proportional quotas --------------------------------


@pytest.fixture(scope="module")
def fig7_8(spark):
    return sweep(
        "diabetes", [20], ["MFD", "FairFlow", "FairGreedyFlow"], quota_mode="proportional", scale=0.05,
        repeats=2, spark=spark, timeout_s=120,
    )


def test_fig7_8_every_algorithm_finishes(fig7_8):
    assert all(not r.dnf for r in fig7_8)


def test_fig7_mfd_misses_at_most_2(fig7_8):
    """Proportional quotas are easier: MFD misses almost nothing."""
    assert _by_algo(fig7_8)["MFD"].missed_total <= 2


# --- Fig 9: (runtime, diversity) pareto check ---------------------------------


@pytest.fixture(scope="module")
def fig9():
    # Robust small-scale shape checks. The full pareto claims (MFD and
    # FairFlow always pareto-optimal) are verified at bench scale by
    # jobs/run_fig9.py; see EXPERIMENTS.md. At this tiny n, FMMD-S's exact
    # search finishes fast and can legitimately dominate the heuristics.
    return sweep("popsim_1m", [20], ALGOS, scale=0.01, repeats=2, spark=None, timeout_s=120)


def test_fig9_some_finisher_is_pareto_optimal(fig9):
    assert [r for r in fig9 if not r.dnf]
    out = pareto_table(fig9, title="Fig 9")
    assert [line for line in out.splitlines() if line.rstrip().endswith("yes |")]


def test_fig9_mfd_beats_fairflow_diversity(fig9):
    by = _by_algo(fig9)
    assert by["MFD"].diversity > by["FairFlow"].diversity


def test_fig9_mfd_diversity_at_least_0_9x_fairgreedyflow(fig9):
    by = _by_algo(fig9)
    assert by["MFD"].diversity >= by["FairGreedyFlow"].diversity * 0.9


# --- Fig 10: streaming on Beer ------------------------------------------------


@pytest.fixture(scope="module")
def fig10():
    rows = streaming_experiment("beer", [20], scale=0.005)
    return {r["algo"]: r for r in rows}


@pytest.mark.parametrize("sfdm", ["SFDM-2(e=.15)", "SFDM-2(e=.75)"])
def test_fig10_streammfd_updates_faster_than_sfdm2(fig10, sfdm):
    assert fig10["StreamMFD"]["update_us"] < fig10[sfdm]["update_us"]


def test_fig10_streammfd_post_processing_within_5x_sfdm2_e015(fig10):
    """StreamMFD's post-processing is comparable to SFDM-2(e=.15)'s or better."""
    assert fig10["StreamMFD"]["post_s"] < fig10["SFDM-2(e=.15)"]["post_s"] * 5


def test_fig10_streammfd_stores_fewer_items_than_sfdm2_e015(fig10):
    assert fig10["StreamMFD"]["stored"] < fig10["SFDM-2(e=.15)"]["stored"]
