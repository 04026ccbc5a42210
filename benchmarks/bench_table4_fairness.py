"""Benchmark: Table 4 — MFD fairness misses, g=0.1 vs g=0.3.

Paper's finding: MFD-0.1 misses a few points per color; MFD-0.3 almost
never misses (Diabetes: 0; Popsim: <= 1.4 avg). Full-scale numbers in
EXPERIMENTS.md via jobs/run_table4.py.
"""
from repro.experiments.harness import sweep
from repro.experiments.tables import missed_table


def test_bench_table4(spark, benchmark):
    def run():
        recs = []
        for ds, scale in (("diabetes", 0.03), ("popsim", 0.002)):
            recs += sweep(ds, [20], [f"MFD-{g}" for g in (0.1, 0.3)], scale=scale, repeats=3, spark=spark)
        return recs

    recs = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + missed_table(recs, title="Table 4 (bench scale)"))
    g3 = [r for r in recs if r.algo == "MFD-0.3"]
    # The paper's headline: with g=0.3 misses are near zero.
    assert all(r.missed_total <= 3 for r in g3)
