"""Benchmark: Figs 3-4 (as tables) — MFD diversity/runtime vs early-stop g.

Paper's finding: g barely affects diversity; runtime grows with g.
"""
from repro.experiments.harness import sweep
from repro.experiments.tables import pivot_table


def test_bench_fig3_4(spark, benchmark):
    recs = benchmark.pedantic(
        lambda: sweep("adult", [20, 40], [f"MFD-{g}" for g in (0.1, 0.3, 0.7)], scale=0.2, repeats=2,
                      spark=spark),
        rounds=1,
        iterations=1,
    )
    print("\n" + pivot_table(recs, "diversity", title="Fig 3 (bench scale) — diversity"))
    print(pivot_table(recs, "runtime_s", title="Fig 4 (bench scale) — runtime (s)", nd=2))
    by = {(r.algo, r.k): r for r in recs}
    # Diversity stability across g (within 2x), runtime ordering.
    for k in (20, 40):
        divs = [by[(f"MFD-{g}", k)].diversity for g in (0.1, 0.3, 0.7)]
        assert max(divs) <= 2.5 * min(divs) + 1e-9
