"""Figs 3-4 (as tables) — MFD micro-benchmark: diversity and runtime vs
early-stopping parameter g, all datasets, equal quotas."""
import dataclasses
import json
import os

from _session import get_spark, results_dir

from repro.data.datasets import DATASET_NAMES
from repro.experiments.harness import sweep
from repro.experiments.tables import pivot_table


def main(ks=(20, 60, 100), gs=(0.1, 0.3, 0.5, 0.7), repeats=3) -> str:
    spark = get_spark("fig3_4")
    records = []
    for ds in DATASET_NAMES:
        records += sweep(ds, list(ks), [f"MFD-{g}" for g in gs], repeats=repeats, spark=spark)
    out = pivot_table(records, "diversity", title="Fig 3 (as table) — MFD diversity vs k for early-stop g")
    out += "\n" + pivot_table(records, "runtime_s", title="Fig 4 (as table) — MFD runtime (s) vs k for early-stop g", nd=2)
    with open(os.path.join(results_dir(), "fig3_4.md"), "w") as f:
        f.write(out)
    with open(os.path.join(results_dir(), "fig3_4.json"), "w") as f:
        json.dump([dataclasses.asdict(r) for r in records], f, indent=2)
    print(out)
    return out


if __name__ == "__main__":
    main()
