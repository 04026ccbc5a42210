"""Table 4 — average missed points per color, MFD-0.1 vs MFD-0.3
(Diabetes and Popsim, equal quotas, 5 runs each)."""
import dataclasses
import json
import os

from _session import get_spark, results_dir

from repro.experiments.harness import sweep
from repro.experiments.tables import missed_table


def main(ks=(20, 40, 60, 80, 100), repeats=5) -> str:
    spark = get_spark("table4")
    records = []
    for ds in ("diabetes", "popsim"):
        records += sweep(ds, list(ks), [f"MFD-{g}" for g in (0.1, 0.3)], repeats=repeats, spark=spark)
    out = missed_table(records, title="Table 4 — avg missed points per color (MFD-0.1 vs MFD-0.3)")
    with open(os.path.join(results_dir(), "table4.md"), "w") as f:
        f.write(out)
    with open(os.path.join(results_dir(), "table4.json"), "w") as f:
        json.dump([dataclasses.asdict(r) for r in records], f, indent=2)
    print(out)
    return out


if __name__ == "__main__":
    main()
