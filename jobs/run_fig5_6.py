"""Figs 5-6 (as tables) — end-to-end comparison, equal quotas:
diversity and runtime vs k for MFD and all baselines, all datasets.
``python jobs/run_fig5_6.py proportional`` gives Figs 7-8 instead."""
import dataclasses
import json
import os
import sys

from _session import get_spark, results_dir

from repro.data.datasets import DATASET_NAMES
from repro.experiments.harness import ALGOS, sweep
from repro.experiments.tables import pivot_table


def main(ks=(20, 60, 100), repeats=3, quota_mode="equal") -> str:
    """Equal quotas write results/fig5_6.{json,md}; proportional ones write
    results/fig7_8.{json,md}, which Fig 9 does not read."""
    tag, fig_div, fig_time = (
        ("fig5_6", "Fig 5", "Fig 6") if quota_mode == "equal" else ("fig7_8", "Fig 7", "Fig 8")
    )
    spark = get_spark(tag)
    records = []
    for ds in DATASET_NAMES:
        records += sweep(
            ds, list(ks), ALGOS, quota_mode=quota_mode, repeats=repeats, spark=spark,
            timeout_s=float(os.environ.get("REPRO_TIMEOUT_S", "300")),
        )
        # Checkpoint after each dataset so partial runs are recoverable.
        with open(os.path.join(results_dir(), f"{tag}.json"), "w") as f:
            json.dump([dataclasses.asdict(r) for r in records], f, indent=2)
    out = pivot_table(records, "diversity", title=f"{fig_div} (as table) — diversity vs k ({quota_mode} quotas)")
    out += "\n" + pivot_table(records, "runtime_s", title=f"{fig_time} (as table) — runtime (s) vs k ({quota_mode} quotas)", nd=2)
    with open(os.path.join(results_dir(), f"{tag}.md"), "w") as f:
        f.write(out)
    print(out)
    return out


if __name__ == "__main__":
    main(quota_mode=sys.argv[1] if len(sys.argv) > 1 else "equal")
