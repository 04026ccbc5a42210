"""Run every experiment behind EXPERIMENTS.md, checkpointing to results/.

Order: cheap tables first, the two end-to-end sweeps last.
Usage: python jobs/run_all.py
"""
import time

import run_table3
import run_table4
import run_fig3_4
import run_fig10
import run_fig5_6
import run_fig9


def main() -> None:
    t0 = time.time()
    for name, fn in [
        ("table3", run_table3.main),
        ("fig10", run_fig10.main),
        ("table4", run_table4.main),
        ("fig3_4", run_fig3_4.main),
        ("fig5_6", lambda: run_fig5_6.main(quota_mode="equal")),
        ("fig7_8", lambda: run_fig5_6.main(quota_mode="proportional")),
        ("fig9", run_fig9.main),
    ]:
        t1 = time.time()
        print(f"=== running {name} ===", flush=True)
        fn()
        print(f"=== {name} done in {time.time() - t1:.1f}s ===", flush=True)
    print(f"ALL DONE in {time.time() - t0:.1f}s", flush=True)


if __name__ == "__main__":
    main()
