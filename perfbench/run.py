"""FairDiv benchmark: one workload, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The workload runs as one closed-loop client in
a fresh worker process (``worker.py``), so peak RSS and Spark state never
carry over from another run. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Workloads and metrics are described in ``perfbench/README.md``.

The worker gets a fixed ``PYTHONHASHSEED`` (the dataset generators mix
``hash(name)`` into their seed), fixed glibc malloc thresholds, one BLAS
thread, the repository's ``src`` on its path, Spark pinned to ``local[4]``
and every scratch file under ``.bench_build/perfbench``.
"""
from __future__ import annotations

import argparse
import os
import shlex
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER_TIMEOUT_S = 170  # a run must end within 180 s


def worker_env(scratch: str) -> dict:
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]),
        PYSPARK_PYTHON=sys.executable,
        TMPDIR=tmp,
        SPARK_LOCAL_DIRS=tmp,
        # glibc malloc raises its mmap threshold after the first large frees,
        # and whether a 32 MB distance matrix then reuses heap memory or maps
        # fresh pages varied from process to process (peak RSS 209 or 240 MB
        # on direct_dense). Fixed thresholds give every run the same layout:
        # arrays up to 32 MiB come from the heap, which is never trimmed.
        MALLOC_MMAP_THRESHOLD_="33554432",
        MALLOC_TRIM_THRESHOLD_="1073741824",
        # One BLAS thread per process. With OpenBLAS's default two, a
        # stream solution() that takes ~25 ms had a p90 of 0.9-1.5 s while
        # three other processes kept the 4 cores busy; with one it stayed
        # under 30 ms. Spark's 4 task slots are the parallelism.
        OPENBLAS_NUM_THREADS="1",
        # Every JVM (Spark's launcher and driver): temp files in the scratch
        # directory, and no hsperfdata files, which would go to /tmp.
        JAVA_TOOL_OPTIONS=f"-XX:-UsePerfData -Djava.io.tmpdir={shlex.quote(tmp)}",
        PYSPARK_SUBMIT_ARGS=" ".join([
            "--master local[4] --driver-memory 2g",
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(tmp)}",
            "pyspark-shell",
        ]),
    )
    return env


def main() -> int:
    ap = argparse.ArgumentParser(description="FairDiv benchmark, one workload per run.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "core", "mfd.py")):
        print(f"perfbench: no program sources under {os.path.join(ROOT, 'src')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_build", "perfbench")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", scratch]
    # Own process group, so the Spark JVM and its Python workers can be reaped with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(scratch), start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        code = 3
    finally:
        reap_group(proc)
    return code


def reap_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the worker's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
