"""The benchmark's workloads. Each drives the program through its public API
only (``mfd_spark``, ``mfd``, ``StreamMFD.insert`` / ``.solution``) on
arrays generated from the workload seed, as one closed-loop client.

A workload has four methods:

- ``setup(seed)`` generates the inputs, prepares them (Spark: start the
  session, ingest and cache the DataFrame) and makes one warm-up call; it
  returns the set-up layer timings and leaves ``quotas`` (the requested
  quotas) and ``checker`` (a :class:`checks.OutputChecker` over the input);
- ``run_once(rec)`` does one unit of client work through the recorder
  ``rec``: a few queries, or one pass over the stream;
- ``layer_counts(call_id)`` returns counts that only the workload can read
  for one traced call (Spark's job, stage and task counts);
- ``teardown(final)`` releases what set-up made.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

from checks import Answer, OutputChecker
from repro.core import coreset as coreset_mod
from repro.core import mfd as mfd_mod
from repro.core import streaming as streaming_mod
from repro.core.geometry import equal_quotas
from repro.data.datasets import dataset_arrays

EPS = 1.0  # the paper's and the program's default epsilon


def _shuffled(dataset: str, scale: float, seed: int):
    """One fixed dataset instance, its rows in an order drawn by ``seed``.

    The dataset (cluster layout, colors) is generated at ``scale`` with
    generator seed 0, standing in for the paper's fixed real datasets; the
    workload seed varies the arrival order (and so the Spark partitions), not
    the dataset.
    """
    X, colors, meta = dataset_arrays(dataset, scale=scale, seed=0)
    rows = np.random.default_rng(seed).permutation(len(X))
    return X[rows], colors[rows], meta


class DirectWorkload:
    """``mfd`` on one fixed ``n``-row instance of a dataset (Theorem 3.2), no Spark.

    The workload seed draws ``draws`` rounding seeds; one unit of work is one
    call per rounding seed, so every unit repeats the same calls and the mean
    quality over a run does not depend on how many units fit in it. The
    instance itself does not depend on the seed: on a small instance,
    Gonzalez's start row alone moves the certified gamma, and with it the
    cost and quality of a call, by up to 2x.
    """

    def __init__(self, dataset: str, n: int, k: int, backend: str, draws: int):
        self.dataset, self.n, self.k, self.backend, self.draws = dataset, n, k, backend, draws

    def setup(self, seed: int) -> dict:
        t0 = perf_counter()
        paper_n = dataset_arrays(self.dataset, scale=0.0, seed=0)[2].paper_n
        self.X, self.colors, meta = dataset_arrays(self.dataset, scale=(self.n + 0.5) / paper_n, seed=0)
        gen_s = perf_counter() - t0
        self.quotas = equal_quotas(self.k, meta.m)
        self.rounding_seeds = [int(s) for s in np.random.default_rng(seed).integers(2**31, size=self.draws)]
        self.checker = OutputChecker(self.X, self.colors, self.quotas, EPS)
        self._query(self.rounding_seeds[0])
        return {"datasets.gen_s": gen_s}

    def _query(self, rounding_seed: int) -> Answer:
        res = mfd_mod.mfd(self.X, self.colors, self.quotas, eps=EPS,
                          backend=self.backend, seed=rounding_seed)
        return Answer(self.X[res.indices], res.colors, res.diversity, res.gamma)

    def run_once(self, rec) -> None:
        for s in self.rounding_seeds:
            rec.query(lambda call_id: self._query(s), self.checker)

    def layer_counts(self, call_id: int) -> dict:
        return {}

    def teardown(self, final: bool) -> None:
        self.checker.close()


class SparkCoresetWorkload:
    """``mfd_spark`` (Corollary 4.3) on a cached Spark DataFrame."""

    def __init__(self, dataset: str, scale: float, k: int, partitions: int):
        self.dataset, self.scale, self.k, self.partitions = dataset, scale, k, partitions

    def setup(self, seed: int) -> dict:
        from pyspark.sql import SparkSession

        self.spark = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        t0 = perf_counter()
        X, colors, meta = _shuffled(self.dataset, self.scale, seed)
        t1 = perf_counter()
        self.df = coreset_mod.to_spark_points(self.spark, X, colors, n_partitions=self.partitions).cache()
        self.df.count()
        t2 = perf_counter()
        self.seed = seed
        self.quotas = equal_quotas(self.k, meta.m)
        self.checker = OutputChecker(X, colors, self.quotas, EPS)
        self._query(0)
        return {"datasets.gen_s": t1 - t0, "coreset.ingest_s": t2 - t1}

    def _query(self, call_id: int) -> Answer:
        # One Spark job group per call, so the status tracker can count its work.
        self.spark.sparkContext.setJobGroup(f"perfbench-{call_id}", "mfd_spark call")
        res = mfd_mod.mfd_spark(self.df, self.quotas, eps=EPS, seed=self.seed)
        return Answer(res.extras["points"], res.colors, res.diversity, res.gamma)

    def run_once(self, rec) -> None:
        rec.query(self._query, self.checker)

    def layer_counts(self, call_id: int) -> dict:
        """Spark jobs, stages and tasks that one call launched."""
        st = self.spark.sparkContext.statusTracker()
        jobs = st.getJobIdsForGroup(f"perfbench-{call_id}")
        stages = [s for j in jobs for s in st.getJobInfo(j).stageIds]
        tasks = sum(st.getStageInfo(s).numTasks for s in stages)
        return {"coreset.spark_jobs": len(jobs), "coreset.spark_stages": len(stages),
                "coreset.spark_tasks": tasks}

    def teardown(self, final: bool) -> None:
        self.checker.close()
        self.df.unpersist()
        if not final:
            self.spark.stop()
            return
        # Stop the session, then the JVM it launched, and wait for it to exit.
        gateway = self.spark.sparkContext._gateway
        self.spark.stop()
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)


def _doublings(before: float, after: float) -> int:
    """How many prune rounds took tau from ``before`` to ``after``.

    Only an insert into a full synopsis prunes, and each prune round sets
    tau to ``max(2 tau, 1e-300)``. A synopsis that a prune left short of k
    points refills without a distance check and then resets tau to its
    minimum pairwise distance, which may be lower; those resets are not
    prunes and are not counted.
    """
    n = 0
    while before < after:
        before = max(before * 2.0, 1e-300)
        n += 1
    return n


class StreamWorkload:
    """StreamMFD over a shuffled stream (Theorem 5.1): every ``every``
    inserts the client asks for ``solution()`` on the same synopsis."""

    def __init__(self, dataset: str, scale: float, per_color_k: int, every: int):
        self.dataset, self.scale, self.k, self.every = dataset, scale, per_color_k, every

    def setup(self, seed: int) -> dict:
        t0 = perf_counter()
        self.X, self.colors, meta = _shuffled(self.dataset, self.scale, seed)
        gen_s = perf_counter() - t0
        self.seed, self.d, self.m = seed, meta.d, meta.m
        self.quotas = equal_quotas(self.k, meta.m)
        self.checker = OutputChecker(self.X, self.colors, self.quotas, EPS)
        warm = streaming_mod.StreamMFD(self.d, self.m, self.k)
        for i in range(self.every):
            warm.insert(self.X[i], int(self.colors[i]))
        warm.solution(self.quotas, eps=EPS, seed=seed)
        return {"datasets.gen_s": gen_s}

    def run_once(self, rec) -> None:
        """One pass over the whole stream with a fresh synopsis."""
        sm = streaming_mod.StreamMFD(self.d, self.m, self.k)
        X, colors = self.X, self.colors
        prunes = 0

        def solve(call_id: int) -> Answer:
            res = sm.solution(self.quotas, eps=EPS, seed=self.seed)
            held = [len(inst.C) for inst in sm.instances]
            problems = [f"synopsis holds {h} > {self.k} points of color {j}"
                        for j, h in enumerate(held) if h > self.k]
            return Answer(res.extras["synopsis_points"], res.colors, res.diversity,
                          res.gamma, problems)

        for i in range(len(X)):
            c = int(colors[i])
            inst = sm.instances[c]
            full, tau = len(inst.C) == self.k, inst.tau
            t0 = perf_counter()
            sm.insert(X[i], c)
            rec.insert(perf_counter() - t0)
            if full:
                prunes += _doublings(tau, inst.tau)
            if (i + 1) % self.every == 0:
                rec.query(solve, self.checker)
        rec.per_run("streaming.prunes", prunes)
        rec.per_run("streaming.stored_items", sm.stored_items())

    def layer_counts(self, call_id: int) -> dict:
        return {}

    def teardown(self, final: bool) -> None:
        self.checker.close()


WORKLOADS = {
    # Cor. 4.3 as users call it: census at bench scale (n=48,522, d=6, m=14).
    "spark_census": lambda: SparkCoresetWorkload("census", 0.02, k=100, partitions=16),
    # Thm 3.2 with the dense MWU backend, where the driver solve dominates.
    # At n=2,000 each distance matrix is 32 MB; at 4,000 (128 MB) every call
    # maps and page-faults its matrices afresh and run-to-run time swings ~20%.
    "direct_dense": lambda: DirectWorkload("census", n=2000, k=100, backend="dense", draws=4),
    # The KD-tree backend (Algorithms 2-4) on d=2 data. Its Python tree walks
    # cost ~0.9 s per call at n=80, k=15. On this instance div(S) is the same
    # for every rounding seed; the quota shortfall varies, so a unit draws 20
    # rounding seeds to steady the mean.
    "direct_tree": lambda: DirectWorkload("popsim_1m", n=80, k=15, backend="tree", draws=20),
    # Fig. 10: beer at bench scale (n=45,564, m=3), k=100, solution() every 5,000 inserts.
    "stream_beer": lambda: StreamWorkload("beer", 0.03, per_color_k=100, every=5000),
}
