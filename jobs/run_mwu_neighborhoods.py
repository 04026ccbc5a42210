"""MWU neighborhoods (EXPERIMENTS.md, "MWU neighborhoods"): dense vs tree
``mfd`` on all of P, no coreset (Theorem 3.2).

popsim_1m (d=2, m=5, generator seed 0) at each n, k = 20 equal quotas,
eps=1, g=0.3. Two modes:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python jobs/run_mwu_neighborhoods.py dense 500 1000 1400 2000 4000 16000
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python jobs/run_mwu_neighborhoods.py tree 500 1000 1400 2000 4000 16000
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python jobs/run_mwu_neighborhoods.py crossover 100 200 300 500 1000

``dense``/``tree`` prints one table row per n: medians of three calls
(rounding seeds 0-2) of the total, the tree build and cover query, and the
stage timings ``mfd`` records in ``extras["timings"]`` (neighborhoods =
``incidence_s``, MWU = ``mwu_s``, both summed over the gamma rounds); the
certified gamma's pair count and Update read from ``extras["counters"]``;
the process's peak RSS so far; and each call's gamma rounds and the MWU
iterations of its certified round (``mwu_iterations``: T, or a power of
two below it when MWU stopped early). Run one process per kind, n
ascending. ``crossover`` interleaves the two kinds,
7 calls each per n, and prints the median, min and max total per kind.
"""
import resource
import statistics
import sys
import time

from repro.core import kdtree, mfd
from repro.core.geometry import equal_quotas
from repro.data.datasets import dataset_arrays

K = 20
_acc: dict[str, float] = {}


def _timed(fn, key):
    def wrapped(*a, **kw):
        t = time.perf_counter()
        out = fn(*a, **kw)
        _acc[key] = _acc.get(key, 0.0) + time.perf_counter() - t
        return out
    return wrapped


def _instance(n: int):
    paper_n = dataset_arrays("popsim_1m", scale=0.0, seed=0)[2].paper_n
    X, colors, meta = dataset_arrays("popsim_1m", scale=(n + 0.5) / paper_n, seed=0)
    return X, colors, equal_quotas(K, meta.m)


def table(backend: str, ns) -> None:
    kdtree.KDTree.__init__ = _timed(kdtree.KDTree.__init__, "build")
    kdtree.KDTree.canonical_nodes = _timed(kdtree.KDTree.canonical_nodes, "query")
    for n in ns:
        X, colors, quotas = _instance(n)
        runs = []
        for seed in range(3):
            _acc.clear()
            t = time.perf_counter()
            res = mfd.mfd(X, colors, quotas, eps=1.0, backend=backend, seed=seed)
            runs.append(dict(_acc, total=time.perf_counter() - t, **res.extras["timings"],
                             **res.extras["counters"]))
        med = {c: statistics.median(r.get(c, 0.0) for r in runs)
               for c in ("total", "build", "query", "incidence_s", "mwu_s")}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cols = " | ".join("—" if backend == "dense" and c in ("build", "query") else f"{med[c]:.3f}"
                          for c in ("total", "build", "query", "incidence_s", "mwu_s"))
        print(f"| {len(X)} | {backend} | {cols} | {runs[-1]['incidence_pairs']:,} | {runs[-1]['update']} "
              f"| {rss:.0f} | {'/'.join(str(r['gamma_rounds']) for r in runs)} "
              f"| {'/'.join(str(r['mwu_iterations']) for r in runs)} |", flush=True)


def crossover(ns) -> None:
    for n in ns:
        X, colors, quotas = _instance(n)
        ts = {"dense": [], "tree": []}
        for seed in range(7):
            for b in ("dense", "tree"):
                t = time.perf_counter()
                mfd.mfd(X, colors, quotas, eps=1.0, backend=b, seed=seed % 3)
                ts[b].append(time.perf_counter() - t)
        print(n, {b: round(statistics.median(v), 3) for b, v in ts.items()},
              {b: (round(min(v), 3), round(max(v), 3)) for b, v in ts.items()}, flush=True)


def main() -> None:
    mode, ns = sys.argv[1], [int(a) for a in sys.argv[2:]]
    if mode == "crossover":
        crossover(ns)
    else:
        table(mode, ns)


if __name__ == "__main__":
    main()
