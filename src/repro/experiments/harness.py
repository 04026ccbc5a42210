"""Experiment harness: runs (dataset, algorithm, k, quota-mode) cells and
produces the rows behind every table/figure of the paper's Section 6.

Every grid cell, Figs 3-4 and Table 4 included, runs through
:func:`sweep` -> :func:`run_algo`; the Fig-10 stream is
:func:`streaming_experiment`. Protocol choices mirror the paper:

- MFD = Spark coreset (per-color Gonzalez, size m*k) + driver MWU; the
  coreset construction time is *included* in MFD's runtime, as in the
  paper; loading the points into Spark (once per sweep) is not. The label
  ``MFD-<g>`` (e.g. ``MFD-0.1``) sets the early-stop g; plain ``MFD`` runs
  :func:`repro.core.mfd.mfd`'s default g = 0.3.
- FairGreedyFlow consumes the same coreset (paper §6.2 compares the two
  "given that the same coreset is given as input"); its time also
  includes the coreset construction.
- FairFlow and FMMD-S run on the full point set (each builds its own
  candidate structure, as their papers specify).
- SFDM-2 is one :func:`repro.baselines.sfdm2.sfdm2_offline` run: it
  streams the full point set once at the ε its label ``SFDM-2(e=<x>)``
  names, with [d_min, d_max] from the cell's coreset (the paper's
  footnote 5). Fig 10 instead estimates the spread from a sample
  (footnote 6).
- MFD and FairGreedyFlow get their quotas on the coreset from
  ``core.mfd.solve_coreset``; their ``missed`` counts the requested quotas.
- MFD (every ``MFD-<g>``) is averaged over ``repeats`` runs (paper: 5);
  the other algorithms run once.
- A run is DNF when it exceeds ``timeout_s`` wall-clock or (FMMD-S) its
  exact-search node budget — the scaled-down analogue of the paper's
  30-minute kill rule.
"""
from __future__ import annotations

import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..baselines.fairflow import fairflow
from ..baselines.fairgreedyflow import fairgreedyflow
from ..baselines.fmmds import fmmds
from ..baselines.sfdm2 import SFDM2, sfdm2_offline
from ..core.coreset import coreset_arrays, coreset_numpy, to_spark_points
from ..core.exact import NodeBudgetExceeded
from ..core.geometry import equal_quotas, pairwise_distances, proportional_quotas
from ..core.mfd import solve_coreset
from ..core.streaming import StreamMFD, feed
from ..data.datasets import dataset_arrays

ALGOS = [
    "MFD",
    "FairFlow",
    "FairGreedyFlow",
    "FMMD-S",
    "SFDM-2(e=.15)",
    "SFDM-2(e=.75)",
]

# Benchmark-scale fraction of each dataset's paper-scale n (see
# EXPERIMENTS.md: we reproduce shape, not absolute numbers). Overridable
# per sweep. Chosen so each dataset lands in the 25k-50k range except the
# deliberately-small Adult.
BENCH_SCALES = {
    "adult": 1.0,
    "diabetes": 0.3,
    "census": 0.02,
    "popsim": 0.012,
    "popsim_1m": 0.06,
    "beer": 0.03,
}


_NUMBER = r"(\d+(?:\.\d*)?|\.\d+)"


def parse_algo(algo: str) -> tuple[str, dict]:
    """``(name, params)`` of a run label: ``MFD`` (no params) or ``MFD-<g>``
    (``{"g": g}``, the early stop), ``SFDM-2(e=<x>)`` (``{"eps": x}``), or
    another :data:`ALGOS` entry (no params). Any other label raises
    ``ValueError``."""
    if m := re.fullmatch(rf"MFD(?:-{_NUMBER})?", algo):
        return "MFD", {} if m[1] is None else {"g": float(m[1])}
    if m := re.fullmatch(rf"SFDM-2\(e={_NUMBER}\)", algo):
        return "SFDM-2", {"eps": float(m[1])}
    if algo in ALGOS:
        return algo, {}
    raise ValueError(f"unknown algorithm label {algo!r}: want MFD, MFD-<g>, SFDM-2(e=<x>) or one of {ALGOS}")


@dataclass
class RunRecord:
    dataset: str
    algo: str
    k: int
    quota_mode: str
    n: int
    m: int
    diversity: float
    runtime_s: float
    missed_total: float
    missed_per_color: list = field(default_factory=list)
    dnf: bool = False
    note: str = ""


def make_quotas(mode: str, k: int, colors: np.ndarray, m: int) -> np.ndarray:
    if mode == "equal":
        return equal_quotas(k, m)
    if mode == "proportional":
        return proportional_quotas(k, colors, m)
    raise ValueError(mode)


@contextmanager
def _ingested(spark, X: np.ndarray, colors: np.ndarray):
    """The points as a cached, materialized Spark DataFrame (None without
    Spark), built once per sweep so that no coreset timing includes ingest."""
    if spark is None:
        yield None
        return
    df = to_spark_points(spark, X, colors, n_partitions=16).cache()
    try:
        df.count()
        yield df
    finally:
        df.unpersist()


def _timed_coreset(df, X: np.ndarray, colors: np.ndarray, k: int):
    """(Xc, cc, seconds): the Spark coreset of ``df``, or the serial one when
    ``df`` is None."""
    t0 = time.perf_counter()
    if df is not None:
        Xc, cc = coreset_arrays(df, k)
    else:
        sel, cc = coreset_numpy(X, colors, k)
        Xc = X[sel]
    return Xc, cc, time.perf_counter() - t0


def run_algo(
    algo: str,
    X: np.ndarray,
    colors: np.ndarray,
    quotas: np.ndarray,
    *,
    coreset: tuple[np.ndarray, np.ndarray],
    coreset_time: float,
    seed: int = 0,
    timeout_s: float = 600.0,
    fmmds_budget: int = 300_000,
) -> tuple[float, float, np.ndarray, bool, str]:
    """One run of ``algo`` (a label :func:`parse_algo` reads); ``seed``
    draws MFD's rounding, the baselines draw nothing.
    Returns (diversity, runtime_s, missed, dnf, note)."""
    name, params = parse_algo(algo)
    Xc, cc = coreset
    t0 = time.perf_counter()
    try:
        if name == "MFD":
            res = solve_coreset(Xc, cc, quotas, seed=seed, **params)
            dt = time.perf_counter() - t0 + coreset_time
        elif name == "FairFlow":
            res = fairflow(X, colors, quotas)
            dt = time.perf_counter() - t0
        elif name == "FairGreedyFlow":
            res = solve_coreset(Xc, cc, quotas, solver=fairgreedyflow)
            dt = time.perf_counter() - t0 + coreset_time
        elif name == "FMMD-S":
            res = fmmds(X, colors, quotas, node_budget=fmmds_budget)
            dt = time.perf_counter() - t0
        else:  # SFDM-2
            res = sfdm2_offline(X, colors, quotas, Xc, deadline=t0 + timeout_s, **params)
            if res is None:
                return np.nan, time.perf_counter() - t0, quotas.copy(), True, "timeout"
            dt = time.perf_counter() - t0
    except NodeBudgetExceeded:
        return np.nan, time.perf_counter() - t0, quotas.copy(), True, "budget"
    if dt > timeout_s:
        return np.nan, dt, quotas.copy(), True, "timeout"
    return float(res.diversity), dt, res.missed, False, ""


def sweep(
    dataset: str,
    ks: list[int],
    algos: list[str],
    *,
    quota_mode: str = "equal",
    scale: float | None = None,
    seed: int = 0,
    repeats: int = 5,
    spark=None,
    timeout_s: float = 600.0,
    fmmds_budget: int = 300_000,
) -> list[RunRecord]:
    """Run the full (k x algo) grid for one dataset; MFD (any ``MFD-<g>``)
    is averaged over ``repeats`` seeds, the other algorithms run once."""
    scale = BENCH_SCALES[dataset] if scale is None else scale
    X, colors, meta = dataset_arrays(dataset, scale=scale, seed=seed)
    out: list[RunRecord] = []
    with _ingested(spark, X, colors) as df:
        for k in ks:
            quotas = make_quotas(quota_mode, k, colors, meta.m)
            Xc, cc, coreset_time = _timed_coreset(df, X, colors, k)
            for algo in algos:
                reps = repeats if parse_algo(algo)[0] == "MFD" else 1
                divs, times, missed_acc = [], [], np.zeros(meta.m)
                dnf, note = False, ""
                for r in range(reps):
                    d, dt, missed, bad, why = run_algo(
                        algo,
                        X,
                        colors,
                        quotas,
                        coreset=(Xc, cc),
                        coreset_time=coreset_time,
                        seed=seed + r,
                        timeout_s=timeout_s,
                        fmmds_budget=fmmds_budget,
                    )
                    if bad:
                        dnf, note = True, why
                        break
                    divs.append(d)
                    times.append(dt)
                    missed_acc += missed
                if dnf:
                    rec = RunRecord(dataset, algo, k, quota_mode, meta.n, meta.m, np.nan, np.nan, np.nan, [], True, note)
                else:
                    rec = RunRecord(
                        dataset,
                        algo,
                        k,
                        quota_mode,
                        meta.n,
                        meta.m,
                        float(np.mean(divs)),
                        float(np.mean(times)),
                        float(missed_acc.sum() / len(divs)),
                        (missed_acc / len(divs)).tolist(),
                    )
                out.append(rec)
    return out


def streaming_experiment(
    dataset: str = "beer",
    ks: list[int] = (20, 60, 100),
    *,
    scale: float | None = None,
    seed: int = 0,
    quota_mode: str = "equal",
) -> list[dict]:
    """Fig-10 experiment: stream the dataset once per algorithm; report
    average per-item update time, post-processing time, diversity,
    synopsis size and missed quota slots for StreamMFD vs SFDM-2(e=.15/.75)."""
    scale = BENCH_SCALES[dataset] if scale is None else scale
    X, colors, meta = dataset_arrays(dataset, scale=scale, seed=seed)
    n = len(X)
    # SFDM-2 assumes the spread is known a priori (footnote 6): estimate
    # from a sample, as in [50]'s setup.
    rng = np.random.default_rng(seed)
    samp = X[rng.choice(n, size=min(n, 2000), replace=False)]
    D = pairwise_distances(samp)
    pos = D[D > 0]
    d_min, d_max = float(pos.min()), float(pos.max())
    rows: list[dict] = []
    for k in ks:
        quotas = make_quotas(quota_mode, k, colors, meta.m)
        for label, inst in (
            ("StreamMFD", StreamMFD(meta.d, meta.m, per_color_k=k)),
            ("SFDM-2(e=.15)", SFDM2(meta.d, quotas, eps=0.15, d_min=d_min, d_max=d_max)),
            ("SFDM-2(e=.75)", SFDM2(meta.d, quotas, eps=0.75, d_min=d_min, d_max=d_max)),
        ):
            t0 = time.perf_counter()
            feed(inst, X, colors)
            t1 = time.perf_counter()
            res = inst.solution(quotas, seed=seed) if isinstance(inst, StreamMFD) else inst.solution()
            rows.append(
                dict(algo=label, k=k, update_us=(t1 - t0) / n * 1e6, post_s=time.perf_counter() - t1,
                     diversity=res.diversity, stored=inst.stored_items(),
                     missed=float(res.missed.sum()))
            )
    return rows

