"""Runs one benchmark workload in this process and prints its metrics.

Started by ``run.py`` in a fresh process per run (see there for the
environment it sets). Sequence:

1. set up the workload ``SETUPS`` times (inputs, ingest, one warm-up call)
   and keep the last set-up; ``setup_s`` is the median;
2. ``--trace 0``: run the closed loop for ``--seconds`` with tracing off
   and report the end-to-end metrics;
   ``--trace 1``: run half the time untraced, then half traced, and report
   the per-layer metrics, including the tracing overhead;
3. print one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from time import perf_counter

import numpy as np

from tracing import Tracer, per_call_median, self_times
from workloads import WORKLOADS

SETUPS = 3

# (name, unit, better); these lists are what BENCHMARK.json declares.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("query_s_p75", "s", "lower"),
    ("diversity", "distance", "higher"),
    ("quota_fill", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
SPAN_LAYERS = [
    "coreset.build", "mfd.solve", "mfd.gamma_bound", "mwu.solve", "mwu.round",
    "mwu.lp2_violation", "geometry.pairwise", "kdtree.build", "kdtree.canonical",
    "streaming.synopsis",
]
CALL_COUNTS = [
    "coreset.spark_jobs", "coreset.spark_stages", "coreset.spark_tasks", "coreset.size",
    "mfd.gamma_rounds", "mwu.round_selected", "geometry.pairwise_calls",
    "geometry.pairwise_cells", "kdtree.canonical_calls", "kdtree.canonical_nodes",
]
SETUP_LAYERS = ["datasets.gen", "coreset.ingest"]
RUN_COUNTS = ["streaming.prunes", "streaming.stored_items"]
PER_LAYER = (
    [(f"{n}_s", "s", "lower") for n in SETUP_LAYERS + SPAN_LAYERS]
    + [(n, "count", "lower") for n in CALL_COUNTS]
    + [("streaming.prunes", "count", "lower"), ("streaming.stored_items", "count", "higher"),
       ("streaming.insert_us_p50", "us", "lower"), ("streaming.insert_us_p99", "us", "lower"),
       ("streaming.inserts_per_s", "1/s", "higher"),
       ("quality.missed_total", "count", "lower"), ("quality.error_rate", "ratio", "lower"),
       ("trace.untraced_query_s_p50", "s", "lower"), ("trace.traced_query_s_p50", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


class Recorder:
    """Times, checks and counts the client's operations for one phase."""

    def __init__(self, workload, tracer: Tracer | None = None, first_call: int = 1):
        self.workload, self.tracer = workload, tracer
        self.next_call = first_call  # call 0 is the set-up's warm-up call
        self.latencies: list[float] = []
        self.insert_s: list[float] = []
        self.attempted = self.failed = 0
        self.divs: list[float] = []
        self.missed: list[int] = []
        self.call_ids: list[int] = []
        self.runs: dict[str, list] = defaultdict(list)

    def query(self, fn, checker) -> None:
        """One FairDiv answer: ``fn(call_id)`` returns a :class:`checks.Answer`,
        which ``checker`` checks."""
        call_id, tr = self.next_call, self.tracer
        self.next_call += 1
        self.attempted += 1
        if tr is not None:
            tr.call_id = call_id
        try:
            t0 = perf_counter()
            ans = tr.call("query", fn, call_id) if tr is not None else fn(call_id)
            dt = perf_counter() - t0
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return
        finally:
            if tr is not None:
                tr.call_id = None
        self.latencies.append(dt)
        if tr is not None:
            self.call_ids.append(call_id)
            for name, v in self.workload.layer_counts(call_id).items():
                tr.counts[(call_id, name)] += v
        div, problems = checker.check(ans)
        if problems:
            self.failed += 1
            print(f"call {call_id} failed its checks: {problems}", file=sys.stderr)
        if np.isfinite(div):
            self.divs.append(div)
        self.missed.append(checker.missed(ans.colors))

    def insert(self, dt: float) -> None:
        self.insert_s.append(dt)

    def per_run(self, name: str, value: float) -> None:
        self.runs[name].append(value)


def run_phase(workload, rec: Recorder, seconds: float) -> None:
    """Closed loop: one unit of work after another until ``seconds`` pass."""
    t0 = perf_counter()
    while True:
        workload.run_once(rec)
        if perf_counter() - t0 >= seconds:
            return


def install_tracing(tr: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.core import coreset, geometry, kdtree, mfd, mwu, streaming

    def cells(t, args, out):
        t.add("geometry.pairwise_calls")
        t.add("geometry.pairwise_cells", out.size)

    def canonical(t, args, out):
        t.add("kdtree.canonical_calls")
        t.add("kdtree.canonical_nodes", len(out))

    tr.wrap_everywhere(coreset.coreset_arrays, "coreset.build",
                       lambda t, a, out: t.add("coreset.size", len(out[0])))
    tr.wrap_everywhere(mfd.mfd, "mfd.solve")
    tr.wrap_everywhere(mfd.gamma_upper_bound, "mfd.gamma_bound")
    for fn in (mwu.solve_dense, mwu.solve_tree):
        tr.wrap_everywhere(fn, "mwu.solve", lambda t, a, out: t.add("mfd.gamma_rounds"))
    for fn in (mwu.round_dense, mwu.round_tree):
        tr.wrap_everywhere(fn, "mwu.round", lambda t, a, out: t.add("mwu.round_selected", len(out)))
    tr.wrap_everywhere(mwu.lp2_violation, "mwu.lp2_violation")
    tr.wrap_everywhere(geometry.pairwise_distances, "geometry.pairwise", cells)
    tr.wrap(kdtree.KDTree, "__init__", "kdtree.build")
    tr.wrap(kdtree.KDTree, "canonical_nodes", "kdtree.canonical", canonical)
    tr.wrap(streaming.StreamMFD, "synopsis", "streaming.synopsis")


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _quality(workload, recs: list[Recorder]) -> tuple[float, float]:
    """(mean recomputed diversity, mean missed quota slots) over all answers."""
    divs = [d for r in recs for d in r.divs]
    missed = [m for r in recs for m in r.missed]
    return (float(np.mean(divs)) if divs else 0.0,
            float(np.mean(missed)) if missed else float(workload.quotas.sum()))


def end_to_end(workload, seconds: float, setups: list[float]):
    rec = Recorder(workload)
    run_phase(workload, rec, seconds)
    div, missed = _quality(workload, [rec])
    k = float(workload.quotas.sum())
    values = {
        "setup_s": _median(setups),
        # The upper quartile, not the median: see "query_s_p75" in README.md.
        "query_s_p75": float(np.percentile(rec.latencies, 75)) if rec.latencies else 0.0,
        "diversity": div,
        "quota_fill": 1.0 - missed / k,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = (f"{len(rec.latencies)} answers, {len(rec.insert_s)} inserts; "
               f"error_rate={rec.failed / max(rec.attempted, 1):.4f} missed_total={missed:.3f}")
    return values, rec, summary


def per_layer(workload, seconds: float, setup_layers: dict, trace_path: str):
    plain = Recorder(workload)
    run_phase(workload, plain, seconds / 2)
    tr = Tracer()
    install_tracing(tr)
    try:
        traced = Recorder(workload, tr, first_call=plain.next_call)
        run_phase(workload, traced, seconds / 2)
    finally:
        tr.restore()
    tr.write(trace_path)
    st = self_times(tr.spans)
    ids = traced.call_ids
    values = {f"{n}_s": _median(setup_layers.get(n + "_s", [])) for n in SETUP_LAYERS}
    values.update({f"{n}_s": per_call_median(st, n, ids) for n in SPAN_LAYERS})
    values.update({n: per_call_median(tr.counts, n, ids) for n in CALL_COUNTS})
    for n in RUN_COUNTS:
        values[n] = _median(plain.runs[n] + traced.runs[n])
    ins_us = np.asarray(plain.insert_s) * 1e6
    values["streaming.insert_us_p50"] = float(np.percentile(ins_us, 50)) if len(ins_us) else 0.0
    values["streaming.insert_us_p99"] = float(np.percentile(ins_us, 99)) if len(ins_us) else 0.0
    values["streaming.inserts_per_s"] = len(ins_us) / (ins_us.sum() / 1e6) if len(ins_us) else 0.0
    _, missed = _quality(workload, [plain, traced])
    attempted = plain.attempted + traced.attempted
    values["quality.missed_total"] = missed
    values["quality.error_rate"] = (plain.failed + traced.failed) / max(attempted, 1)
    values["trace.untraced_query_s_p50"] = _median(plain.latencies)
    values["trace.traced_query_s_p50"] = _median(traced.latencies)
    values["trace.overhead_s"] = values["trace.traced_query_s_p50"] - values["trace.untraced_query_s_p50"]
    summary = (f"{len(plain.latencies)} untraced + {len(traced.latencies)} traced answers, "
               f"{len(tr.spans)} spans written to {trace_path}")
    return values, (plain, traced), summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True, help="where the trace file goes")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    setups, setup_layers = [], defaultdict(list)
    for i in range(SETUPS):
        t0 = perf_counter()
        for name, v in workload.setup(args.seed).items():
            setup_layers[name].append(v)
        setups.append(perf_counter() - t0)
        if i < SETUPS - 1:
            workload.teardown(final=False)
    try:
        if args.trace:
            path = os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
            values, recs, summary = per_layer(workload, args.seconds, setup_layers, path)
            catalogue = PER_LAYER
        else:
            values, rec, summary = end_to_end(workload, args.seconds, setups)
            recs, catalogue = (rec,), END_TO_END
    finally:
        workload.teardown(final=True)

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {summary}")
    for name, unit, _ in catalogue:
        print(f"#   {name:28s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in catalogue},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
