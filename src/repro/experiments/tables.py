"""Render harness RunRecords as the markdown tables EXPERIMENTS.md embeds."""
from __future__ import annotations

import math

from .harness import RunRecord


def _fmt(v: float, nd: int = 3) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "DNF"
    return f"{v:.{nd}f}"


def pivot_table(
    records: list[RunRecord], value: str, *, title: str, nd: int = 3
) -> str:
    """One row per (dataset, algo), one column per k; cells = ``value``."""
    ks = sorted({r.k for r in records})
    keys = sorted({(r.dataset, r.algo) for r in records})
    lines = [f"### {title}", "", "| dataset | algorithm | " + " | ".join(f"k={k}" for k in ks) + " |"]
    lines.append("|---|---|" + "---|" * len(ks))
    cell = {(r.dataset, r.algo, r.k): getattr(r, value) for r in records}
    for ds, algo in keys:
        row = [ds, algo] + [_fmt(cell.get((ds, algo, k), float("nan")), nd) for k in ks]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def missed_table(records: list[RunRecord], *, title: str) -> str:
    """Table-4 style: per-color average missed points, one row per (algo, k)."""
    lines = [f"### {title}", ""]
    m = max(r.m for r in records)
    hdr = "| dataset | algorithm | k | " + " | ".join(f"c{j}" for j in range(m)) + " | total |"
    lines.append(hdr)
    lines.append("|---|---|---|" + "---|" * (m + 1))
    for r in sorted(records, key=lambda x: (x.dataset, x.algo, x.k)):
        per = list(r.missed_per_color) + [0.0] * (m - len(r.missed_per_color))
        cells = [_fmt(v, 1) for v in per]
        lines.append(
            f"| {r.dataset} | {r.algo} | {r.k} | " + " | ".join(cells) + f" | {_fmt(r.missed_total, 2)} |"
        )
    return "\n".join(lines) + "\n"


def pareto_table(records: list[RunRecord], *, title: str) -> str:
    """Fig-9 style: (runtime, diversity) per algorithm plus pareto flag."""
    lines = [f"### {title}", "", "| dataset | algorithm | runtime (s) | diversity | pareto-optimal |"]
    lines.append("|---|---|---|---|---|")
    by_ds: dict[str, list[RunRecord]] = {}
    for r in records:
        by_ds.setdefault(r.dataset, []).append(r)
    for ds, rs in sorted(by_ds.items()):
        ok = [r for r in rs if not r.dnf]
        for r in sorted(rs, key=lambda x: x.algo):
            if r.dnf:
                lines.append(f"| {ds} | {r.algo} | DNF | DNF | no |")
                continue
            dominated = any(
                (o.runtime_s < r.runtime_s and o.diversity >= r.diversity)
                or (o.runtime_s <= r.runtime_s and o.diversity > r.diversity)
                for o in ok
                if o is not r
            )
            lines.append(
                f"| {ds} | {r.algo} | {_fmt(r.runtime_s, 2)} | {_fmt(r.diversity, 3)} | {'no' if dominated else 'yes'} |"
            )
    return "\n".join(lines) + "\n"


def streaming_table(rows: list[dict], *, title: str) -> str:
    """Fig-10 style: update time / post time / diversity / stored items /
    missed quota slots per algorithm."""
    lines = [
        f"### {title}",
        "",
        "| algorithm | k | avg update (µs) | post-processing (s) | diversity | stored items | missed |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['algo']} | {r['k']} | {_fmt(r['update_us'], 1)} | {_fmt(r['post_s'], 3)} "
            f"| {_fmt(r['diversity'], 3)} | {r['stored']} | {_fmt(r['missed'], 0)} |"
        )
    return "\n".join(lines) + "\n"
