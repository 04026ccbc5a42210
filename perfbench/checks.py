"""Per-answer output checks, recomputed in DuckDB.

The checks do not use ``repro.core.geometry``: the input rows and every
returned set are registered as DuckDB tables and compared there, as in
``repro.oracle``. A FairDiv answer passes when

- it is non-empty and each returned point is a distinct row of the input
  with that row's color;
- the reported diversity equals div(S) recomputed by DuckDB;
- div(S) is larger than the certified radius gamma / (2 (1 + eps)).

Quota shortfall is measured here too, always against the requested quotas.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import duckdb
import numpy as np
import pandas as pd


@dataclass
class Answer:
    """What one FairDiv call returned, as the benchmark sees it."""

    points: np.ndarray  # (|S|, d) coordinates of the returned set
    colors: np.ndarray  # (|S|,) their colors
    diversity: float  # the diversity the call reported
    gamma: float  # the candidate diversity the call certified
    problems: list[str] = field(default_factory=list)  # workload-specific failures


def _points_frame(X: np.ndarray, colors: np.ndarray) -> pd.DataFrame:
    pdf = pd.DataFrame(np.asarray(X, dtype=np.float64),
                       columns=[f"x{i}" for i in range(X.shape[1])])
    pdf["color"] = np.asarray(colors, dtype=np.int64)
    return pdf


class OutputChecker:
    """Checks answers against one input point set held in DuckDB."""

    def __init__(self, X: np.ndarray, colors: np.ndarray, quotas: np.ndarray, eps: float):
        self.quotas = np.asarray(quotas, dtype=np.int64)
        self.eps = float(eps)
        self.cols = [f"x{i}" for i in range(X.shape[1])]
        # One DuckDB thread: the checks are small, and an idle pool of worker
        # threads would share the cores with the calls being timed.
        self.con = duckdb.connect(config={"threads": 1})
        self.con.register("input_pts", _points_frame(X, colors))

    def close(self) -> None:
        self.con.close()

    def missed(self, colors: np.ndarray) -> int:
        """Sum over colors of max(0, k_j - |S & c_j|) against the requested quotas."""
        have = np.bincount(np.asarray(colors, dtype=np.int64), minlength=len(self.quotas))
        return int(np.maximum(0, self.quotas - have[: len(self.quotas)]).sum())

    def check(self, ans: Answer) -> tuple[float, list[str]]:
        """Return (div(S) recomputed by DuckDB, list of failed checks)."""
        problems = list(ans.problems)
        n_sel = len(ans.points)
        if n_sel == 0:
            return float("nan"), problems + ["empty answer"]
        sel = _points_frame(ans.points, ans.colors)
        sel["sid"] = np.arange(n_sel)
        self.con.register("sel", sel)
        try:
            same = " AND ".join(f"p.{c} = s.{c}" for c in self.cols + ["color"])
            matched = self.con.execute(
                f"SELECT count(*) FROM sel s WHERE EXISTS "
                f"(SELECT 1 FROM input_pts p WHERE {same})"
            ).fetchone()[0]
            distinct = self.con.execute(
                f"SELECT count(*) FROM (SELECT DISTINCT {', '.join(self.cols)} FROM sel)"
            ).fetchone()[0]
            sq = " + ".join(f"(a.{c} - b.{c}) * (a.{c} - b.{c})" for c in self.cols)
            div = self.con.execute(
                f"SELECT min(sqrt({sq})) FROM sel a JOIN sel b ON a.sid < b.sid"
            ).fetchone()[0]
        finally:
            self.con.unregister("sel")
        div = float("inf") if div is None else float(div)
        if matched != n_sel:
            problems.append(f"{n_sel - matched} returned points are not input rows of their color")
        if distinct != n_sel:
            problems.append(f"{n_sel - distinct} returned points are duplicates")
        if not np.isclose(ans.diversity, div, rtol=1e-9, atol=1e-12):
            problems.append(f"reported diversity {ans.diversity!r} != recomputed {div!r}")
        radius = ans.gamma / (2.0 * (1.0 + self.eps))
        if not div > radius:
            problems.append(f"div(S) {div!r} <= certified radius {radius!r}")
        return div, problems
