"""Outside-in span tracer for the FairDiv benchmark.

The tracer wraps layer entry points by module attribute (for example
``repro.core.mwu.solve_dense`` or ``KDTree.canonical_nodes``); no program
file is changed. Every wrapped call records one span
``[name, start, end, parent, call_id]`` in memory, where ``parent`` is the
index of the enclosing span (-1 for none) and ``call_id`` names the
benchmark request the span belongs to (``None`` outside any request).
Count hooks add per-request counters at the same boundaries. Spans are
written out once, when the run ends.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple, float] = defaultdict(float)
        self.call_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def add(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` of the current request."""
        self.counts[(self.call_id, name)] += n

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, self.call_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``count(tracer, args, result)`` runs after each call, outside the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            out = self.call(name, original, *args, **kwargs)
            if count is not None:
                count(self, args, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_everywhere(self, fn, name: str, count=None) -> None:
        """Wrap ``fn`` in every loaded ``repro`` module that bound it by name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and getattr(mod, fn.__name__, None) is fn:
                self.wrap(mod, fn.__name__, name, count)

    def restore(self) -> None:
        """Undo every wrap, last first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as f:
            for name, start, end, parent, call_id in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "call_id": call_id}) + "\n")


def self_times(spans: list[list]) -> dict[tuple, float]:
    """Self seconds per ``(call_id, span name)``: each span's duration minus
    the durations of its direct children (spans nest, one thread)."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[tuple, float] = defaultdict(float)
    for i, (name, start, end, _, call_id) in enumerate(spans):
        out[(call_id, name)] += (end - start) - child[i]
    return out


def per_call_median(values: dict[tuple, float], name: str, call_ids: list[int]) -> float:
    """Median over ``call_ids`` of a per-call value (0 where a call has none)."""
    if not call_ids:
        return 0.0
    return float(statistics.median(values.get((c, name), 0.0) for c in call_ids))
