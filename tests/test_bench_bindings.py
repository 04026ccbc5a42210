"""The benchmark's per-layer tracer (``perfbench/``) still finds the layer
entry points that ``mfd`` runs through, on both neighborhood kinds, and
undoes every wrap afterwards."""
import importlib
import os
import sys

import numpy as np
import pytest

from repro.core import coreset, geometry, kdtree, mfd, mwu, streaming  # noqa: F401

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``tracing`` and ``worker`` modules, imported unchanged."""
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("tracing"), importlib.import_module("worker")
    finally:
        sys.path.remove(PERFBENCH)


def _bindings() -> dict:
    """Every callable bound in a loaded ``repro`` module, plus the class
    attributes of the classes the tracer patches."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "repro":
            out.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
    for cls in (kdtree.KDTree, streaming.StreamMFD):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


@pytest.mark.parametrize("backend", ["dense", "tree"])
def test_tracer_wraps_mfd_layers(bench, backend):
    tracing, worker = bench
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 2))
    colors = np.arange(60) % 3
    quotas = np.array([2, 2, 2])
    before = _bindings()
    tr = tracing.Tracer()
    worker.install_tracing(tr)
    try:
        res = mfd.mfd(X, colors, quotas, backend=backend, seed=0)
    finally:
        tr.restore()

    names = {span[0] for span in tr.spans}
    expect = {"mfd.solve", "mfd.gamma_bound", "mwu.solve", "mwu.round"}
    expect |= {"kdtree.build", "kdtree.canonical"} if backend == "tree" else {"geometry.pairwise"}
    assert expect <= names, expect - names
    assert "mwu.lp2_violation" not in names  # MWU reads x_hat's violation from its own counts
    rounds = res.extras["counters"]["gamma_rounds"]
    assert tr.counts[(None, "mfd.gamma_rounds")] == rounds
    assert tr.counts[(None, "mwu.round_selected")] == res.extras["counters"]["raw_size"]
    if backend == "tree":
        # One batched canonical query per candidate gamma.
        assert tr.counts[(None, "kdtree.canonical_calls")] == rounds

    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
