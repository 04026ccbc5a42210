"""Small vectorized geometric primitives shared by every module.

All point sets are ``(n, d)`` float64 numpy arrays. Colors are ``(n,)``
integer arrays in ``[0, m)``. These helpers are the single source of
truth for distance semantics (Euclidean, per Definition 1 of the paper).
"""
from __future__ import annotations

import math

import numpy as np


def pairwise_distances(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Dense Euclidean distance matrix between rows of ``X`` and ``Y``.

    ``Y=None`` means ``Y=X``. Uses the expanded-square identity with a
    clip at 0 to absorb negative round-off before the sqrt. Both read
    C-ordered copies, so the bits do not depend on the memory layout (a
    row sum of d >= 8 values is added pairwise only over a contiguous row).
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = X if Y is None else np.ascontiguousarray(Y, dtype=np.float64)
    sq = (
        (X * X).sum(axis=1)[:, None]
        + (Y * Y).sum(axis=1)[None, :]
        - 2.0 * (X @ Y.T)
    )
    np.clip(sq, 0.0, None, out=sq)
    return np.sqrt(sq)


# Distance cells per row block of :func:`pairs_within`: large enough for
# one efficient matrix product per block, small enough to keep memory at
# O(nnz + n) rather than O(n^2).
_BLOCK_CELLS = 1 << 18


def sq_threshold(r: float) -> float:
    """The largest double t with ``sqrt(t) <= r`` (nan if r < 0 or nan).
    sqrt is correctly rounded and so monotone: for every double ``sq``,
    ``sq <= t`` iff ``sqrt(max(sq, 0)) <= r``."""
    r = float(r)
    if not r >= 0.0:
        return math.nan
    t = r * r
    while math.sqrt(t) > r:
        t = math.nextafter(t, -math.inf)
    while t < math.inf and math.sqrt(math.nextafter(t, math.inf)) <= r:
        t = math.nextafter(t, math.inf)
    return t


def pairs_within(X: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair ``(i, j)`` with ``||x_i - x_j|| <= r``, as two
    arrays sorted by (i, j): ``np.nonzero(pairwise_distances(X) <= r)``
    without the n×n matrix.

    Each row block ``[s, e)`` is measured against rows ``s:`` only (the
    upper triangle, diagonal block included) and its pairs beyond the
    diagonal block are mirrored. A block's squared distances are
    :func:`pairwise_distances`' expanded square, operation for operation
    (row norms taken once, two block buffers reused), so they are bitwise
    symmetric and equal the full matrix's; the clip and the sqrt are
    replaced by ``sq <= sq_threshold(r)``, which selects the same pairs.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n = len(X)
    t = sq_threshold(r)
    xx = (X * X).sum(axis=1)
    cells = min(n * n, max(_BLOCK_CELLS, n))
    gram, sq = np.empty(cells), np.empty(cells)
    keys = [np.empty(0, dtype=np.int64)]
    s = 0
    while s < n:
        w = n - s
        e = min(n, s + max(1, _BLOCK_CELLS // w))
        G = gram[: (e - s) * w].reshape(e - s, w)
        S = sq[: (e - s) * w].reshape(e - s, w)
        np.matmul(X[s:e], X[s:].T, out=G)
        G *= 2.0
        np.add(xx[s:e, None], xx[None, s:], out=S)
        S -= G
        i, j = np.divmod(np.flatnonzero(S <= t), w)
        i += s
        j += s
        off = j >= e
        keys += [i * n + j, j[off] * n + i[off]]
        s = e
    key = np.concatenate(keys)
    key.sort()
    i = key // max(n, 1)
    key %= max(n, 1)
    return i, key


def dists_to_point(X: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Euclidean distance from every row of ``X`` to the single point ``p``:
    the row-major form, for callers with one point at a time (many points
    against one X go through :func:`dists_to_point_cm`)."""
    diff = np.asarray(X, dtype=np.float64) - np.asarray(p, dtype=np.float64)[None, :]
    return np.sqrt((diff * diff).sum(axis=1))


def dists_to_point_cm(XT: np.ndarray, p: np.ndarray, buf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`dists_to_point` of X from its coordinate-major copy
    ``XT = np.ascontiguousarray(X.T)`` of shape (d, n): one subtract, one
    square and one sum, each over whole coordinate rows, into the scratch
    ``buf`` (shape of XT, overwritten) and ``out`` (shape (n,), returned).
    The squares are added in coordinate order, so the bits equal
    :func:`dists_to_point`'s for d < 8, where numpy's row sum adds in that
    order too, and are within rounding of them above."""
    np.subtract(XT, p[:, None], out=buf)
    np.multiply(buf, buf, out=buf)
    np.add.reduce(buf, axis=0, out=out)
    return np.sqrt(out, out=out)


# Rows per step of :func:`greedy_net`, measured pairwise so that a run of
# mutually distant rows joins in one step. _EARLIER[t, s] is s < t.
# _NET_CELLS (128 KiB of doubles) keeps each broadcast block in cache.
_NET_HEAD = 32
_EARLIER = np.tri(_NET_HEAD, k=-1, dtype=bool)
_NET_CELLS = 1 << 14


def greedy_net(X: np.ndarray, r: float) -> np.ndarray:
    """Increasing row indices of the greedy r-net of ``X``: in row order, a
    row joins when it lies farther than ``r`` from every earlier member;
    "at least sep apart" is ``r = np.nextafter(sep, -np.inf)``. Each step
    joins the longest pairwise-far prefix of the first :data:`_NET_HEAD`
    rows still far from every member, then drops the rows within r of a
    new member. Distances are :func:`dists_to_point`'s, bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    members = [np.empty(0, dtype=np.int64)]
    pending = np.arange(len(X))
    while len(pending):
        head = X[pending[:_NET_HEAD]]
        h = len(head)
        near = (~(_cross_dists(head, head) > r) & _EARLIER[:h, :h]).any(axis=1)
        t = int(np.argmax(near)) if near.any() else h
        members.append(pending[:t])
        rest = pending[t:]
        pending = rest[(_cross_dists(X[rest], head[:t]) > r).all(axis=1)]
    return np.concatenate(members)


def _cross_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``dists_to_point(A, b)`` for every row b of ``B``, as the columns of
    one matrix, in row blocks of at most :data:`_NET_CELLS` cells."""
    out = np.empty((len(A), len(B)))
    step = max(1, _NET_CELLS // max(1, len(B) * A.shape[1]))
    for s in range(0, len(A), step):
        diff = A[s:s + step, None, :] - B[None, :, :]
        out[s:s + step] = np.sqrt((diff * diff).sum(axis=2))
    return out


def diversity(X: np.ndarray) -> float:
    """``div(S)``: minimum pairwise Euclidean distance (inf for |S| < 2)."""
    X = np.asarray(X, dtype=np.float64)
    if len(X) < 2:
        return float("inf")
    D = pairwise_distances(X)
    np.fill_diagonal(D, np.inf)
    return float(D.min())


def color_counts(colors: np.ndarray, m: int) -> np.ndarray:
    """Count of points per color id, as an ``(m,)`` int array. Raises
    ``ValueError`` if an id lies outside ``[0, m)``."""
    colors = np.asarray(colors, dtype=np.int64)
    if len(colors) and (colors.min() < 0 or colors.max() >= m):
        raise ValueError(f"color ids must lie in [0, {m}); got {colors.min()}..{colors.max()}")
    return np.bincount(colors, minlength=m)


def satisfies_quotas(colors: np.ndarray, quotas: np.ndarray) -> bool:
    """True iff the multiset ``colors`` contains >= quotas[j] of each color j."""
    quotas = np.asarray(quotas, dtype=np.int64)
    return bool(np.all(color_counts(colors, len(quotas)) >= quotas))


def missed_per_color(colors: np.ndarray, quotas: np.ndarray) -> np.ndarray:
    """Per-color shortfall max(0, k_j - |S(c_j)|) — the Table 4 metric."""
    quotas = np.asarray(quotas, dtype=np.int64)
    return np.maximum(0, quotas - color_counts(colors, len(quotas)))


def equal_quotas(k: int, m: int) -> np.ndarray:
    """Paper's "equal k_j" split: k_j = k/m, remainder spread over the
    first ``k mod m`` colors so that sum k_j == k exactly."""
    base, rem = divmod(int(k), int(m))
    q = np.full(m, base, dtype=np.int64)
    q[:rem] += 1
    return q


def proportional_quotas(k: int, colors: np.ndarray, m: int) -> np.ndarray:
    """Paper's "proportional k_j": k_j = round(k * |P(c_j)| / n), then
    adjusted (largest-remainder style) so that sum k_j == k exactly."""
    counts = color_counts(colors, m).astype(np.float64)
    ideal = k * counts / counts.sum()
    q = np.floor(ideal).astype(np.int64)
    rem = ideal - q
    short = int(k - q.sum())
    if short > 0:
        q[np.argsort(-rem)[:short]] += 1
    # A quota can never exceed the color's population.
    return np.minimum(q, counts.astype(np.int64))
