"""MWU solver for (LP2) — the paper's Algorithms 2 (Oracle), 3 (Update),
4 (Round) — over one neighborhood incidence.

LP2's constraint matrix A has A[l, i] = 1 iff point i is in S^eps_l. For a
fixed gamma it factors as A = B P^T over a set of nodes: B[l, u] = 1 iff
node u is one of the disjoint nodes covering S^eps_l, and P[i, u] = 1 iff
point i lies under node u. :class:`Incidence` holds B and P as index
arrays, built once per gamma, and Round blocks nodes. Oracle reads
w = A^T h = P (B^T h) with ``np.bincount`` (one call when P is the
identity). Oracle picks exactly k points, so Update's A x is a count: row
l counts the (node, selected point) pairs with the point under a node
covering S^eps_l. It is read one of two ways, chosen once per gamma from
the incidence's sizes (:meth:`Incidence.gathers`):

- gathered from the selection: the selected points' nodes (the points
  themselves, or their leaf→root paths), then those nodes' slices of a
  node-major copy of B, and one ``np.bincount`` of the gathered points —
  about k/n of the pairs, at a fixed cost of some ten numpy calls;
- or :meth:`Incidence.rows` on the 0/1 vector, two ``np.bincount`` passes
  over every pair, which wins on small incidences.

Both give the same exact integer counts. Only the build depends on the
neighborhood kind:

- exact balls (``MWUProblem.tree is None``): the nodes are the points, B
  is the ball matrix (the ball of radius gamma/(2(1+eps)) is a *valid*
  S^eps_p with zero fuzz) and P is the identity. B's pairs come from
  :func:`repro.core.geometry.pairs_within`, which measures symmetric row
  blocks and never holds the n×n distance matrix: O(nnz + n) memory.
  B is symmetric, so it is its own node-major copy;
- tree covers: B lists each point's canonical nodes of the BBD-style
  query ``T(p, gamma/(2(1+eps)))``, all n queries answered by one batched
  :meth:`KDTree.canonical_nodes` call, and P each point's leaf→root
  path — the paper's near-linear Algorithms 2–4.

The oracle is a rho-ORACLE with rho = k (its solution sets exactly k
variables to 1, so A_i x - b_i in [-1, k-1]). The loop sums Update's
counts, so it knows the running average's A x_hat exactly and stops at
the first power-of-two iteration where that is already within eps/2 of
LP2; the paper's T is the cap (:func:`solve`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import pairs_within
from .kdtree import KDTree

# Update gathers from the selection when that reads at least this many
# fewer (point, node) pairs than :meth:`Incidence.rows`; below it, the
# gather's fixed cost of about ten numpy calls is the larger one.
GATHER_MIN_SAVING = 4096


def _segments(values: np.ndarray, start: np.ndarray, lens: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``values[start[i] : start[i] + lens[i]]`` for every i in ``idx``,
    concatenated."""
    s, n = start[idx], lens[idx]
    ends = np.cumsum(n)
    pos = np.repeat(s - ends + n, n)
    pos += np.arange(len(pos))
    return values[pos]


@dataclass
class Incidence:
    """A = B P^T as (point, node) index pairs, both sorted by point.
    ``exact`` marks exact balls: the nodes are the points, P is the
    identity and B is symmetric."""

    n_points: int
    n_nodes: int
    cover_pt: np.ndarray  # B: node cover_node[e] covers part of S^eps_{cover_pt[e]}
    cover_node: np.ndarray
    member_pt: np.ndarray  # P: point member_pt[e] lies under node member_node[e]
    member_node: np.ndarray
    exact: bool = False

    def __post_init__(self) -> None:
        bounds = np.arange(self.n_points + 1)
        self._cover_ptr = np.searchsorted(self.cover_pt, bounds)
        self._cover_len = np.diff(self._cover_ptr)
        self._member_ptr = np.searchsorted(self.member_pt, bounds)

    def coeffs(self, h: np.ndarray) -> np.ndarray:
        """A^T h: w_i = sum of h_l over the l with i in S^eps_l. B is sorted
        by point, so ``h[cover_pt]`` is each h_l repeated per pair of row l."""
        per_node = np.bincount(self.cover_node, weights=np.repeat(h, self._cover_len), minlength=self.n_nodes)
        if self.exact:
            return per_node
        return np.bincount(self.member_pt, weights=per_node[self.member_node], minlength=self.n_points)

    def rows(self, x: np.ndarray) -> np.ndarray:
        """A x: row l is the x-mass of S^eps_l."""
        if self.exact:
            per_node = x
        else:
            per_node = np.bincount(self.member_node, weights=x[self.member_pt], minlength=self.n_nodes)
        return np.bincount(self.cover_pt, weights=per_node[self.cover_node], minlength=self.n_points)

    @cached_property
    def _columns(self) -> tuple:
        """Segment index of P's rows and of B node-major: point i lies
        under ``member_node[ps[i] : ps[i] + pn[i]]``, and node u covers part
        of S^eps_l for every l in ``pts[bs[u] : bs[u] + bn[u]]``. A
        symmetric B is its own node-major copy."""
        ps = self._member_ptr[:-1]
        pn = np.diff(self._member_ptr)
        if self.exact:
            return ps, pn, self.cover_node, self._cover_ptr[:-1], self._cover_len
        order = np.argsort(self.cover_node, kind="stable")
        bn = np.bincount(self.cover_node, minlength=self.n_nodes)
        return ps, pn, self.cover_pt[order], np.cumsum(bn) - bn, bn

    def selected_rows(self, sel: np.ndarray) -> np.ndarray:
        """A x for the 0/1 vector x with ones at ``sel``, as integer counts,
        gathered from the selected points' node columns."""
        ps, pn, pts, bs, bn = self._columns
        nodes = sel if self.exact else _segments(self.member_node, ps, pn, sel)
        return np.bincount(_segments(pts, bs, bn, nodes), minlength=self.n_points)

    def gathers(self, k: int) -> bool:
        """Whether Update reads A x for a k-point selection with
        :meth:`selected_rows` rather than :meth:`rows`: when the pairs it
        skips, about (1 - k/n) of those ``rows`` reads, number at least
        :data:`GATHER_MIN_SAVING`."""
        pairs = len(self.cover_pt) + (0 if self.exact else len(self.member_pt))
        return pairs * (1.0 - k / self.n_points) >= GATHER_MIN_SAVING

    def covers(self, i: int) -> np.ndarray:
        """Nodes covering S^eps_i."""
        return self.cover_node[self._cover_ptr[i] : self._cover_ptr[i + 1]]

    def members(self, i: int) -> np.ndarray:
        """Nodes that point i lies under."""
        return self.member_node[self._member_ptr[i] : self._member_ptr[i + 1]]


@dataclass(frozen=True)
class MWUProblem:
    """A FairDiv LP2 instance at a fixed candidate diversity gamma.

    ``tree`` (a KD-tree over ``X``) selects tree-cover neighborhoods;
    ``None`` selects exact balls. Frozen, because :attr:`incidence` is
    cached from the fields.
    """

    X: np.ndarray  # (n, d) points
    colors: np.ndarray  # (n,) int color ids
    quotas: np.ndarray  # (m,) k_j
    gamma: float
    eps: float
    tree: KDTree | None = None

    @property
    def radius(self) -> float:
        """The LP2 ball radius gamma / (2 (1 + eps))."""
        return self.gamma / (2.0 * (1.0 + self.eps))

    @cached_property
    def incidence(self) -> Incidence:
        """This gamma's neighborhood incidence, shared by solve, round and
        :func:`lp2_violation`."""
        n = len(self.X)
        if self.tree is None:
            cover_pt, cover_node = pairs_within(self.X, self.radius)
            ident = np.arange(n)
            return Incidence(n, n, cover_pt, cover_node, ident, ident, exact=True)
        cover_pt, cover_node = self.tree.canonical_nodes(self.X, self.radius, self.eps).T.copy()
        return Incidence(n, self.tree.n_nodes, cover_pt, cover_node, *self.tree.leaf_paths())


def _color_groups(colors: np.ndarray, quotas: np.ndarray):
    """The Oracle's per-color layout, built once per solve: ``perm`` lists
    the points grouped by color, ascending within a color; ``spans`` holds
    (start, stop, k_j) of every color with k_j > 0, whose points are
    ``perm[start:stop]``; ``offsets`` repeats each start k_j times. None if
    a color has fewer than k_j points."""
    perm = np.argsort(colors, kind="stable")
    bounds = np.searchsorted(colors[perm], np.arange(len(quotas) + 1))
    if np.any(np.diff(bounds) < quotas):
        return None
    spans = [(int(bounds[j]), int(bounds[j + 1]), int(kj)) for j, kj in enumerate(quotas) if kj > 0]
    offsets = np.repeat(bounds[:-1], quotas)
    return perm, spans, offsets


def _oracle(inc: Incidence, h: np.ndarray, groups) -> np.ndarray | None:
    """Algorithm 2: minimizes h^T A x over x in P by taking the k_j
    smallest-coefficient points per color, with coefficients w = A^T h;
    feasible iff the minimum is <= 1. Returns the selected points, color
    by color (``groups`` is :func:`_color_groups`'s), or None."""
    w = inc.coeffs(h)
    perm, spans, offsets = groups
    wp = w[perm]
    parts = [np.argpartition(wp[start:stop], kj - 1)[:kj] for start, stop, kj in spans]
    sel = perm[np.concatenate(parts) + offsets]
    if w[sel].sum() > 1.0 + 1e-12:
        return None
    return sel


def iterations(n: int, k: int, eps: float, g: float) -> int:
    """MWU's iteration cap T = ceil(g * T_full) with T_full =
    ceil(eps^-2 k ln n) (the paper's early-stopping parameterization,
    Section 6)."""
    T_full = int(np.ceil(eps**-2 * k * np.log(max(n, 2))))
    return max(1, int(np.ceil(g * T_full)))


class Solution(NamedTuple):
    """MWU's x_hat, the iterations t that averaged it, and its LP2
    violation max_l A_l x_hat - 1 read from Update's counts."""

    xhat: np.ndarray
    iterations: int
    violation: float


def solve(prob: MWUProblem, *, g: float = 0.3) -> Solution | None:
    """MWU main loop, at most :func:`iterations` T iterations. Returns None
    (infeasible) when the Oracle fails.

    Update's counts summed over t iterations are t A x_hat_t, exactly
    (integers far below 2^53; the loop keeps their excess over t). At
    t = 1, 2, 4, ... it stops early when max_l t A_l x_hat_t <=
    t (1 + eps/2): that x_hat_t, a convex combination of Oracle outputs,
    lies in P and meets Constraints (11) within eps/2, the certificate
    Round needs; T only bounds how long reaching one can take (a
    departure from the paper's fixed T)."""
    n = len(prob.X)
    k = int(prob.quotas.sum())
    inc = prob.incidence
    if k == 0:
        return Solution(np.zeros(n), 0, -1.0)
    groups = _color_groups(prob.colors, prob.quotas)
    if groups is None:
        return None
    if inc.gathers(k):
        update = inc.selected_rows
    else:
        def update(sel: np.ndarray) -> np.ndarray:
            xbar = np.zeros(n)
            xbar[sel] = 1.0
            return inc.rows(xbar)

    T = iterations(n, k, prob.eps, g)
    h = np.full(n, 1.0 / n)
    xhat = np.zeros(n)
    excess = np.zeros(n)  # t (A x_hat_t - 1), summed from Update's counts
    eta = prob.eps / 4.0
    for t in range(1, T + 1):
        sel = _oracle(inc, h, groups)
        if sel is None:
            return None
        xhat[sel] += 1.0
        # Algorithm 3: delta_l = (A_l xbar - 1) / k; h_l *= (1 + eta delta_l),
        # in place on one array.
        delta = update(sel) - 1.0
        excess += delta
        if t == T or ((t & (t - 1)) == 0 and excess.max() + t <= t * (1.0 + prob.eps / 2.0)):
            return Solution(xhat / t, t, float(excess.max() / t))
        delta /= k
        delta *= eta
        delta += 1.0
        h *= delta
        h /= h.sum()


def round_solution(prob: MWUProblem, xhat: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Algorithm 4: visit the positive-weight points in one Gumbel-top-k
    order (the distribution of sequential weighted sampling without
    replacement); a point joins S iff none of its cover nodes is blocked,
    and joining blocks the nodes it lies under. For exact balls this
    rejects points within the LP2 radius of an earlier member of S; for
    tree covers it is the paper's leaf→root deactivation. Returns selected
    indices in sampling order.
    """
    pos = np.where(xhat > 0)[0]
    if len(pos) == 0:
        return np.empty(0, dtype=np.int64)
    gumbel = rng.gumbel(size=len(pos))
    order = pos[np.argsort(-(np.log(xhat[pos]) + gumbel))]
    inc = prob.incidence
    blocked = np.zeros(inc.n_nodes, dtype=bool)
    S: list[int] = []
    for i in order:
        if not blocked[inc.covers(i)].any():
            S.append(int(i))
            blocked[inc.members(i)] = True
    return np.array(S, dtype=np.int64)


# Names perfbench/worker.py's tracer looks up. It wraps by ``__name__``, so
# each wraps ``solve`` or ``round_solution``, the attributes mfd calls.
solve_dense = solve_tree = solve
round_dense = round_tree = round_solution


def lp2_violation(prob: MWUProblem, xhat: np.ndarray) -> float:
    """Max over points p of (sum_{i in S^eps_p} x_i) - 1 — the additive
    error of Constraints (11) over the neighborhoods MWU solved (exact
    balls, or tree covers), by one :meth:`Incidence.rows` pass; MWU
    guarantees <= eps for full T, and <= eps/2 when it stops early."""
    return float(prob.incidence.rows(xhat).max() - 1.0)
