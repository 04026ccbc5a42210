"""MWU solver for (LP2) — the paper's Algorithms 2 (Oracle), 3 (Update),
4 (Round) — over one neighborhood incidence.

LP2's constraint matrix A has A[l, i] = 1 iff point i is in S^eps_l. For a
fixed gamma it factors as A = B P^T over a set of nodes: B[l, u] = 1 iff
node u is one of the disjoint nodes covering S^eps_l, and P[i, u] = 1 iff
point i lies under node u. :class:`Incidence` holds B and P as index
arrays, built once per gamma; Oracle reads w = A^T h = P (B^T h), Update
reads A x = B (P^T x), each two ``np.bincount`` calls, and Round blocks
nodes. Only the build depends on the neighborhood kind:

- exact balls (``MWUProblem.tree is None``): the nodes are the points, B
  is the ball matrix (the ball of radius gamma/(2(1+eps)) is a *valid*
  S^eps_p with zero fuzz) and P is the identity. B's pairs come from
  :func:`repro.core.geometry.pairs_within`, which measures symmetric row
  blocks and never holds the n×n distance matrix: O(nnz + n) memory;
- tree covers: B lists each point's canonical nodes of the BBD-style
  query ``T(p, gamma/(2(1+eps)))``, all n queries answered by one batched
  :meth:`KDTree.canonical_nodes` call, and P each point's leaf→root
  path — the paper's near-linear Algorithms 2–4.

The oracle is a rho-ORACLE with rho = k (its solution sets exactly k
variables to 1, so A_i x - b_i in [-1, k-1]).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import pairs_within
from .kdtree import KDTree


@dataclass
class Incidence:
    """A = B P^T as (point, node) index pairs, both sorted by point."""

    n_points: int
    n_nodes: int
    cover_pt: np.ndarray  # B: node cover_node[e] covers part of S^eps_{cover_pt[e]}
    cover_node: np.ndarray
    member_pt: np.ndarray  # P: point member_pt[e] lies under node member_node[e]
    member_node: np.ndarray

    def __post_init__(self) -> None:
        bounds = np.arange(self.n_points + 1)
        self._cover_ptr = np.searchsorted(self.cover_pt, bounds)
        self._member_ptr = np.searchsorted(self.member_pt, bounds)

    def coeffs(self, h: np.ndarray) -> np.ndarray:
        """A^T h: w_i = sum of h_l over the l with i in S^eps_l."""
        per_node = np.bincount(self.cover_node, weights=h[self.cover_pt], minlength=self.n_nodes)
        return np.bincount(self.member_pt, weights=per_node[self.member_node], minlength=self.n_points)

    def rows(self, x: np.ndarray) -> np.ndarray:
        """A x: row l is the x-mass of S^eps_l."""
        per_node = np.bincount(self.member_node, weights=x[self.member_pt], minlength=self.n_nodes)
        return np.bincount(self.cover_pt, weights=per_node[self.cover_node], minlength=self.n_points)

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
            return Incidence(n, n, cover_pt, cover_node, ident, ident)
        cover_pt, cover_node = self.tree.canonical_nodes(self.X, self.radius, self.eps).T.copy()
        return Incidence(n, self.tree.n_nodes, cover_pt, cover_node, *self.tree.leaf_paths())


def _color_index_lists(colors: np.ndarray, m: int) -> list[np.ndarray]:
    return [np.where(colors == j)[0] for j in range(m)]


def _oracle(
    inc: Incidence, h: np.ndarray, by_color: list[np.ndarray], quotas: np.ndarray
) -> np.ndarray | None:
    """Algorithm 2: minimizes h^T A x over x in P by taking the k_j
    smallest-coefficient points per color, with coefficients w = A^T h;
    feasible iff the minimum is <= 1."""
    w = inc.coeffs(h)
    sel = []
    for j, kj in enumerate(quotas):
        if kj == 0:
            continue
        idx = by_color[j]
        if len(idx) < kj:
            return None
        part = np.argpartition(w[idx], kj - 1)[:kj]
        sel.append(idx[part])
    sel = np.concatenate(sel) if sel else np.empty(0, dtype=np.int64)
    if w[sel].sum() > 1.0 + 1e-12:
        return None
    xbar = np.zeros(len(h))
    xbar[sel] = 1.0
    return xbar


def solve(prob: MWUProblem, *, g: float = 0.3) -> np.ndarray | None:
    """MWU main loop. Returns x_hat or None (infeasible).

    Runs T = ceil(g * T_full) iterations with T_full = ceil(eps^-2 k ln n)
    (the paper's early-stopping parameterization, Section 6).
    """
    n = len(prob.X)
    k = int(prob.quotas.sum())
    if k == 0:
        return np.zeros(n)
    T_full = int(np.ceil(prob.eps**-2 * k * np.log(max(n, 2))))
    T = max(1, int(np.ceil(g * T_full)))
    inc = prob.incidence
    by_color = _color_index_lists(prob.colors, len(prob.quotas))
    h = np.full(n, 1.0 / n)
    xhat = np.zeros(n)
    eta = prob.eps / 4.0
    for _ in range(T):
        xbar = _oracle(inc, h, by_color, prob.quotas)
        if xbar is None:
            return None
        xhat += xbar
        # Algorithm 3: delta_l = (A_l xbar - 1) / k; h_l *= (1 + eta delta_l).
        delta = (inc.rows(xbar) - 1.0) / k
        h *= 1.0 + eta * delta
        h /= h.sum()
    return xhat / T


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
    balls, or tree covers); MWU guarantees <= eps for full T."""
    return float(prob.incidence.rows(xhat).max() - 1.0)
