"""Slow reference implementations for tests and the ``verify`` command.

Deliberately independent of the production code: the kNN graph comes from a
stable sort of every dense distance row, shortest walks are recomputed per
source with plain relaxation rounds over the dense edge set, nearest
neighbours are the argmin of the full squared-length matrix, and gradients
come from central finite differences. ``dense``, ``d_xy`` and ``d_yx``
expand a walk record into full matrices; no other module builds one.
"""

from __future__ import annotations

import heapq

import numpy as np

from .geodesic import GeoDistances
from .graph import SENTINEL, Hop


def dense(hop: Hop) -> np.ndarray:
    """(size, size) distance matrix of one hop's record."""
    out = np.full((hop.size, hop.size), SENTINEL)
    np.fill_diagonal(out, 0.0)
    out.flat[hop.key] = hop.dist
    return out


def d_xy(geo: GeoDistances) -> np.ndarray:
    """(N, M) final distances, predicted -> ground truth."""
    n = geo.merged.n_pred
    return dense(geo.hops[-1])[:n, n:]


def d_yx(geo: GeoDistances) -> np.ndarray:
    """(M, N) final distances, ground truth -> predicted."""
    n = geo.merged.n_pred
    return dense(geo.hops[-1])[n:, :n]


def stable_sort_knn_mask(
    points: np.ndarray, k: int, symmetrize: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Dense kNN reference: the first k entries of a stable sort of each distance row.

    Returns the (n, n) edge mask, with its transpose added when
    ``symmetrize``, and the distance matrix with NaN on the diagonal, which
    ranks each row's own point after every length, +inf among them, as the
    graph does where squared lengths overflow. Each length is
    ``sqrt((dx*dx + dy*dy) + dz*dz)``, the graph's expression.
    """
    diff = points[:, None, :] - points[None, :, :]
    dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
    d = np.sqrt((dx * dx + dy * dy) + dz * dz)
    np.fill_diagonal(d, np.nan)
    mask = np.zeros(d.shape, dtype=bool)
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    mask[np.arange(len(d))[:, None], order] = True
    return (mask | mask.T) if symmetrize else mask, d


def nearest(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``distances.nearest`` from the full matrix of ``(dx*dx + dy*dy) + dz*dz``:
    its argmin and minimum along each axis, ties to the lower index."""
    diff = p[:, None, :] - q[None, :, :]
    dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
    sq = (dx * dx + dy * dy) + dz * dz
    return sq.argmin(axis=1), sq.min(axis=1), sq.argmin(axis=0), sq.min(axis=0)


def hop_bounded_shortest_paths(adj: Hop, n_hops: int) -> np.ndarray:
    """Cheapest directed walk of at most n_hops edges between every pair.

    Sentinel entries are genuine edges of that cost. One relaxation round
    per extra hop, Jacobi style (each round reads the previous round only),
    so round h holds exactly the <=h-edge optimum.
    """
    if n_hops < 1:
        raise ValueError("n_hops must be >= 1")
    w = dense(adj)
    n = w.shape[0]
    out = np.empty_like(w)
    for s in range(n):
        d = w[s].copy()  # walks of <= 1 edge (diagonal is 0)
        for _ in range(n_hops - 1):
            d = np.minimum(d, (d[:, None] + w).min(axis=0))
        out[s] = d
    return out


def dijkstra_all_pairs(adj: Hop) -> np.ndarray:
    """Converged shortest paths (no hop bound) on the same dense graph."""
    w = dense(adj)
    n = w.shape[0]
    out = np.empty_like(w)
    for s in range(n):
        dist = np.full(n, np.inf)
        dist[s] = 0.0
        done = np.zeros(n, dtype=bool)
        heap = [(0.0, s)]
        while heap:
            d0, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            cand = d0 + w[u]
            better = cand < dist
            for v in np.flatnonzero(better):
                dist[v] = cand[v]
                heapq.heappush(heap, (float(cand[v]), int(v)))
        out[s] = dist
    return out


def finite_diff_grad(loss_fn, points: np.ndarray, step: float = 1e-5, signature_fn=None):
    """Central differences of a scalar loss per coordinate.

    When ``signature_fn`` is given, a coordinate whose +step and -step
    evaluations disagree on the discrete structure (graph topology, argmin
    walks) is flagged: the loss is not differentiable there and the
    numeric quotient is meaningless.

    Returns (grad, flagged) with shapes matching ``points``.
    """
    pts = np.array(points, dtype=np.float64)
    grad = np.zeros_like(pts)
    flagged = np.zeros(pts.shape, dtype=bool)
    for i in range(pts.shape[0]):
        for c in range(pts.shape[1]):
            hi = pts.copy()
            hi[i, c] += step
            lo = pts.copy()
            lo[i, c] -= step
            grad[i, c] = (loss_fn(hi) - loss_fn(lo)) / (2.0 * step)
            if signature_fn is not None and signature_fn(hi) != signature_fn(lo):
                flagged[i, c] = True
    return grad, flagged
