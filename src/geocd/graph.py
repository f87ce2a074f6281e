"""1-hop kNN adjacency over the merged predicted + ground-truth set.

Non-neighbour entries hold a finite sentinel (1.0 by default) instead of
infinity; after unit-bounding-box normalization every true distance stays
below it, so sentinel entries barely influence the softmin while keeping
the arithmetic finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .distances import BLOCK, pairwise_distances
from .errors import KTooLargeError


@dataclass
class MergedSet:
    """Concatenated pair: predicted points first (indices [0, n_pred))."""

    points: np.ndarray
    n_pred: int
    n_gt: int

    @property
    def size(self) -> int:
        return self.n_pred + self.n_gt

    def is_pred(self) -> np.ndarray:
        flags = np.zeros(self.size, dtype=bool)
        flags[: self.n_pred] = True
        return flags


@dataclass
class Adjacency:
    """Dense 1-hop matrix: Euclidean length to the k nearest neighbours of
    each row, sentinel elsewhere, zero diagonal.

    kNN is directed, so the matrix is generally asymmetric. ``edge_mask``
    records which entries are real edges; this matters because an edge
    length can coincide with the sentinel value (two points at opposite
    corners of the unit box), yet must still carry gradient.
    """

    dist: np.ndarray
    edge_mask: np.ndarray
    k: int
    sentinel: float

    @property
    def size(self) -> int:
        return self.dist.shape[0]


def merge(pred: PointCloud, gt: PointCloud) -> MergedSet:
    return MergedSet(np.vstack([pred.points, gt.points]), pred.size, gt.size)


def knn_adjacency(
    z: MergedSet, k: int, sentinel: float = 1.0, symmetrize: bool = False
) -> Adjacency:
    """Build the directed kNN adjacency of the merged set.

    Ties at the k-th neighbour distance break toward the lower point index,
    making the graph deterministic across platforms. ``symmetrize`` adds the
    reverse of every edge (off by default).
    """
    n = z.size
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n - 1:
        raise KTooLargeError(f"k={k} exceeds the {n - 1} other points in the merged set")
    dist = pairwise_distances(z.points, z.points)
    np.fill_diagonal(dist, np.inf)  # self is never its own neighbour
    mask = np.empty((n, n), dtype=bool)
    for r0 in range(0, n, BLOCK):
        d, sel = dist[r0 : r0 + BLOCK], mask[r0 : r0 + BLOCK]
        kth = np.partition(d, k - 1, axis=1)[:, k - 1, None]
        np.less_equal(d, kth, out=sel)
        # rows with more than k entries at or below the k-th distance keep
        # the lowest-index ties, as a stable sort of the row would
        tied = np.flatnonzero(np.count_nonzero(sel, axis=1) > k)
        dt, kt = d[tied], kth[tied]
        eq = dt == kt
        free = k - np.count_nonzero(dt < kt, axis=1)
        sel[tied] &= ~eq | (np.cumsum(eq, axis=1) <= free[:, None])
    if symmetrize:
        mask |= mask.T
    np.putmask(dist, ~mask, float(sentinel))
    np.fill_diagonal(dist, 0.0)
    return Adjacency(dist=dist, edge_mask=mask, k=k, sentinel=float(sentinel))
