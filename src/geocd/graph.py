"""1-hop kNN adjacency over the merged predicted + ground-truth set.

The graph is one edge list sorted by (src, dst). Non-neighbour entries hold
a finite sentinel (1.0 by default) instead of infinity; after
unit-bounding-box normalization every true distance stays below it, so
sentinel entries barely influence the softmin while keeping the arithmetic
finite.
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
    """Directed 1-hop kNN edges, sorted by (src, dst).

    Edge ``e`` runs from ``src[e]`` to ``dst[e]`` with Euclidean length
    ``length[e]``. Every pair not listed holds the sentinel, and the diagonal
    is zero. kNN is directed, so the edge set is generally asymmetric. An
    edge whose length equals the sentinel (two points at opposite corners of
    the unit box) is still an edge and still carries gradient.
    """

    src: np.ndarray  # (e,) intp
    dst: np.ndarray  # (e,) intp
    length: np.ndarray  # (e,) float64
    size: int
    sentinel: float

    def dense(self) -> np.ndarray:
        """(size, size) 1-hop matrix, for oracles and tests."""
        out = np.full((self.size, self.size), self.sentinel)
        np.fill_diagonal(out, 0.0)
        out[self.src, self.dst] = self.length
        return out


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
    if not np.isfinite(sentinel):
        raise ValueError(f"sentinel must be finite, got {sentinel}")
    src, dst, length = [], [], []
    for r0 in range(0, n, BLOCK):
        d = pairwise_distances(z.points[r0 : r0 + BLOCK], z.points)
        own = np.arange(d.shape[0])
        d[own, own + r0] = np.inf  # self is never its own neighbour
        kth = np.partition(d, k - 1, axis=1)[:, k - 1, None]
        sel = d <= kth
        # rows with more than k entries at or below the k-th distance keep
        # the lowest-index ties, as a stable sort of the row would
        tied = np.flatnonzero(np.count_nonzero(sel, axis=1) > k)
        dt, kt = d[tied], kth[tied]
        eq = dt == kt
        free = k - np.count_nonzero(dt < kt, axis=1)
        sel[tied] &= ~eq | (np.cumsum(eq, axis=1) <= free[:, None])
        r, c = np.nonzero(sel)
        src.append(r + r0)
        dst.append(c)
        length.append(d[r, c])
    src, dst, length = (np.concatenate(a) for a in (src, dst, length))
    if symmetrize:
        # the reverse edge has the same length: (a-b)^2 equals (b-a)^2 exactly
        key, first = np.unique(np.r_[src * n + dst, dst * n + src], return_index=True)
        src, dst = np.divmod(key, n)
        length = np.r_[length, length][first]
    return Adjacency(src, dst, length, n, float(sentinel))
