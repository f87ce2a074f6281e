"""1-hop kNN adjacency over the merged predicted + ground-truth set.

The graph is hop 1 of the walk propagation: one ``Hop`` record of its edges,
sorted by ``key = src * n + dst``. Non-neighbour entries hold the finite
``SENTINEL`` instead of infinity; after unit-bounding-box normalization
every true distance stays below it, so sentinel entries barely influence
the softmin while keeping the arithmetic finite. The neighbours come from
``distances._table``; ``GraphTracker`` keeps them across calls in
``distances.CandidateLists``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .cloud import PointCloud
from .distances import CandidateLists, _across, _first_k, _nearest_of, _pair, _table, list_size
from .distances import squared_lengths
from .errors import DimensionMismatchError, KTooLargeError

# unused here; perfbench/spans.py traces this name through this module
from .distances import pairwise_distances  # noqa: F401

# Value of every non-neighbour entry: the bound on pairwise distances that
# normalize_pair guarantees (the box diagonal is scaled to 1)
SENTINEL = 1.0


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
class Hop:
    """The real walks of one hop over ``size`` points, sorted by ``key = src * size + dst``.

    Every pair not listed holds ``SENTINEL``, and the diagonal is zero. Each
    entry's ``edge`` is the position in hop 1 of its walk's last edge. Hop 1
    is the directed kNN graph: each entry is an edge, its ``dist`` the edge's
    Euclidean length and its ``edge`` its own position. kNN is directed, so
    the edge set is generally asymmetric. An edge whose length equals the
    sentinel (two points at opposite corners of the unit box) is still an
    edge and still carries gradient; rounding that measures it just above
    the sentinel is stored as the sentinel.
    """

    key: np.ndarray  # (e,) int64
    dist: np.ndarray  # (e,) float64, every entry <= sentinel
    edge: np.ndarray  # (e,) int64, the position in hop 1 of the walk's last edge
    size: int

    def find(self, key):
        """Positions of ``key`` in the record and whether each is present."""
        pos = np.minimum(np.searchsorted(self.key, key), self.key.size - 1)
        return pos, self.key[pos] == key


def merge(pred: PointCloud, gt: PointCloud) -> MergedSet:
    return MergedSet(np.vstack([pred.points, gt.points]), pred.size, gt.size)


def _check(pts: np.ndarray, k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(pts) - 1:
        raise KTooLargeError(f"k={k} exceeds the {len(pts) - 1} other points in the merged set")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")


def knn_adjacency(z: MergedSet, k: int, symmetrize: bool = False) -> Hop:
    """Build the directed kNN adjacency of the merged set, as hop 1 of the walks.

    The neighbour table of ``_table``, each row's k edges sorted by index.
    Ties at the k-th neighbour distance break toward the lower point index,
    making the graph deterministic across platforms. ``symmetrize`` adds the
    reverse of every edge (off by default). Coordinates must be finite.
    """
    _check(z.points, k)
    return _edge_list(*_table(z.points, k), symmetrize)


def _edge_list(nbr: np.ndarray, length: np.ndarray, symmetrize: bool) -> Hop:
    """The hop-1 record of a neighbour table, each row sorted by index; see
    ``knn_adjacency``."""
    n = len(nbr)
    key, length = (np.arange(n)[:, None] * n + nbr).ravel(), length.ravel()
    # normalize_pair scales the box diagonal to 1 only up to rounding. With
    # u = 2**-53, a normalized axis difference exceeds s times the box
    # extent by a relative 2u + u*u (shift, then scale), s exceeds one over
    # the true diagonal by 4.5u (difference, dot, sqrt, reciprocal), and the
    # kernel adds 3.5u: normalized points lie at most 1 + 10u + O(u*u) apart
    # as computed. A length at most a relative 8 * eps = 16u above the
    # sentinel is such a rounded sentinel-length edge and is stored as the
    # sentinel; propagate rejects any longer edge.
    limit = SENTINEL * (1 + 8 * np.finfo(np.float64).eps)
    length[(length > SENTINEL) & (length <= limit)] = SENTINEL
    if symmetrize:
        # the reverse edge has the same length: (a-b)^2 equals (b-a)^2 exactly
        src = key // n  # scalar floor division is several times faster than divmod
        key, first = np.unique(np.r_[key, (key - src * n) * n + src], return_index=True)
        length = np.r_[length, length][first]
    return Hop(key, length, np.arange(key.size), n)


def _neighbours(d: np.ndarray, cand: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k nearest candidate columns and its k-th length."""
    c = _first_k(d, cand, k)
    return c, d[np.arange(len(d))[:, None], c].max(axis=1)


class GraphTracker(CandidateLists):
    """``knn_adjacency(z, k, symmetrize)`` for a merged set whose points move a little.

    Every call returns what ``knn_adjacency`` returns, bit for bit, and
    raises what it raises, before it touches the lists or counters. Each
    point keeps ``list_size(k)`` candidates among the others in the
    candidate lists, ranked by rooted length, and every call picks each
    row's k neighbours from them by the graph's own rule (``_first_k``).
    The lists' key is the size of the set and k: another size, another k,
    or a move that overflows, starts over with a full search of every row.
    """

    def __call__(self, z: MergedSet, k: int, symmetrize: bool = False) -> Hop:
        pts = np.asarray(z.points, dtype=np.float64)
        _check(pts, k)
        n = len(pts)
        zt = np.ascontiguousarray(pts.T)
        d, c, _ = self.track(zt, (n, k), min(list_size(k), n - 1), partial(_neighbours, k=k))
        # each list is sorted by index, so the picked entries of a mask over
        # all lists come out row by row, each row's in index order
        size = self.size
        picked = np.zeros(n * size, dtype=bool)
        picked[(c + np.arange(0, n * size, size)[:, None]).ravel()] = True
        at = np.flatnonzero(picked)
        return _edge_list(
            self.cand.ravel()[at].reshape(n, k), d.ravel()[at].reshape(n, k), symmetrize
        )


class GraphNearest:
    """``nearest(p, q)`` read from ``adj``, the kNN graph of ``merge(p, q)`` built with ``k``.

    Every call returns what ``nearest(p, q)`` returns, bit for bit and
    dtype for dtype. A point's candidates are its own k neighbours: its k
    edges, or where ``symmetrize`` added reverse edges its k shortest, ties
    to the lower index, in index order. Their squared lengths are
    recomputed with ``squared_lengths`` (``(p - q)**2`` is ``(q - p)**2``
    bit for bit, so they are ``nearest``'s both ways), candidates in the
    point's own cloud count as +inf, and ``_nearest_of`` picks among them,
    ties to the lower index, as ``NearestTracker`` does. Every point off
    the list lies at least the row's k-th stored length away: a reverse
    edge off it is no shorter, any other point no nearer than the row's own
    k-th neighbour, and a length stored shortened to the sentinel only
    lowers the bound. So where the pick's root lies strictly below it,
    every point outside the list has a larger root, and hence a larger
    squared length, and the pick is ``nearest``'s answer. Rows whose pick
    does not stand, among them the rows with no cross candidate, search the
    other cloud with ``_table``, as ``nearest`` does. Coordinates must be
    finite.
    """

    def __init__(self, adj: Hop, k: int):
        self.adj, self.k = adj, k
        # rows of p and q asked for, and of those the rows searched in full;
        # counters that a caller may reset
        self.rows_asked = self.rows_searched = 0

    def __call__(
        self, p: np.ndarray, q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n, m = len(p), len(q)
        adj, size, k = self.adj, n + m, self.k
        if adj.size != size:
            raise DimensionMismatchError(f"graph has {adj.size} points, the pair has {size}")
        zt = _pair(p, q)
        self.rows_asked += size
        if adj.key.size == size * k:  # every row holds its own k edges only
            at = np.arange(size * k).reshape(size, k)
        else:  # with reverse edges: each row's k shortest, ties to the lower index
            by = np.lexsort((adj.dist, adj.key // size))
            first = np.searchsorted(adj.key, np.arange(0, size * size, size))
            at = np.sort(by[first[:, None] + np.arange(k)], axis=1)
        row = np.arange(size)[:, None]
        nbr = adj.key[at] - row * size
        d = np.empty(nbr.shape)
        squared_lengths([c[:, None] for c in zt], (c.take(nbr) for c in zt), d, np.empty_like(d))
        d[(nbr < n) == (row < n)] = np.inf  # a point of the row's own cloud is no candidate
        pick, sq = _nearest_of(d, nbr)
        j = nbr[np.arange(size), pick]
        left = np.flatnonzero(~(np.sqrt(sq) < adj.dist[at].max(axis=1)))
        self.rows_searched += left.size
        if left.size:
            found, length = _across(zt.T, 1, left, n)
            j[left], sq[left] = found[:, 0], length[:, 0]
        j[:n] -= n
        return j[:n], sq[:n], j[n:], sq[n:]
