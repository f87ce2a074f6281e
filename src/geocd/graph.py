"""1-hop kNN adjacency over the merged predicted + ground-truth set.

The graph is one edge list sorted by (src, dst). Non-neighbour entries hold
the finite ``SENTINEL`` instead of infinity; after unit-bounding-box
normalization every true distance stays below it, so sentinel entries
barely influence the softmin while keeping the arithmetic finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .distances import BLOCK, pairwise_distances, squared_lengths
from .errors import KTooLargeError

CHUNK = 128  # grid rows per pass: the padded candidate matrices stay small
CELLS = 2**20  # most cells along an axis, so that cell ids fit an intp
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
class Adjacency:
    """Directed 1-hop kNN edges, sorted by (src, dst).

    Edge ``e`` runs from ``src[e]`` to ``dst[e]`` with Euclidean length
    ``length[e]``. Every pair not listed holds ``SENTINEL``, and the diagonal
    is zero. kNN is directed, so the edge set is generally asymmetric. An
    edge whose length equals the sentinel (two points at opposite corners of
    the unit box) is still an edge and still carries gradient; rounding that
    measures it just above the sentinel is stored as the sentinel.
    """

    src: np.ndarray  # (e,) intp
    dst: np.ndarray  # (e,) intp
    length: np.ndarray  # (e,) float64
    size: int

    def dense(self) -> np.ndarray:
        """(size, size) 1-hop matrix, for oracles and tests."""
        out = np.full((self.size, self.size), SENTINEL)
        np.fill_diagonal(out, 0.0)
        out[self.src, self.dst] = self.length
        return out


def merge(pred: PointCloud, gt: PointCloud) -> MergedSet:
    return MergedSet(np.vstack([pred.points, gt.points]), pred.size, gt.size)


def _select(d: np.ndarray, cols: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Mask of each row's k smallest entries, and each row's k-th length.

    ``cols`` (broadcast to ``d``) holds the point index of every entry. Ties
    at the k-th length keep the lowest point indices, as a stable sort of the
    full distance row would.
    """
    kth = np.partition(d, k - 1, axis=1)[:, k - 1, None]
    sel = d <= kth
    tied = np.flatnonzero(np.count_nonzero(sel, axis=1) > k)
    dt, kt, ct = d[tied], kth[tied], np.broadcast_to(cols, d.shape)[tied]
    eq = dt == kt
    free = k - np.count_nonzero(dt < kt, axis=1)
    # the free-th lowest point index among each row's tied entries
    cut = np.sort(np.where(eq, ct, np.iinfo(np.intp).max), axis=1)[np.arange(tied.size), free - 1]
    sel[tied] &= ~eq | (ct <= cut[:, None])
    return sel, kth[:, 0]


def _cell_edge(pts: np.ndarray, kth: np.ndarray) -> tuple[float, float]:
    """Cell edge ``h`` from a sample's k-th lengths, and the grid's ``reach``.

    Every point outside the 3x3x3 block of cells around a point has a
    computed length above ``reach`` from it.
    """
    # 1.4 times the sample's 90th percentile k-th length: surfaces and
    # volumes alike get small blocks, few rows fall back to the dense pass,
    # and far outliers up to a tenth of the points leave h unchanged
    kth = np.sort(kth)
    lo = pts.min(axis=0)
    extent = float((pts.max(axis=0) - lo).max())
    h = 1.4 * float(kth[9 * (kth.size - 1) // 10])
    h = max(min(h, extent), extent / CELLS, 2 * np.sqrt(np.finfo(np.float64).tiny))
    # With u = 2**-53, the quotient fl(fl(p - lo) / h) behind a cell is off
    # by a relative 2u + u*u at most, and p - lo <= extent. So two points
    # whose cells differ by two or more along an axis lie more than
    # h - (4u + 2u*u) * extent apart along it. The square of that gap is a
    # normal number, as h >= 2 * sqrt(tiny) and h >= extent / CELLS, so the
    # roundings of the length's difference, squares, sums and square root
    # shrink it by a relative 4u at most: it is above h - 5u * (extent + h).
    # A margin of 4 * eps = 8u times (extent + h) covers that and the
    # rounding of ``reach`` itself. An infinite extent gives a NaN reach,
    # which certifies no row.
    return h, h - 4 * np.finfo(np.float64).eps * (extent + h)


def _grid(pts: np.ndarray, h: float):
    """Sort the points into cubic cells of edge ``h``.

    Returns ``order`` (point indices sorted by cell), ``cell_of`` (the cell
    of each position in ``order``), and for every occupied cell where each
    of the 27 cells of its 3x3x3 block starts in ``order`` and how many
    points it holds.
    """
    # cell coordinates start at 1, so that every block cell has coordinates
    # >= 0 and one id. h >= extent / CELLS bounds them, and fmin also maps
    # the NaN of an overflowing p - lo into range.
    cell = np.floor(np.fmin((pts - pts.min(axis=0)) / h, CELLS)).astype(np.intp) + 1
    dims = cell.max(axis=0) + 2
    cid = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    step = np.arange(-1, 2)
    block = ((step[:, None, None] * dims[1] + step[:, None]) * dims[2] + step).ravel()
    order = np.argsort(cid, kind="stable")
    cells, first, count = np.unique(cid[order], return_index=True, return_counts=True)
    near = cells[:, None] + block
    at = np.minimum(np.searchsorted(cells, near), cells.size - 1)
    block_size = np.where(cells[at] == near, count[at], 0)
    return order, np.repeat(np.arange(cells.size), count), first[at], block_size


def knn_adjacency(z: MergedSet, k: int, symmetrize: bool = False) -> Adjacency:
    """Build the directed kNN adjacency of the merged set.

    Ties at the k-th neighbour distance break toward the lower point index,
    making the graph deterministic across platforms. ``symmetrize`` adds the
    reverse of every edge (off by default).

    An evenly spaced sample of rows is searched against all points, and its
    k-th lengths size a grid of cells. Every other row searches the 3x3x3
    block of cells around its point, unless that block holds over a quarter
    of all points. The result stands when the row's k-th length lies below
    the block's reach, which no point outside the block can undercut; the
    remaining rows are searched against all points. Either way a row gets
    the neighbours and lengths of its full distance row. A set of at most
    BLOCK points is its own sample and needs no grid.
    """
    n = z.size
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n - 1:
        raise KTooLargeError(f"k={k} exceeds the {n - 1} other points in the merged set")
    pts = z.points
    everyone = np.arange(n)
    src, dst, length = [], [], []

    def full_rows(rows: np.ndarray) -> np.ndarray:
        d = pairwise_distances(pts[rows], pts)
        d[np.arange(rows.size), rows] = np.inf  # self is never its own neighbour
        sel, kth = _select(d, everyone, k)
        r, c = np.nonzero(sel)
        src.append(rows[r])
        dst.append(c)
        length.append(d[r, c])
        return kth

    sample = everyone[:: -(-n // BLOCK)]  # one dense block of evenly spaced rows
    kth = full_rows(sample)
    if sample.size == n:  # the sample is every row
        return _edge_list(src, dst, length, n, symmetrize)
    h, reach = _cell_edge(pts, kth)
    order, cell_of, block_first, block_size = _grid(pts, h)
    width_of = block_size.sum(axis=1)
    sampled = np.zeros(n, dtype=bool)
    sampled[sample] = True
    sampled = sampled[order]
    # a grid candidate costs several dense entries, so rows whose block
    # holds over a quarter of all points are searched against all points;
    # this also keeps a chunk's candidates below half a dense block's
    wide = width_of[cell_of] > n // 4
    rest = [order[~sampled & wide]]
    on_grid = ~(sampled | wide)
    grid_rows, grid_cells = order[on_grid], cell_of[on_grid]
    cols = [np.ascontiguousarray(pts[:, c]) for c in range(3)]

    for r0 in range(0, grid_rows.size, CHUNK):
        # rows in cell order, so that a chunk's rows share most candidates
        rows, cells = grid_rows[r0 : r0 + CHUNK], grid_cells[r0 : r0 + CHUNK]
        size, per_row = block_size[cells].ravel(), width_of[cells]
        width = max(per_row.max(), k)  # partition needs k columns
        # each row's candidates, cell after cell, and their flat slots in a
        # (rows, width) matrix padded with infinite lengths
        pos = np.repeat(block_first[cells].ravel() - (np.cumsum(size) - size), size)
        pos += np.arange(pos.size)
        slot = np.repeat(np.arange(rows.size) * width - (np.cumsum(per_row) - per_row), per_row)
        slot += np.arange(slot.size)
        i, j = np.repeat(rows, per_row), order[pos]
        dij = np.empty(i.size)
        squared_lengths([c[i] for c in cols], [c[j] for c in cols], dij, np.empty(i.size))
        np.sqrt(dij, out=dij)
        dij[i == j] = np.inf
        d = np.full((rows.size, width), np.inf)
        cand = np.zeros((rows.size, width), dtype=np.intp)
        d.ravel()[slot] = dij
        cand.ravel()[slot] = j
        sel, kth = _select(d, cand, k)
        sure = kth < reach
        r, c = np.nonzero(sel & sure[:, None])
        src.append(rows[r])
        dst.append(cand[r, c])
        length.append(d[r, c])
        rest.append(rows[~sure])

    rest = np.concatenate(rest)
    for b0 in range(0, rest.size, BLOCK):
        full_rows(rest[b0 : b0 + BLOCK])

    return _edge_list(src, dst, length, n, symmetrize)


def _edge_list(src, dst, length, n: int, symmetrize: bool) -> Adjacency:
    """Sort the collected edge pieces into an Adjacency; see ``knn_adjacency``."""
    key = np.concatenate(src) * n + np.concatenate(dst)
    by_key = np.argsort(key)
    key, length = key[by_key], np.concatenate(length)[by_key]
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
        src, dst = np.divmod(key, n)
        key, first = np.unique(np.r_[key, dst * n + src], return_index=True)
        length = np.r_[length, length][first]
    src, dst = np.divmod(key, n)
    return Adjacency(src, dst, length, n)
