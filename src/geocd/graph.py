"""1-hop kNN adjacency over the merged predicted + ground-truth set.

The graph is hop 1 of the walk propagation: one ``Hop`` record of its edges,
sorted by ``key = src * n + dst``. Non-neighbour entries hold the finite
``SENTINEL`` instead of infinity; after unit-bounding-box normalization
every true distance stays below it, so sentinel entries barely influence
the softmin while keeping the arithmetic finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .cloud import PointCloud
from .distances import (
    BLOCK,
    CandidateLists,
    _first_k,
    _norms,
    list_size,
    nearest,
    pairwise_distances,
    squared_lengths,
)
from .errors import DimensionMismatchError, KTooLargeError

# a grid chunk's candidate matrix holds at most CHUNK * n entries, a quarter
# of the dense sample's, so the sample sets the peak memory
CHUNK = BLOCK // 8
RADII = (1, 2)  # block radius of each grid pass, in cells: 3x3x3, then 5x5x5
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


def _cell_edge(pts: np.ndarray, kth: np.ndarray) -> tuple[float, list[float]]:
    """Cell edge ``h`` from a sample's k-th lengths, and the reach of each grid pass.

    For every radius r of ``RADII``, every point outside the (2r+1)^3 block
    of cells around a point has a computed length above that pass's reach
    from it.
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
    # whose cells differ by r + 1 or more along an axis lie more than
    # r*h - (4u + 2u*u) * extent apart along it. The square of that gap is a
    # normal number, as h >= 2 * sqrt(tiny) and h >= extent / CELLS, so the
    # roundings of the length's difference, squares, sums and square root
    # shrink it by a relative 4u at most: it is above r*h - 5u * (extent + r*h).
    # A margin of 4 * eps = 8u times (extent + r*h) covers that and the
    # rounding of the reach itself. An infinite extent gives a NaN reach,
    # which certifies no row.
    eps = np.finfo(np.float64).eps
    return h, [r * h - 4 * eps * (extent + r * h) for r in RADII]


def _grid(pts: np.ndarray, h: float):
    """Sort the points into cubic cells of edge ``h``.

    Returns ``order`` (point indices sorted by cell), ``cell_of`` (the cell
    of each position in ``order``, cells numbered in sorted order) and
    ``runs(cells, r)``. For each given cell, ``runs`` returns where the
    (2r+1)^2 z-runs of its (2r+1)^3 block of cells start and stop in
    ``order``, as two (cells, (2r+1)^2) arrays: cells of one x and y are
    adjacent in cell order, so each run is one range of positions.
    """
    # cell coordinates start at the largest radius, so that every block cell
    # has coordinates >= 0 and one id, and a run never reaches into the next
    # column. h >= extent / CELLS bounds them, and fmin also maps the NaN of
    # an overflowing p - lo into range.
    pad = RADII[-1]
    cell = np.floor(np.fmin((pts - pts.min(axis=0)) / h, CELLS)).astype(np.intp) + pad
    dims = cell.max(axis=0) + pad + 1
    cid = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    order = np.argsort(cid, kind="stable")
    ids, first = np.unique(cid[order], return_index=True)
    bounds = np.r_[first, pts.shape[0]]  # where each cell starts in order, then the end

    def runs(cells: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
        step = np.arange(-r, r + 1)
        # searched one z-run offset at a time, along which the ids rise:
        # searchsorted is several times faster on rising keys
        column = ((step[:, None] * dims[1] + step) * dims[2]).ravel()[:, None] + ids[cells]
        return (
            bounds[np.searchsorted(ids, column - r)].T,
            bounds[np.searchsorted(ids, column + r, side="right")].T,
        )

    return order, np.repeat(np.arange(ids.size), np.diff(bounds)), runs


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


def _table(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's k nearest other points and their lengths, as two (n, k) arrays.

    A set of at most BLOCK points is searched as one dense block. Otherwise
    BLOCK // 2 evenly spaced rows are searched against all points, and their
    k-th lengths size a grid of cells. Every other row searches the 3x3x3
    block of cells around its point, and the rows that block cannot certify
    then search the 5x5x5 block. The result stands when the row's k-th
    length is at most the block's reach, which every point outside the
    block exceeds. Rows whose block holds over a quarter of all points, and
    the rows neither block certifies, are searched against all points.
    Either way a row gets the neighbours and lengths of its full distance
    row, and each row of the table is written once.

    A grid pass orders its rows by the width of their block, the rows of one
    cell together, and cuts them into chunks whose candidate matrix, as
    wide as the chunk's last row needs, holds at most ``CHUNK * n`` entries.
    The candidates' coordinates are gathered once per cell and copied to
    each of its rows, and a row's own point is found by its position in the
    centre run of its block. Rows with fewer than k other candidates go on
    to the next pass unsearched.

    Every row, grid or dense, picks its k smallest lengths with
    ``_first_k``, which keeps the lowest point indices among entries tied
    at the k-th length; its neighbours come in no set order.
    """
    n = len(pts)
    nbr, length = np.empty((n, k), dtype=np.intp), np.empty((n, k))

    def keep(rows, d, cand, row_cell, reach):
        """Write the table rows whose k-th length is at most ``reach``.

        Row i of ``d`` holds the lengths from point ``rows[i]`` to the
        points ``cand[row_cell[i]]``, +inf where a column is no candidate.
        Returns which rows were written, and every row's k-th length.
        """
        j = _first_k(d, cand, k, cell=row_cell)
        dj = np.take_along_axis(d, j, axis=1)
        kth = dj.max(axis=1)
        done = kth <= reach
        nbr[rows[done]] = cand[row_cell[done, None], j[done]]
        length[rows[done]] = dj[done]
        return done, kth

    def full_rows(rows: np.ndarray) -> np.ndarray:
        d = pairwise_distances(pts[rows], pts)
        d[np.arange(rows.size), rows] = np.inf  # self is never its own neighbour
        return keep(rows, d, np.arange(n)[None], np.zeros(rows.size, np.intp), np.inf)[1]

    if n <= BLOCK:  # one dense block, no grid
        full_rows(np.arange(n))
        return nbr, length
    sample = np.arange(0, n, -(-n // (BLOCK // 2)))
    h, reach = _cell_edge(pts, full_rows(sample))
    order, cell_of, runs = _grid(pts, h)
    # the positions in order of the rows left
    at = np.flatnonzero(np.isin(order, sample, invert=True))
    # coordinates, and a padding point n that measures +inf from every point
    cols = [np.r_[pts[:, c], np.inf] for c in range(3)]
    rest = []
    for r, reach_r in zip(RADII, reach):
        cells, local = np.unique(cell_of[at], return_inverse=True)
        start, stop = runs(cells, r)
        size = stop - start
        width = size.sum(axis=1)
        # rows by block width, then by cell. A grid candidate costs several
        # dense entries, so rows whose block holds over a quarter of all
        # points are searched against all points; of the others, rows with
        # fewer than k other candidates cannot be certified and go on.
        by = np.argsort(width[local] * cells.size + local)
        at, local = at[by], local[by]
        row_width = width[local]
        few, many = np.searchsorted(row_width, (min(k, n // 4), n // 4), side="right")
        unsure = [at[:few]]
        rest.append(order[at[many:]])
        at, local, row_width = at[few:many], local[few:many], row_width[few:many]
        # self's column: its own cell lies in the centre run of its block
        mid = size.shape[1] // 2
        own_col = size[:, :mid].sum(axis=1)[local] + at - start[local, mid]
        # the pass's cells in row order, each row's place among them, and the
        # point indices of each cell's block, run after run, cell after cell
        new = np.diff(local, prepend=-1) != 0
        seq, rank = local[new], np.cumsum(new) - 1
        sz = size[seq].ravel()
        pos = np.repeat(start[seq].ravel() - (np.cumsum(sz) - sz), sz) + np.arange(sz.sum())
        block, bound = order[pos], np.r_[0, np.cumsum(width[seq])]
        c0 = 0
        while c0 < at.size:
            # as many rows as keep the chunk's candidate matrix within CHUNK * n
            # entries; widths rise, so the last row's is the chunk's
            cost = row_width[c0:] * np.arange(1, at.size - c0 + 1)
            c1 = c0 + max(1, int(np.searchsorted(cost, CHUNK * n, "right")))
            rows, w = order[at[c0:c1]], row_width[c1 - 1]
            g0, g1 = rank[c0], rank[c1 - 1] + 1
            cand = np.full((g1 - g0, w), n)  # the chunk's cells' blocks, padded with n
            cand[np.arange(w) < width[seq[g0:g1], None]] = block[bound[g0] : bound[g1]]
            row_cell = rank[c0:c1] - g0
            xyz = [c[cand] for c in cols]  # gathered once per cell, copied per row
            d, tmp = np.empty((rows.size, w)), np.empty((rows.size, w))
            b = (c.take(row_cell, axis=0) for c in xyz)
            squared_lengths([c[rows, None] for c in cols], b, d, tmp)
            np.sqrt(d, out=d)
            d[np.arange(rows.size), own_col[c0:c1]] = np.inf  # self is never its own neighbour
            done, _ = keep(rows, d, cand, row_cell, reach_r)
            unsure.append(at[c0:c1][~done])
            c0 = c1
        at = np.concatenate(unsure)
    rest.append(order[at])

    rest = np.concatenate(rest)
    for b0 in range(0, rest.size, BLOCK):
        full_rows(rest[b0 : b0 + BLOCK])
    return nbr, length


def _edge_list(nbr: np.ndarray, length: np.ndarray, symmetrize: bool) -> Hop:
    """The hop-1 record of a neighbour table; see ``knn_adjacency``."""
    n, k = nbr.shape
    # each row's neighbours sorted by index, with their columns in the low part
    w = np.asarray(nbr, np.intp) * k + np.arange(k)
    w.sort(axis=1)
    rows = np.arange(n)[:, None]
    key, length = (rows * n + w // k).ravel(), length[rows, w % k].ravel()
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
    return Hop(key, length, np.arange(key.size), n)


def _neighbours(d: np.ndarray, cand: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k nearest candidate columns and its k-th length."""
    c = _first_k(d, cand, k)
    return c, d[np.arange(len(d))[:, None], c].max(axis=1)


class GraphTracker:
    """``knn_adjacency(z, k, symmetrize)`` for a merged set whose points move a little.

    Every call returns what ``knn_adjacency`` returns, bit for bit, and
    raises what it raises. Each point keeps ``list_size(k)`` candidates
    among the others in ``CandidateLists``, ranked by rooted length and
    seeded from one neighbour table (``_table``). Every call picks each
    row's k neighbours from its candidates by the graph's own rule
    (``_first_k``) and searches in full only the rows whose pick the lists
    cannot prove. Another size of the set, another k, a move that
    overflows, or a coordinate so large that a squared length may
    overflow, starts over.
    """

    def __init__(self):
        # rows asked for, and of those the rows searched in full; counters
        # that a caller may reset
        self.rows_asked = self.rows_searched = 0
        self._lists = None

    def _start(self, pts: np.ndarray, zt: np.ndarray, k: int) -> None:
        n, size = len(pts), min(list_size(k), len(pts) - 1)
        cand, dist = _table(pts, size)
        self._lists = CandidateLists(zt, size, root=True)
        self._lists.renew(slice(None), cand, dist.max(axis=1), zt, np.zeros(n), n - 1)
        self._k, self._prev = k, zt.copy()

    def __call__(self, z: MergedSet, k: int, symmetrize: bool = False) -> Hop:
        pts = np.asarray(z.points, dtype=np.float64)
        _check(pts, k)
        n = len(pts)
        self.rows_asked += n
        # below 2**510 no squared length overflows, so a row's own point,
        # at +inf in its full search, is never its candidate
        if not np.abs(pts).max() < 2.0**510:
            self._lists = None
            self.rows_searched += n
            return knn_adjacency(z, k, symmetrize)
        zt = np.ascontiguousarray(pts.T)
        steps = None
        if self._lists is not None and (zt.shape, k) == (self._prev.shape, self._k):
            steps = _norms(zt, self._prev)
        seeded = steps is None or not np.isfinite(steps.max())
        if seeded:
            self._start(pts, zt, k)
            steps = np.zeros(n)
        else:
            self._prev[:] = zt
        lists, before = self._lists, self._lists.searched
        d, c, _ = lists.track(zt, steps, partial(_neighbours, k=k))
        # the seed table searched every row
        self.rows_searched += n if seeded else lists.searched - before
        r = np.arange(n)[:, None]
        return _edge_list(lists.cand[r, c], d[r, c], symmetrize)


class GraphNearest:
    """``nearest(p, q)`` read from ``adj``, the kNN graph of ``merge(p, q)`` built with ``k``.

    Every call returns what ``nearest(p, q)`` returns, bit for bit and
    dtype for dtype. A point's candidates are its cross-cloud edges: their
    squared lengths are recomputed with ``squared_lengths`` in ``nearest``'s
    operand order (predicted minus target), and the smallest, ties to the
    lower index, is the point's pick. The graph lists every point whose
    length from the row's point lies below the row's k-th stored length:
    the largest of its k edges, or the k-th smallest where ``symmetrize``
    added reverse edges, none of which is shorter. A length stored
    shortened to the sentinel only lowers it. So where the pick's root lies
    strictly below it, every point outside the list has a larger root, and
    hence a larger squared length, and the pick is ``nearest``'s answer.
    Rows with no cross edge, or whose pick does not stand, and every row of
    a pair with a coordinate that is not finite, go through ``nearest``.
    """

    def __init__(self, adj: Hop, k: int):
        self.adj, self.k = adj, k
        # rows of p and q asked for, and of those the rows searched in full;
        # counters that a caller may reset
        self.rows_asked = self.rows_searched = 0

    def __call__(
        self, p: np.ndarray, q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        n, m = len(p), len(q)
        adj, size = self.adj, n + m
        if adj.size != size:
            raise DimensionMismatchError(f"graph has {adj.size} points, the pair has {size}")
        self.rows_asked += size
        src, dst = np.divmod(adj.key, size)
        cross = np.flatnonzero((src < n) != (dst < n))
        if not (cross.size and np.isfinite(p).all() and np.isfinite(q).all()):
            # no cross edge to read, or nan lengths, which nearest's blocked
            # pass settles its own way
            self.rows_searched += size
            return nearest(p, q)
        row, col = src[cross], dst[cross]
        a, b = np.where(row < n, row, col), np.where(row < n, col, row) - n
        sq = squared_lengths(
            (c.take(a) for c in p.T), (c.take(b) for c in q.T), np.empty(a.size), np.empty(a.size)
        )
        # each row's first smallest: its cross edges run by rising index
        first = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        low = np.minimum.reduceat(sq, first)
        hit = np.flatnonzero(sq == np.repeat(low, np.diff(np.r_[first, row.size])))
        pick = hit[np.r_[True, row[hit[1:]] != row[hit[:-1]]]]
        if adj.key.size == size * self.k:  # every row holds its own k edges only
            kth = adj.dist.reshape(size, self.k).max(axis=1)
        else:  # with reverse edges: each row's k-th smallest
            by = np.lexsort((adj.dist, src))
            kth = adj.dist[by[np.searchsorted(src, np.arange(size)) + self.k - 1]]
        rows, best = row[pick], sq[pick]
        idx, out = np.empty(size, dtype=np.intp), np.empty(size)
        idx[rows] = np.where(rows < n, b[pick], a[pick])
        out[rows] = best
        left = np.ones(size, dtype=bool)
        left[rows[np.sqrt(best) < kth[rows]]] = False
        rows_p, rows_q = np.flatnonzero(left[:n]), np.flatnonzero(left[n:])
        self.rows_searched += rows_p.size + rows_q.size
        if rows_p.size == n and rows_q.size == m:
            return nearest(p, q)
        if rows_p.size:
            idx[rows_p], out[rows_p] = nearest(p[rows_p], q)[:2]
        if rows_q.size:
            # (q - p)**2 is (p - q)**2 bit for bit, and a row's argmin keeps
            # the lowest index, as nearest's column minima do
            idx[n + rows_q], out[n + rows_q] = nearest(q[rows_q], p)[:2]
        return idx[:n], out[:n], idx[n:], out[n:]
