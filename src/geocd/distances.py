"""Euclidean lengths: one expression, the dense matrix and every neighbour search.

``squared_lengths`` evaluates ``(dx*dx + dy*dy) + dz*dz`` per component,
and every length the kNN graph, Chamfer, Hausdorff and F1 read comes from
it. It matches a scalar double loop bit for bit, which the reference checks
in the test suite rely on, and ``sqrt`` is correctly rounded, so all four
measure the same length to the last bit. ``_table`` finds the k nearest
targets of any rows of a set by dense passes or on a grid of cells: it is
the kNN graph's search, both trackers' full-row search and, through
``_across``, ``nearest``'s, each cloud's points against the other cloud.
The search mode fixes the rank: a set's own search ranks rooted lengths,
as the kNN graph does, and a bipartite one squared lengths, as ``nearest``.
The grid screens its candidates in float32, within a proved error bound,
and settles in float64 only the rows that bound leaves open; a float32
sample of the rows only sizes its cells, so every length it returns is
still ``squared_lengths``'s.
``CandidateLists`` keeps each row's few nearest points from call to call
and proves, row by row, that they still hold its nearest ones; it starts
its lists over on another key or an overflowing move, searches in full only
the rows it cannot prove, and counts them. Its two subclasses, the trackers,
add a key, a pick rule and an output: ``NearestTracker`` returns what
``nearest`` returns for a cloud that moves a little between calls against
one target, and ``graph.GraphTracker`` what ``knn_adjacency`` returns.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 64  # rows per block: the scratch arrays stay small and are reused
# a grid chunk's candidate matrix holds at most CHUNK * w entries, for w targets
CHUNK = BLOCK // 8
RADII = (1, 2)  # block radius of each grid pass, in cells: 3x3x3, then 5x5x5
CELLS = 2**20  # most cells along an axis, so that cell ids fit an intp
# NearestTracker searches with every row it must search those that this many
# more calls like the last would leave uncertified: over the 200 short
# Chamfer steps of a fit, fewer, larger searches cost less
AHEAD = 4
# CandidateLists' certificate: a relative margin far above the few ulps a
# computed length is off by; squared lengths below FLOOR (tiny / SLACK), that
# is lengths below ROOT_FLOOR, are never certified; an overflowed length
# bounds the others as ROOT_CEIL
SLACK = 2.0**-40
FLOOR = 2.0**-982
ROOT_FLOOR, ROOT_CEIL = 2.0**-491, 2.0**511
# the grid's float32 screen: its error bound on a length scaled into the
# unit box, relative and absolute (derived in _table)
SCREEN = 2.0**-21
# a whole set of at most this many points is searched in one dense pass: the
# grid breaks even at 384-512 points, by k and shape (hemisphere and lattice
# sets, k = 5-12, paired runs on 2 cores)
WHOLE = 448


def squared_lengths(a, b, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the squared lengths from points ``a`` to points ``b``.

    ``a`` and ``b`` yield the x, y and z coordinate arrays, in that order,
    which broadcast to the shape of ``out``; ``tmp`` is scratch of that
    shape. Each coordinate is read once, so a generator may build them
    one at a time.
    """
    pairs = zip(a, b)
    np.subtract(*next(pairs), out=out)
    np.multiply(out, out, out=out)
    for ac, bc in pairs:
        np.subtract(ac, bc, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(out, tmp, out=out)
    return out


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense (len(a), len(b)) matrix of Euclidean distances."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    out = np.empty((len(a), len(b)))
    squared_lengths([a[:, c, None] for c in range(3)], b.T, out, np.empty_like(out))
    return np.sqrt(out, out=out)


def _pair(p, q) -> np.ndarray:
    """The coordinate rows of ``p`` then ``q``, a (3, n + m) float64 array; a
    coordinate that is not finite raises ValueError, as ``_table`` cannot rank NaN."""
    zt = np.concatenate([np.asarray(c, dtype=np.float64).T for c in (p, q)], axis=1)
    if not np.isfinite(zt).all():
        raise ValueError("point coordinates must be finite")
    return zt


def nearest(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest neighbours in both directions, from one search of each cloud.

    Returns ``(j, sq_p, i, sq_q)``: ``q[j[a]]`` is the point of ``q`` nearest
    to ``p[a]`` at squared distance ``sq_p[a]``, and ``p[i[b]]`` the point of
    ``p`` nearest to ``q[b]`` at squared distance ``sq_q[b]``. Ties go to the
    lower index in both directions, as ``argmin`` does on the full matrix
    (``oracle.nearest``). Coordinates must be finite.
    """
    zt = _pair(p, q)
    n = len(p)
    nbr, sq = _across(zt.T, 1, np.arange(zt.shape[1]), n)
    nbr[:n] -= n
    return nbr[:n, 0], sq[:n, 0], nbr[n:, 0], sq[n:, 0]


def _across(pts: np.ndarray, k: int, rows: np.ndarray, split: int):
    """``_table`` for ascending ``rows`` of a pair merged at ``split``: each
    row's k nearest points of the other cloud, ``pts[split:]`` for the rows
    below ``split`` and ``pts[:split]`` for the others, by merged index."""
    s = np.searchsorted(rows, split)
    below = _table(pts, k, rows[:s], (split, len(pts)))
    above = _table(pts, k, rows[s:], (0, split))
    return tuple(np.concatenate(x) for x in zip(below, above))


def _norms(at: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """Length of each column of ``at - bt``, coordinate rows of the same
    shape, counted as at least sqrt(FLOOR)."""
    sq = squared_lengths(at, bt, np.empty(at.shape[1]), np.empty(at.shape[1]))
    return np.sqrt(np.maximum(sq, FLOOR, out=sq), out=sq)


def list_size(k: int) -> int:
    """Candidates a tracker keeps per row for a search of the k nearest."""
    return k + 7


def _select(d: np.ndarray, cols: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Mask of each row's k smallest entries, and each row's k-th length.

    ``cols`` (broadcast to ``d``) holds the point index of every entry. Ties
    at the k-th length keep the lowest point indices, as a stable sort of the
    full distance row would.
    """
    # a copy, so that the partitioned rows are freed at once
    kth = np.partition(d, k - 1, axis=1)[:, k - 1, None].copy()
    sel = d <= kth
    tied = np.flatnonzero(np.count_nonzero(sel, axis=1) > k)
    dt, kt, ct = d[tied], kth[tied], np.broadcast_to(cols, d.shape)[tied]
    eq = dt == kt
    free = k - np.count_nonzero(dt < kt, axis=1)
    # the free-th lowest point index among each row's tied entries
    cut = np.sort(np.where(eq, ct, np.iinfo(np.intp).max), axis=1)[np.arange(tied.size), free - 1]
    sel[tied] &= ~eq | (ct <= cut[:, None])
    return sel, kth[:, 0]


def _packed(d: np.ndarray, k: int, out=None):
    """Each row's k smallest entries, picked through packed words.

    ``d`` holds non-negative float64 or float32 lengths, +inf or NaN, and
    needs more than k columns. Each entry is packed into one integer word
    of its width, the bits of its length with the low b bits replaced by
    its column, b = bits(W - 1) for W columns: non-negative floats, +inf
    among them, order as their bit patterns do, and NaN's pattern lies
    above them all, so one ``partition`` of the words puts each row's k
    smallest words first. Returns their columns, the largest of them, the
    row's next word and the mask of the low b bits. As lengths' bit
    patterns, the largest word with those bits set lies at or above every
    chosen length and with them cleared at or below the largest, and the
    next word with them cleared at or below every other entry. The words go
    to ``out``, an integer array of ``d``'s shape and width, if given.
    """
    low = (1 << int(d.shape[1] - 1).bit_length()) - 1
    word = np.bitwise_and(d.view(f"i{d.itemsize}"), ~low, out=out)
    word |= np.arange(d.shape[1], dtype=word.dtype)
    word.partition(k, axis=1)
    first = word[:, :k]
    return first & low, first.max(axis=1), word[:, k], low


def _smallest(d: np.ndarray, k: int, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Columns of each row's k smallest entries, and the rows where they are certain.

    The pick of ``_packed``. Where the largest chosen word, low bits set,
    lies below the next word, every chosen length is strictly below every
    other, and the chosen columns are exactly the row's k smallest entries,
    with no tie to settle. Other rows (an exact tie, a near tie, or lengths
    too small to keep any bits) are not certain.
    """
    j, top, nxt, low = _packed(d, k, out)
    return j, (top | low) < nxt


def _first_k(d: np.ndarray, cols: np.ndarray, k: int, out=None, cell=None) -> np.ndarray:
    """Columns of each row's k smallest entries, in no set order.

    Row i of ``d`` holds the lengths to the points ``cols[cell[i]]``, or to
    ``cols`` broadcast to ``d`` without ``cell``, in any order. Ties at the
    k-th length keep the lowest point indices, read only for the rows that
    ``_smallest`` leaves uncertain. ``out`` is int64 scratch for ``_smallest``.
    """
    if k == d.shape[1]:
        return np.tile(np.arange(k), (len(d), 1))
    j, clear = _smallest(d, k, out)
    tied = np.flatnonzero(~clear)
    if tied.size:
        cols = np.broadcast_to(cols, d.shape)[tied] if cell is None else cols[cell[tied]]
        sel = _select(d[tied], cols.astype(np.intp, copy=False), k)[0]
        j[tied] = np.nonzero(sel)[1].reshape(tied.size, k)
    return j


def _cell_edge(extent: float, kth: np.ndarray) -> tuple[float, list[float]]:
    """Cell edge ``h`` from a sample's k-th lengths, and the reach of each grid pass.

    ``extent`` is the largest extent of the set's box, a finite number. For
    every radius r of ``RADII``, every point outside the (2r+1)^3 block of
    cells around a point has a computed length above that pass's reach from
    it.
    """
    # 1.4 times the sample's 90th percentile k-th length: surfaces and
    # volumes alike get small blocks, few rows fall back to the dense pass,
    # and far outliers up to a tenth of the points leave h unchanged
    kth = np.sort(kth)
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
    # rounding of the reach itself.
    eps = np.finfo(np.float64).eps
    return h, [r * h - 4 * eps * (extent + r * h) for r in RADII]


def _grid(zt: np.ndarray, h: float, lo: int = 0, hi: int | None = None):
    """Sort the points ``lo:hi`` (all by default) into cubic cells of edge ``h``.

    ``zt`` holds the coordinate rows of the set. Returns ``order`` (those
    points' indices sorted by cell), ``cid`` (the cell id of every point)
    and ``runs(cells, r)``. For each given cell id, in rising order,
    ``runs`` returns where the (2r+1)^2 z-runs of its (2r+1)^3 block of
    cells start and stop in ``order``, as two (cells, (2r+1)^2) arrays:
    cells of one x and y are adjacent in cell order, so each run is one
    range of positions.
    """
    # cell coordinates start at the largest radius, so that every block cell
    # has coordinates >= 0 and one id, and a run never reaches into the next
    # column. h >= extent / CELLS bounds them.
    pad = RADII[-1]
    cell = np.floor(np.fmin((zt - zt.min(axis=1)[:, None]) / h, CELLS)).astype(np.intp) + pad
    dims = cell.max(axis=1) + pad + 1
    cid = (cell[0] * dims[1] + cell[1]) * dims[2] + cell[2]
    order = np.argsort(cid[lo:hi], kind="stable") + lo
    ids, first = np.unique(cid[order], return_index=True)
    bounds = np.r_[first, order.size]  # where each cell starts in order, then the end

    def runs(cells: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
        step = np.arange(-r, r + 1)
        # searched one z-run offset at a time, along which the ids rise:
        # searchsorted is several times faster on rising keys
        column = ((step[:, None] * dims[1] + step) * dims[2]).ravel()[:, None] + cells
        return (
            bounds[np.searchsorted(ids, column - r)].T,
            bounds[np.searchsorted(ids, column + r, side="right")].T,
        )

    return order, cid, runs


def _dense(zt: np.ndarray, p: np.ndarray, targets: tuple[int, int] | None, k: int):
    """``_table`` for the points ``p``, read off all targets: ``zt`` holds the
    coordinate rows of every point. Each block of BLOCK // 2 rows keeps its
    lengths and their packed words in one scratch."""
    lo, hi = targets or (0, zt.shape[1])
    w = hi - lo
    nbr, length = np.empty((p.size, k), dtype=np.intp), np.empty((p.size, k))
    step = BLOCK // 2
    scratch, cols = np.empty((2, min(step, p.size) * w)), np.arange(w)
    for r0 in range(0, p.size, step):
        r = p[r0 : r0 + step]
        d, words = (x[: r.size * w].reshape(r.size, w) for x in scratch)
        squared_lengths([c[r, None] for c in zt], zt[:, lo:hi], d, words)
        if targets is None:  # rooted; a point is never its own neighbour: NaN ranks after +inf
            np.sqrt(d, out=d)
            d[np.arange(r.size), r] = np.nan
        if targets is not None and k == 1:  # no NaN column; argmin keeps a tie's lowest index
            j = d.argmin(axis=1)[:, None]
        else:
            j = _first_k(d, cols, k, words.view(np.int64))
            j.sort(axis=1)
        nbr[r0 : r0 + r.size] = j + lo
        length[r0 : r0 + r.size] = d[np.arange(r.size)[:, None], j]
    return nbr, length


def _table(
    pts: np.ndarray, k: int, rows=None, targets: tuple[int, int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k nearest targets and their lengths, as two (rows, k) arrays.

    The rows are the points ``rows`` of ``pts`` (all by default), and their
    targets the points ``targets = (lo, hi)``, ``pts[lo:hi]``, or by default
    every other point. Lengths are rooted, or squared with ``targets``.

    A search of at most BLOCK rows, or of a part of the set's rows whose
    count r and w targets give r * r * w <= 2**25, or of a whole set of at
    most WHOLE points, is one dense pass (``_dense``). Otherwise BLOCK // 2
    evenly spaced rows estimate their k-th lengths in float32 against all
    targets, which only sizes a grid of cells over the targets, anchored at
    the corner of the whole set. Every row searches the 3x3x3 block of
    cells around its point, and the rows that block cannot certify then
    search the 5x5x5 block. The result stands when the row's k-th length,
    rooted, is at most the block's reach, which every point outside the
    block exceeds. Rows whose block holds over a quarter of all targets,
    and the rows neither block certifies, are searched against all
    targets. Either way a row gets the neighbours and lengths of its full
    distance row.

    A grid pass orders its rows by the width of their block, the rows of one
    cell together, and cuts them into chunks whose candidate matrix, as
    wide as the chunk's last row needs, holds at most ``CHUNK * w`` entries
    for w targets. The candidates' coordinates are gathered once per cell
    and copied to each of its rows, and without ``targets`` a row's own
    point is found by its position in the centre run of its block. Rows
    with fewer than k other candidates go on to the next pass unsearched.

    A chunk screens its candidates: it ranks their float32 squared lengths,
    from coordinates centred on the set's box and scaled by a power of two,
    and picks each row's k through int32 packed words (``_packed``). A pick
    stands where a bound on the float32 error proves that the k chosen are
    strictly the k smallest float64 lengths, with a normal k-th squared
    length and no float64 length past the range (the certificate below).
    Every other row of the chunk settles in float64 on the same candidates,
    as a dense pass does. Every dense or settled row picks its k smallest
    lengths with ``_first_k``, which keeps the lowest point indices among
    entries tied at the k-th length. At the end each row's neighbours are
    sorted by index and their lengths measured with ``squared_lengths``,
    rooted for a set's own search. A dense pass returns the same; with
    ``targets`` and k=1 it takes each row's ``argmin``, which keeps the
    lowest index too.
    """
    n = len(pts)
    rows = np.arange(n) if rows is None else rows
    own, (lo, hi) = targets is None, targets or (0, n)
    w, r = hi - lo, rows.size
    zt = np.ascontiguousarray(pts.T)
    # A part of the rows rarely shares a cell, so each grid row gathers its
    # own block. Measured on 2 cores, the grid breaks even at about r*r*w =
    # 2**25: 180 graph rows of 1024 points, 90 of 4096, 64 of 8192, and 450
    # nearest rows against 512 targets. A whole set takes it past WHOLE.
    if r <= BLOCK or (r * r * w <= 2**25 if r < n else n <= WHOLE):
        return _dense(zt, rows, targets, k)
    lo_c, hi_c = zt.min(axis=1), zt.max(axis=1)
    extent = float((hi_c - lo_c).max())
    if not np.isfinite(extent):  # no cell coordinates to give
        return _dense(zt, rows, targets, k)
    # the screen's coordinates: centred on the box and scaled by 2**-e, which
    # brings its largest extent into [0.5, 1), so that every coordinate lies
    # in (-1, 1) and no float32 square or sum overflows; and a padding point
    # n, which measures +inf from every point
    e = math.frexp(extent)[1]
    z32 = np.full((3, n + 1), np.inf, dtype=np.float32)
    z32[:, :n] = np.ldexp(zt - (lo_c + (hi_c - lo_c) / 2)[:, None], -e)
    # The certificate of a screened pick. Scaled by 2**-e, the coordinates
    # lie in (-1, 1), and the float32 ones within 2**-25 + 2**-53 of the
    # exact scaled values (their cast, and the rounding of the float64
    # centring). With u = 2**-24, a float32 axis difference is then within
    # 2 * (2**-25 + 2**-53) + u * (1 + 2**-23) < 2**-23 of the exact one, so
    # the length l' of the float32 differences lies within sqrt(3) * 2**-23
    # < 2**-22.2 of the exact scaled length l. The squares and the two sums
    # round by a relative 3.01u at most, and by an absolute 5 * 2**-150
    # where they go subnormal, so a screened squared length s gives
    # sqrt(s) * (1 - 2u) - 2**-70 <= l' <= sqrt(s) * (1 + 2u) + 2**-70.
    # SCREEN = 2**-21 covers both errors twice over, which leaves room for a
    # relative 2**-40 and for the rounding of the bounds in float64. So
    # where sqrt(s) * (1 + SCREEN) + SCREEN, from the largest chosen word
    # with its low bits set, lies below sqrt(s) * (1 - SCREEN) - SCREEN,
    # from the next word with them cleared, every chosen exact length lies
    # a relative 2**-40 below every other candidate's. Unscaled, with
    # e <= 510 every squared length lies below 3 * 4**510 < 2**1022, and
    # where sqrt(s) * (1 - SCREEN) - SCREEN, from the largest chosen word
    # with its low bits cleared, is at least 2**(-510 - e), the chosen
    # k-th exact squared length is at least 2**-1020. The float64 squared
    # lengths, within a relative 5 * 2**-53 and an absolute 5 * 2**-1075 of
    # the exact squares, are then finite, the k-th and every other one
    # normal, and the others strictly above every chosen one, and so are
    # their roots: the pick is the row's k smallest float64 lengths, with
    # no tie to settle. The first bound, unscaled, lies above the pick's
    # float64 k-th length, rooted, which the reach is checked against.
    trusted, floor = e <= 510, math.ldexp(1.0, -510 - e)
    nbr = np.empty((r, k), dtype=np.intp)
    # BLOCK // 2 evenly spaced rows' float32 k-th lengths size the cells
    sample = rows[:: -(-r // (BLOCK // 2))]
    est = np.empty((2, sample.size, w), dtype=np.float32)
    squared_lengths([c[sample, None] for c in z32], z32[:, lo:hi], *est)
    if own:
        est[0, np.arange(sample.size), sample] = np.inf
    # non-negative floats order as their bit patterns: ints partition faster
    kth = np.partition(est[0].view(np.int32), k - 1, axis=1)[:, k - 1].view(np.float32)
    kth = np.sqrt(kth, dtype=np.float64)
    h, reach = _cell_edge(extent, np.ldexp(kth, e))
    order, cid, runs = _grid(zt, h, lo, hi)
    if own:  # each point's position in order
        place = np.empty(n, dtype=np.intp)
        place[order] = np.arange(n)
    # coordinates, each with the padding point n
    cols = [np.r_[c, np.inf] for c in zt]
    left, rest = np.arange(r), []  # the rows left, as table rows
    for radius, reach_r in zip(RADII, reach):
        cells, local = np.unique(cid[rows[left]], return_inverse=True)
        start, stop = runs(cells, radius)
        size = stop - start
        width = size.sum(axis=1)
        # rows by block width, then by cell. A grid candidate costs several
        # dense entries, so rows whose block holds over a quarter of all
        # targets are searched against all of them; of the others, rows with
        # fewer than k other candidates cannot be certified and go on.
        by = np.argsort(width[local] * cells.size + local)
        left, local = left[by], local[by]
        row_width = width[local]
        few, many = np.searchsorted(row_width, (min(k - 1 + own, w // 4), w // 4), side="right")
        unsure = [left[:few]]
        rest.append(left[many:])
        left, local, row_width = left[few:many], local[few:many], row_width[few:many]
        p = rows[left]
        if own:  # self's column: its own cell lies in the centre run of its block
            mid = size.shape[1] // 2
            own_col = size[:, :mid].sum(axis=1)[local] + place[p] - start[local, mid]
        # the pass's cells in row order, each row's place among them, and the
        # point indices of each cell's block, run after run, cell after cell
        new = np.diff(local, prepend=-1) != 0
        seq, rank = local[new], np.cumsum(new) - 1
        sz = size[seq].ravel()
        pos = np.repeat(start[seq].ravel() - (np.cumsum(sz) - sz), sz) + np.arange(sz.sum())
        block, bound = order[pos], np.r_[0, np.cumsum(width[seq])]
        c0 = 0
        while c0 < left.size:
            # as many rows as keep the chunk's candidate matrix within CHUNK * w
            # entries; widths rise, so the last row's is the chunk's
            cost = row_width[c0:] * np.arange(1, left.size - c0 + 1)
            c1 = c0 + max(1, int(np.searchsorted(cost, CHUNK * w, "right")))
            # at least one column past the k chosen, for _packed
            g0, g1, cw = rank[c0], rank[c1 - 1] + 1, max(row_width[c1 - 1], k + 1)
            cand = np.full((g1 - g0, cw), n)  # the chunk's cells' blocks, padded with n
            cand[np.arange(cw) < width[seq[g0:g1], None]] = block[bound[g0] : bound[g1]]
            row_cell, pc = rank[c0:c1] - g0, p[c0:c1]
            xyz = [c.take(cand) for c in z32]  # gathered once per cell, copied per row
            d = np.empty((2, c1 - c0, cw), dtype=np.float32)
            b = (c.take(row_cell, axis=0) for c in xyz)
            squared_lengths([c[pc, None] for c in z32], b, *d)
            if own:  # self is never its own neighbour
                d[0, np.arange(c1 - c0), own_col[c0:c1]] = np.inf
            j, top, nxt, low = _packed(d[0], k, d[0].view(np.int32))
            # bounds on the exact scaled lengths (see the certificate above):
            # above every chosen one, below the k-th and below every other
            words = (top | low, top & ~low, nxt & ~low)
            above, below_k, below = (np.sqrt(x.view(np.float32), dtype=np.float64) for x in words)
            above = above * (1 + SCREEN) + SCREEN
            below_k, below = (x * (1 - SCREEN) - SCREEN for x in (below_k, below))
            if trusted:
                sure, kth = (above < below) & (below_k >= floor), np.ldexp(above, e)
            else:  # every row settles
                sure, kth = np.zeros(c1 - c0, dtype=bool), np.empty(c1 - c0)
            at = left[c0:c1]
            nbr[at] = cand[row_cell[:, None], j]
            settle = np.flatnonzero(~sure)
            if settle.size:  # in float64 on the same candidates, as a dense pass
                ci = cand[row_cell[settle]]
                ds = np.empty(ci.shape)
                b = (c[ci] for c in cols)
                squared_lengths([c[pc[settle], None] for c in zt], b, ds, np.empty_like(ds))
                if own:  # rooted, and self is never its own neighbour
                    np.sqrt(ds, out=ds)
                    ds[np.arange(settle.size), own_col[c0:c1][settle]] = np.nan
                js = _first_k(ds, cand, k, cell=row_cell[settle])
                nbr[at[settle]] = np.take_along_axis(ci, js, axis=1)
                kth_s = np.take_along_axis(ds, js, axis=1).max(axis=1)
                kth[settle] = kth_s if own else np.sqrt(kth_s)
            # every row is written; a later pass writes those left unsure again
            unsure.append(at[kth > reach_r])
            c0 = c1
        left = np.concatenate(unsure)
    rest.append(left)
    rest = np.concatenate(rest)
    if rest.size:
        nbr[rest] = _dense(zt, rows[rest], targets, k)[0]
    # each row's neighbours by index, and their lengths, measured as a dense
    # pass does, k rows of the table's rows
    nbr.sort(axis=1)
    nb, sq = nbr.T, np.empty((k, r))
    squared_lengths([c[rows] for c in zt], (c.take(nb) for c in zt), sq, np.empty_like(sq))
    return nbr, (np.sqrt(sq, out=sq) if own else sq).T


def _uncertified(kth: np.ndarray, far: np.ndarray) -> np.ndarray:
    """Rows whose k-th candidate, at length ``kth``, is not proved nearer
    than every point outside their list, all at least ``far`` away."""
    kept = (kth >= ROOT_FLOOR) & (kth * (1 + SLACK) < far * (1 - SLACK))
    return np.flatnonzero(~kept)


class CandidateLists:
    """Each row's K nearest points at its last full search, kept across calls.

    A tracker subclasses it and hands each call's points to ``track``: the
    rows are the points of a set, passed as coordinate rows, a (3, N) array;
    each row's targets are all other points, or with ``split`` = n,
    bipartite, the points from n on for the rows below n and the points
    below n for the others. Row ``a`` keeps ``cand[a]``: the first K targets
    in the order of their length from point ``a`` and then of their index,
    sorted by index, as ``_table`` returns them. ``far[a]`` is the K-th of
    those lengths, or ROOT_CEIL where no target lies outside the list, and
    at most ROOT_CEIL: every target outside the list lay at least that far.
    Lengths are rooted, as the kNN graph ranks them, or squared with
    ``split``, as ``nearest`` does. A call recomputes every candidate's
    length with ``squared_lengths``, the dense pass's value bit for bit,
    and the tracker's ``pick`` chooses each row's answer among them, ties
    to the lower index.

    The lists start over on the first call, on a call with another key (the
    tracker's name for what the lists serve, the set's size among it), and
    on a call where a point's move since the last overflows: every row is
    then searched once and picked from its new list, which the last
    sentence of this paragraph proves right. On the other calls, a
    row's k-th candidate stands for its k-th nearest target when it is
    proved nearer than every target outside the list. Point ``a`` has moved
    ``|a - anchor[a]|`` since its last full search, and each of its targets
    at most ``moved[g] - moved_at[a]``, where ``moved[g]`` sums each call's
    largest move within the group g of its targets (all points, or one side
    of the split), so by the triangle inequality every target outside the
    list lies at least ``far`` minus both moves away. The row is certified
    when its k-th length, widened by ``SLACK``, is below that bound with
    the moves widened and the result narrowed by ``SLACK``. A computed
    length is within a few ulps of the exact one wherever its square is at
    least FLOOR, far inside ``SLACK``, so every target outside the list has
    a strictly larger entry in the dense pass, and the k smallest entries
    of the row, ties settled by index, are the k smallest of its
    candidates. Zero, subnormal and overflowed k-th lengths are never
    certified; moves are counted as at least sqrt(FLOOR), which bounds the
    error of a move too short to square, and ``moved`` is summed rounding
    up. Other rows are searched in full by ``_table``, which renews their
    lists; a list that is the first K targets of its row holds the row's k
    nearest for every k <= K, ties included.

    ``search`` writes every list row, and a search of every row, as on a
    start, makes the lists anew. ``rows_asked`` counts the rows of every
    call and ``rows_searched`` those ``search`` took, a start's every row
    once; a caller may reset both.
    """

    # with every search, also search the rows that this many more calls like
    # the last would leave uncertified
    ahead = 0

    def __init__(self):
        self.rows_asked = self.rows_searched = 0
        self._key = None  # no lists yet

    def lengths(self, zt: np.ndarray) -> np.ndarray:
        """(N, K) lengths from each point to its candidates."""
        c = self.cand
        d = squared_lengths(
            [x[:, None] for x in zt], (x.take(c) for x in zt), np.empty(c.shape), np.empty(c.shape)
        )
        return np.sqrt(d, out=d) if self.split is None else d

    def search(self, rows: np.ndarray, zt: np.ndarray, moved: np.ndarray) -> np.ndarray:
        """Search ``rows`` (ascending) in full with ``_table``, renew and
        count their lists and return their candidates' lengths."""
        n, size, split = zt.shape[1], self.size, self.split
        if split is None:
            cand, d = _table(zt.T, size, rows)
            others, kth = n - 1, d.max(axis=1)
        else:
            cand, d = _across(zt.T, size, rows, split)
            others, kth = np.where(rows < split, n - split, split), np.sqrt(d.max(axis=1))
        if rows.size == n:  # new lists, made after the search rather than held through it
            self.cand = np.empty((n, size), dtype=np.int32)
            self.far, self.anchor, self.moved_at = np.empty(n), np.empty_like(zt), np.empty(n)
        self.cand[rows] = cand
        # where every target is on the list, none lies outside it
        far = np.where(size == others, np.inf, kth)
        self.far[rows] = np.minimum(far, ROOT_CEIL)
        self.anchor[:, rows], self.moved_at[rows] = zt[:, rows], moved[rows]
        self.rows_searched += rows.size
        return d

    def track(self, zt: np.ndarray, key, size: int, pick, split: int | None = None):
        """Every row's candidates' lengths, ``pick``'s choice among them and
        the chosen k-th lengths.

        ``pick(d, cand)`` returns a choice per row of ``d`` and each row's
        k-th length. A start (see above) makes lists of ``size`` candidates,
        bipartite at ``split`` if given. Otherwise the rows that ``pick``
        cannot be proved right for are searched in full and picked again
        from their new lists, and with them, where there are any, the rows
        that ``ahead`` more calls would leave unproved if each lowered their
        bound as much as this one, so that searches come in fewer, larger
        batches.
        """
        n = zt.shape[1]
        self.rows_asked += n
        # each point's move since the last call, at least sqrt(FLOOR)
        steps = _norms(zt, self._prev) if key == self._key else None
        if steps is None or not np.isfinite(steps.max()):
            self._key, self.size, self.split = key, size, split
            # where each group of points starts, and the group of each row's targets
            self.starts = np.array([0] if split is None else [0, split])
            self.targets = np.zeros(n, dtype=np.intp)
            if split is not None:
                self.targets[:split] = 1
            # the move sums after a call that moves no point, rounded up as on every call
            self.moved = np.nextafter(np.zeros(self.starts.size), np.inf)
            # fresh lists need no certificate
            d = self.search(np.arange(n), zt, self.moved[self.targets])
            self._prev = zt.copy()
            return (d, *pick(d, self.cand))
        self._prev[:] = zt
        largest = np.maximum.reduceat(steps, self.starts)
        self.moved = np.nextafter(self.moved + largest, np.inf)
        moved = self.moved[self.targets]
        d = self.lengths(zt)
        chosen, kth = pick(d, self.cand)
        move = _norms(zt, self.anchor)
        move += moved - self.moved_at
        kth_r = kth if self.split is None else np.sqrt(kth)
        bound = self.far - move * (1 + SLACK)
        rows = _uncertified(kth_r, bound)
        if rows.size:
            rows = _uncertified(kth_r, bound - self.ahead * (steps + largest[self.targets]))
            d[rows] = self.search(rows, zt, moved)
            chosen[rows], kth[rows] = pick(d[rows], self.cand[rows])
        return d, chosen, kth

def _nearest_of(d: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest candidate column (the lower on a tie) and its length."""
    c = d.argmin(axis=1)
    return c, d[np.arange(len(d)), c]


class NearestTracker(CandidateLists):
    """``nearest(p, q)`` against one fixed ``q``, for a ``p`` that moves a little between calls.

    Every call returns what ``nearest(p, q)`` returns, bit for bit. The
    points of ``p`` and ``q`` together keep the candidate lists, bipartite,
    ranked by squared length, each point with ``list_size(1)`` candidates
    in the other cloud. The lists' key is the sizes of ``p`` and ``q`` and
    the identity of ``q``: another array, another size, or a move that
    overflows, starts over with a full search of every row. The lists
    measure every move of ``q``'s points too, so a new array that takes a
    freed one's identity is tracked as a move. Coordinates must be finite:
    a call with one that is not raises ValueError and leaves the lists and
    counters as they were.
    """

    ahead = AHEAD

    def __call__(
        self, p: np.ndarray, q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        zt = _pair(p, q)
        n, m = len(p), len(q)
        _, c, sq = self.track(zt, (n, m, id(q)), min(list_size(1), n, m), _nearest_of, n)
        j = self.cand[np.arange(n + m), c].astype(np.intp)
        return j[:n] - n, sq[:n], j[n:], sq[n:]
