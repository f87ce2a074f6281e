"""Euclidean lengths: one expression, the dense matrix and the nearest neighbours.

``squared_lengths`` evaluates ``(dx*dx + dy*dy) + dz*dz`` per component,
and every length the kNN graph, Chamfer, Hausdorff and F1 read comes from
it. It matches a scalar double loop bit for bit, which the reference checks
in the test suite rely on, and ``sqrt`` is correctly rounded, so all four
measure the same length to the last bit. The dense matrix and the nearest
neighbours fill a fixed (BLOCK, m) scratch block in place with it.
``CandidateLists`` keeps each row's few nearest points from call to call
and proves, row by row, that they still hold its nearest ones;
``NearestTracker`` returns what ``nearest`` returns for a cloud that moves
a little between calls against one target, and searches in full only the
rows it cannot prove.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

BLOCK = 64  # rows per block: the scratch arrays stay small and are reused
SCRATCH = 2**14  # entries per row block of CandidateLists.search
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


def _squared_blocks(a: np.ndarray, b: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Squared distances of ``a`` against all of ``b``, one row block at a time.

    Every yielded block is a view of the same scratch array and is
    overwritten by the next step.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = a.shape[0], b.shape[0]
    bc = [np.ascontiguousarray(b[:, c]) for c in range(3)]
    scratch = np.empty((2, min(BLOCK, n), m))
    for i0 in range(0, n, BLOCK):
        rows = slice(i0, min(i0 + BLOCK, n))
        sq, tmp = scratch[0, : rows.stop - i0], scratch[1, : rows.stop - i0]
        yield rows, squared_lengths([a[rows, c, None] for c in range(3)], bc, sq, tmp)


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense (len(a), len(b)) matrix of Euclidean distances."""
    out = np.empty((len(a), len(b)))
    for rows, sq in _squared_blocks(a, b):
        np.sqrt(sq, out=out[rows])
    return out


def nearest(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest neighbours in both directions from one blocked pass.

    Returns ``(j, sq_p, i, sq_q)``: ``q[j[a]]`` is the point of ``q`` nearest
    to ``p[a]`` at squared distance ``sq_p[a]``, and ``p[i[b]]`` the point of
    ``p`` nearest to ``q[b]`` at squared distance ``sq_q[b]``. Ties go to the
    lower index in both directions, as ``argmin`` does on the full matrix.
    """
    n, m = len(p), len(q)
    j, sq_p = np.empty(n, dtype=np.intp), np.empty(n)
    i, sq_q = np.zeros(m, dtype=np.intp), np.full(m, np.inf)
    for rows, sq in _squared_blocks(p, q):
        j[rows] = sq.argmin(axis=1)
        sq_p[rows] = sq[np.arange(sq.shape[0]), j[rows]]
        # the column minima need no transposed copy; only the columns they
        # improve are searched for their row. Strict: an equal minimum in a
        # later block has a higher row index
        colmin = sq.min(axis=0)
        better = np.flatnonzero(colmin < sq_q)
        i[better] = sq[:, better].argmin(axis=0) + rows.start
        sq_q[better] = colmin[better]
    return j, sq_p, i, sq_q


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


def _smallest(d: np.ndarray, k: int, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Columns of each row's k smallest entries, and the rows where they are certain.

    ``d`` holds non-negative lengths or +inf, and needs more than k columns.
    Each entry is packed into one int64 word, the bits of its length with
    the low b bits replaced by its column, b = bits(W - 1) for W columns:
    non-negative float64 values, +inf among them, order as their bit
    patterns do, so one ``partition`` of the words puts each row's k
    smallest words first. Where the largest of them lies below the next
    word even with its low b bits set, every chosen length is strictly
    below every other, and the chosen columns are exactly the row's k
    smallest entries, with no tie to settle. Other rows (an exact tie, a
    near tie, or lengths too small to keep any bits) are not certain. The
    words go to ``out``, an int64 array of the shape of ``d``, if given.
    """
    low = (1 << int(d.shape[1] - 1).bit_length()) - 1
    word = np.bitwise_and(d.view(np.int64), ~low, out=out)
    word |= np.arange(d.shape[1])
    word.partition(k, axis=1)
    first = word[:, :k]
    return first & low, (first.max(axis=1) | low) < word[:, k]


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


def _uncertified(kth: np.ndarray, far: np.ndarray) -> np.ndarray:
    """Rows whose k-th candidate, at length ``kth``, is not proved nearer
    than every point outside their list, all at least ``far`` away."""
    kept = (kth >= ROOT_FLOOR) & (kth * (1 + SLACK) < far * (1 - SLACK))
    return np.flatnonzero(~kept)


class CandidateLists:
    """Each row's K nearest points at its last full search, kept across calls.

    The rows are the points of a set, passed as coordinate rows, a (3, N)
    array; each row's targets are all other points, or with ``split`` = n,
    bipartite, the points from n on for the rows below n and the points
    below n for the others. Row ``a`` keeps ``cand[a]``: the first K targets
    in the order of their length from point ``a`` and then of their index,
    sorted by index where ``search`` set it, in any order where a caller
    seeded it through ``renew``. ``far[a]`` is the K-th of those lengths,
    or ROOT_CEIL where no target lies outside the list, and at most
    ROOT_CEIL: every target outside the list lay at least that far.
    Lengths are squared, as ``nearest`` ranks them, or rooted, as the kNN
    graph does (``root``). A call recomputes every candidate's length with
    ``squared_lengths``, the dense pass's value bit for bit, and a caller's
    ``pick`` chooses each row's answer among them, ties to the lower index.

    A row's k-th candidate stands for its k-th nearest target when it is
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
    up. Other rows are searched in full, which renews their lists; a list
    that is the first K targets of its row holds the row's k nearest for
    every k <= K, ties included.
    """

    def __init__(self, zt: np.ndarray, size: int, root: bool, split: int | None = None):
        n = zt.shape[1]
        self.root, self.split = root, split
        self.cand = np.zeros((n, size), dtype=np.int32)
        self.far = np.full(n, -np.inf)  # certifies no row before its first search
        self.anchor, self.moved_at = zt.copy(), np.zeros(n)
        # where each group of points starts, and the group of each row's targets
        self.starts = np.array([0] if split is None else [0, split])
        self.targets = np.zeros(n, dtype=np.intp)
        if split is not None:
            self.targets[:split] = 1
        self.moved = np.zeros(self.starts.size)
        self.searched = 0  # rows searched in full

    def renew(self, rows, cand, kth, zt: np.ndarray, moved, others: int) -> None:
        """Set the lists of ``rows`` from a full search of ``others`` targets each."""
        self.cand[rows] = cand
        far = kth if self.root else np.sqrt(kth)
        if self.cand.shape[1] == others:  # no target outside the list
            far = np.inf
        self.far[rows] = np.minimum(far, ROOT_CEIL)
        self.anchor[:, rows], self.moved_at[rows] = zt[:, rows], moved[rows]
        self.searched += len(cand)

    def lengths(self, zt: np.ndarray) -> np.ndarray:
        """(N, K) lengths from each point to its candidates."""
        c = self.cand
        d = squared_lengths(
            [x[:, None] for x in zt], (x.take(c) for x in zt), np.empty(c.shape), np.empty(c.shape)
        )
        return np.sqrt(d, out=d) if self.root else d

    def search(self, rows: np.ndarray, zt: np.ndarray, moved: np.ndarray) -> np.ndarray:
        """Search ``rows`` (ascending) in full, renew their lists and return
        their candidates' lengths."""
        n, size = zt.shape[1], self.cand.shape[1]
        if self.split is None:
            groups = [(rows, 0, n)]
        else:
            s = np.searchsorted(rows, self.split)
            groups = [(rows[:s], self.split, n), (rows[s:], 0, self.split)]
        out, done = np.empty((rows.size, size)), 0
        # one scratch of SCRATCH entries, or one row, for every block: its
        # lengths, then their packed words
        widest = max(hi - lo for _, lo, hi in groups)
        step = max(1, SCRATCH // widest)
        scratch = np.empty((2, min(step, rows.size) * widest))
        for group, lo, hi in groups:
            width = hi - lo
            for r0 in range(0, group.size, step):
                r = group[r0 : r0 + step]
                d, words = (x[: r.size * width].reshape(r.size, width) for x in scratch)
                squared_lengths([x[r, None] for x in zt], zt[:, lo:hi], d, words)
                if self.split is None:  # a point is never its own target
                    d[np.arange(r.size), r] = np.inf
                if self.root:
                    np.sqrt(d, out=d)
                cand = _first_k(d, np.arange(width), size, words.view(np.int64))
                cand.sort(axis=1)
                o = out[done : done + r.size]
                o[:] = d[np.arange(r.size)[:, None], cand]
                self.renew(r, cand + lo, o.max(axis=1), zt, moved, width - (self.split is None))
                done += r.size
        return out

    def track(self, zt: np.ndarray, steps: np.ndarray, pick, ahead: int = 0):
        """Every row's candidates' lengths, ``pick``'s choice among them and
        the chosen k-th lengths.

        ``steps`` holds each point's move since the last call, counted as
        at least sqrt(FLOOR) (see ``_norms``); on a row's first call, zeros.
        ``pick(d, cand)`` returns a choice per row of ``d`` and each row's
        k-th length. The rows it cannot be proved right for are searched in
        full and picked again from their new lists, and with them, where
        there are any, the rows that ``ahead`` more calls would leave
        unproved if each lowered their bound as much as this one, so that
        searches come in fewer, larger batches.
        """
        largest = np.maximum.reduceat(steps, self.starts)
        self.moved = np.nextafter(self.moved + largest, np.inf)
        moved = self.moved[self.targets]
        d = self.lengths(zt)
        chosen, kth = pick(d, self.cand)
        move = _norms(zt, self.anchor)
        move += moved - self.moved_at
        kth_r = kth if self.root else np.sqrt(kth)
        bound = self.far - move * (1 + SLACK)
        rows = _uncertified(kth_r, bound)
        if rows.size:
            rows = _uncertified(kth_r, bound - ahead * (steps + largest[self.targets]))
            d[rows] = self.search(rows, zt, moved)
            chosen[rows], kth[rows] = pick(d[rows], self.cand[rows])
        return d, chosen, kth


def _nearest_of(d: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest candidate column (the lower on a tie) and its length."""
    c = d.argmin(axis=1)
    return c, d[np.arange(len(d)), c]


class NearestTracker:
    """``nearest(p, q)`` against one fixed ``q``, for a ``p`` that moves a little between calls.

    Every call returns what ``nearest(p, q)`` returns, bit for bit. The
    points of ``p`` and ``q`` together keep ``CandidateLists``, bipartite,
    ranked by squared length, each point with ``list_size(1)`` candidates
    in the other cloud. ``q`` must be the same array, unchanged, on every
    call; another array, another size of ``p``, or a move that overflows,
    starts over with a full search of every row.
    """

    def __init__(self):
        # rows of p and q asked for, and of those the rows searched in full;
        # counters that a caller may reset
        self.rows_asked = self.rows_searched = 0
        self._q = None

    def __call__(
        self, p: np.ndarray, q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        n, m = len(p), len(q)
        self.rows_asked += n + m
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            # nearest's blocked pass settles nan lengths its own way
            self._q = None
            self.rows_searched += n + m
            return nearest(p, q)
        zt = np.concatenate([p.T, q.T], axis=1)
        steps = None
        if q is self._q and zt.shape == self._prev.shape and n == self._n:
            steps = _norms(zt, self._prev)
        if steps is not None and np.isfinite(steps.max()):
            self._prev[:] = zt
        else:
            self._q, self._n, self._prev, steps = q, n, zt.copy(), np.zeros(n + m)
            self._lists = CandidateLists(zt, min(list_size(1), n, m), root=False, split=n)
        lists, before = self._lists, self._lists.searched
        _, c, sq = lists.track(zt, steps, _nearest_of, AHEAD)
        self.rows_searched += lists.searched - before
        j = lists.cand[np.arange(n + m), c].astype(np.intp)
        return j[:n] - n, sq[:n], j[n:], sq[n:]
