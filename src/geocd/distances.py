"""Euclidean lengths: one expression, the dense matrix and the nearest neighbours.

``squared_lengths`` evaluates ``(dx*dx + dy*dy) + dz*dz`` per component,
and every length the kNN graph, Chamfer, Hausdorff and F1 read comes from
it. It matches a scalar double loop bit for bit, which the reference checks
in the test suite rely on, and ``sqrt`` is correctly rounded, so all four
measure the same length to the last bit. The dense matrix and the nearest
neighbours fill a fixed (BLOCK, m) scratch block in place with it.
``NearestTracker`` returns what ``nearest`` returns for a cloud that moves
a little between calls against one target, and searches in full only the
rows whose nearest point it cannot prove unchanged.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

BLOCK = 64  # rows per block: the scratch arrays stay small and are reused
# NearestTracker's certificate: a relative margin far above the few ulps a
# computed length is off by; squared lengths below FLOOR (tiny / SLACK) are
# never certified; an overflowed runner-up counts as CEIL
SLACK = 2.0**-40
FLOOR = 2.0**-982
CEIL = 2.0**1022


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


def _squared(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared lengths from each point of ``a`` to the same row of ``b``."""
    return squared_lengths(a.T, b.T, np.empty(len(a)), np.empty(len(a)))


def _row_search(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each point of ``a``: its nearest point of ``b`` (ties to the lower
    index), that squared length, and the root of the runner-up's, which
    equals the first on a tie and is at most sqrt(CEIL)."""
    n = len(a)
    k, best, second = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n)
    for rows, sq in _squared_blocks(a, b):
        r = np.arange(sq.shape[0])
        k[rows] = sq.argmin(axis=1)
        best[rows] = sq[r, k[rows]]
        sq[r, k[rows]] = np.inf
        second[rows] = sq.min(axis=1)
    return k, best, np.sqrt(np.minimum(second, CEIL))


def _uncertified(sq: np.ndarray, far: np.ndarray) -> np.ndarray:
    """Rows whose kept point, at squared length ``sq``, is not proved
    nearest by every other point lying at least ``far`` away."""
    kept = (sq >= FLOOR) & (np.sqrt(sq) * (1 + SLACK) < far * (1 - SLACK))
    return np.flatnonzero(~kept)


class NearestTracker:
    """``nearest(p, q)`` against one fixed ``q``, for a ``p`` that moves a little between calls.

    Every call returns what ``nearest(p, q)`` returns, bit for bit. A full
    search of a row keeps its nearest point and ``r2``, the length to the
    runner-up. A later call recomputes each row's squared length to its kept
    point, which is the dense pass's entry bit for bit, and searches a row
    in full again only where the kept point cannot be proved the unique
    nearest:

    - ``p[a]``, having moved ``|p[a] - anchor[a]|`` since its last full
      search, is at least ``r2 - |p[a] - anchor[a]|`` from every other
      point of ``q`` (triangle inequality);
    - every point of ``p`` has moved at most ``S - S_b`` since ``q[b]``'s
      last full search, where ``S`` sums each call's largest move, so
      ``q[b]`` is at least ``r2 - (S - S_b)`` from every other point of ``p``.

    The kept point is certified when its length, widened by ``SLACK``, is
    below that bound with the move widened and the result narrowed by
    ``SLACK``. A computed squared length is within a few ulps of the exact
    one wherever it is at least FLOOR, far inside ``SLACK``, so the dense
    pass's entries of all other points are strictly larger and its argmin
    picks the kept point. Zero, subnormal and overflowed lengths are never
    certified; moves are counted as at least sqrt(FLOOR), which bounds the
    error of a move too short to square, and ``S`` is summed rounding up.
    ``q`` must be the same array, unchanged, on every call; another array,
    or a move that overflows, starts over with a full search of every row.
    """

    def __init__(self):
        # rows of p and q asked for, and of those the rows searched in full;
        # counters that a caller may reset
        self.rows_asked = self.rows_searched = 0
        self._q = None

    def _start(self, p: np.ndarray, q: np.ndarray) -> None:
        n, m = len(p), len(q)
        self._q, self._prev, self._anchor = q, p.copy(), p.copy()
        self._j, self._r2_p = np.zeros(n, dtype=np.intp), np.full(n, -np.inf)
        self._i, self._r2_q = np.zeros(m, dtype=np.intp), np.full(m, -np.inf)
        self._moved, self._moved_at = 0.0, np.zeros(m)

    def __call__(
        self, p: np.ndarray, q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        self.rows_asked += len(p) + len(q)
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            # nearest's blocked pass settles nan lengths its own way
            self._q = None
            self.rows_searched += len(p) + len(q)
            return nearest(p, q)
        step = np.inf
        if q is self._q and len(p) == len(self._prev):
            step = np.sqrt(max(_squared(p, self._prev).max(), FLOOR))
        if np.isfinite(step):
            self._moved = float(np.nextafter(self._moved + step, np.inf))
            self._prev[:] = p
        else:
            self._start(p, q)

        sq_p = _squared(p, q[self._j])
        moved = np.sqrt(np.maximum(_squared(p, self._anchor), FLOOR))
        rows = _uncertified(sq_p, self._r2_p - moved * (1 + SLACK))
        self._j[rows], sq_p[rows], self._r2_p[rows] = _row_search(p[rows], q)
        self._anchor[rows] = p[rows]

        sq_q = _squared(q, p[self._i])
        cols = _uncertified(sq_q, self._r2_q - (self._moved - self._moved_at) * (1 + SLACK))
        self._i[cols], sq_q[cols], self._r2_q[cols] = _row_search(q[cols], p)
        self._moved_at[cols] = self._moved

        self.rows_searched += rows.size + cols.size
        return self._j.copy(), sq_p, self._i.copy(), sq_q
