"""Blocked Euclidean distances: the dense matrix and the nearest neighbours.

Both come from one kernel that fills a fixed (BLOCK, m) scratch block in
place with the per-component expression ``(dx*dx + dy*dy) + dz*dz``. It
matches a scalar double loop bit for bit, which the reference checks in the
test suite rely on, and ``sqrt`` is correctly rounded, so a distance taken
from the block equals the scalar one exactly.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

BLOCK = 64  # rows per block: the scratch arrays stay small and are reused


def _squared_blocks(a: np.ndarray, b: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Squared distances of ``a`` against all of ``b``, one row block at a time.

    Every yielded block is a view of the same scratch array and is
    overwritten by the next step.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = a.shape[0], b.shape[0]
    bx, by, bz = (np.ascontiguousarray(b[:, c]) for c in range(3))
    scratch = np.empty((2, min(BLOCK, n), m))
    for i0 in range(0, n, BLOCK):
        rows = slice(i0, min(i0 + BLOCK, n))
        sq, tmp = scratch[0, : rows.stop - i0], scratch[1, : rows.stop - i0]
        np.subtract(a[rows, 0, None], bx, out=sq)
        np.multiply(sq, sq, out=sq)
        np.subtract(a[rows, 1, None], by, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(sq, tmp, out=sq)
        np.subtract(a[rows, 2, None], bz, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(sq, tmp, out=sq)
        yield rows, sq


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
    cols = np.arange(m)
    for rows, sq in _squared_blocks(p, q):
        j[rows] = sq.argmin(axis=1)
        sq_p[rows] = sq[np.arange(sq.shape[0]), j[rows]]
        best = sq.argmin(axis=0)
        best_sq = sq[best, cols]
        # strict: an equal minimum in a later block has a higher row index
        better = best_sq < sq_q
        i[better] = best[better] + rows.start
        sq_q[better] = best_sq[better]
    return j, sq_p, i, sq_q
