"""Euclidean lengths: one expression, the dense matrix and the nearest neighbours.

``squared_lengths`` evaluates ``(dx*dx + dy*dy) + dz*dz`` per component,
and every length the kNN graph, Chamfer, Hausdorff and F1 read comes from
it. It matches a scalar double loop bit for bit, which the reference checks
in the test suite rely on, and ``sqrt`` is correctly rounded, so all four
measure the same length to the last bit. The dense matrix and the nearest
neighbours fill a fixed (BLOCK, m) scratch block in place with it.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

BLOCK = 64  # rows per block: the scratch arrays stay small and are reused


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
