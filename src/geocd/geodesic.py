"""Multi-hop shortest-walk propagation over the merged kNN graph.

Hop h holds, for every ordered pair, the cost of the cheapest directed walk
of at most h edges (sentinel entries act as genuine cost-sentinel edges).
One hop is a (min, +) product of the previous hop with the 1-hop matrix;
the argmin intermediate of every improvement is recorded so the winning
walk can be rebuilt exactly, which the loss gradient needs.

Each hop is stored sparsely, as one ``Hop`` record of the pairs that hold
a real walk, sorted by ``key = src * n + dst``. Every other off-diagonal
pair holds the sentinel and the diagonal is zero. This module is the only
one that reads the record format: callers use ``GeoDistances.cross``,
the ``dense`` view, ``reconstruct_path`` and ``unroll``, which returns the
edges of many recorded walks as flat arrays ``(walk, a, b)``, last first.

Masking freezes a point's outgoing row once its best cross-set distance
drops below a threshold; frozen points still serve as intermediates for
everyone else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NormalizationError
from .graph import Adjacency, MergedSet

NO_VIA = -1  # entry still holds its 1-hop value (a direct edge)


@dataclass
class MaskConfig:
    enabled: bool = False
    threshold: float | None = None  # None: 2x the mean 1-hop edge length


@dataclass
class Hop:
    """The real walks of one hop, sorted by ``key = src * n + dst``."""

    key: np.ndarray  # (e,) int64
    dist: np.ndarray  # (e,) float64, every entry <= sentinel
    via: np.ndarray  # (e,) int64, NO_VIA or the walk's last intermediate

    def find(self, key):
        """Positions of ``key`` in the record and whether each is present."""
        pos = np.minimum(np.searchsorted(self.key, key), self.key.size - 1)
        return pos, self.key[pos] == key


@dataclass
class GeoDistances:
    """Per-hop walk records plus the merged set and adjacency they index."""

    merged: MergedSet
    adj: Adjacency
    hops: list[Hop]
    masked_per_hop: list[float] = field(default_factory=list)
    mask_threshold: float | None = None

    @property
    def hops_used(self) -> int:
        return len(self.hops)

    def dense(self, h: int = -1) -> np.ndarray:
        """(n, n) distance matrix of ``self.hops[h]``, for oracles and tests."""
        n = self.merged.size
        out = np.full((n, n), self.adj.sentinel)
        np.fill_diagonal(out, 0.0)
        out.flat[self.hops[h].key] = self.hops[h].dist
        return out

    @property
    def d_xy(self) -> np.ndarray:
        """(N, M) final distances, predicted -> ground truth."""
        n = self.merged.n_pred
        return self.dense()[:n, n:]

    @property
    def d_yx(self) -> np.ndarray:
        """(M, N) final distances, ground truth -> predicted."""
        n = self.merged.n_pred
        return self.dense()[n:, :n]

    def cross(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, dist) of the last hop's real walks between the two clouds, in key order."""
        n_pred = self.merged.n_pred
        src, dst = np.divmod(self.hops[-1].key, self.merged.size)
        c = (src < n_pred) != (dst < n_pred)
        return src[c], dst[c], self.hops[-1].dist[c]


def cross_width(merged: MergedSet) -> np.ndarray:
    """Cross-block row length of every merged point: the other cloud's size."""
    return np.where(merged.is_pred(), merged.n_gt, merged.n_pred)


def row_min(rows: np.ndarray, d: np.ndarray, width: np.ndarray, sentinel: float) -> np.ndarray:
    """Per-row minimum of a row set given by its real entries.

    Row r has ``width[r]`` entries in all; the ones not listed in
    (``rows``, ``d``) hold the sentinel.
    """
    out = np.where(np.bincount(rows, minlength=width.size) < width, sentinel, np.inf)
    np.minimum.at(out, rows, d)
    return out


def _extend(prev: Hop, active: np.ndarray, ptr, dst, length, sentinel: float) -> Hop:
    """One (min, +) update: out[i,j] = min(prev[i,j], min_k prev[i,k] + adj[k,j]).

    Candidates read the previous hop only (Jacobi). Exact ties keep the
    previous value; among improving intermediates the lowest index wins.
    Frozen rows are copied unchanged.

    Only real walks are extended, by real edges: a candidate routed through
    a sentinel entry costs at least the sentinel, and every entry is bounded
    by the sentinel, so it can never strictly improve. Neither can one that
    returns to its start or reaches the sentinel. The result is identical to
    the dense formula above.
    """
    n = active.size
    i, k = np.divmod(prev.key, n)
    live = np.flatnonzero(active[i])
    start = ptr[k[live]]  # out-edges of k sit at ptr[k] .. ptr[k+1] in the edge arrays
    deg = ptr[k[live] + 1] - start
    walk = np.repeat(live, deg)  # the extended entry of every candidate
    edge = np.repeat(start - (np.cumsum(deg) - deg), deg) + np.arange(walk.size)
    ci, cj, cv = i[walk], dst[edge], prev.dist[walk] + length[edge]
    ok = (cj != ci) & (cv < sentinel)

    key = np.concatenate([prev.key, ci[ok] * n + cj[ok]])
    dist = np.concatenate([prev.dist, cv[ok]])
    via = np.concatenate([prev.via, k[walk[ok]]])
    # A stable sort by key keeps each key's entries in concatenation order:
    # the previous entry first, then the candidates by rising intermediate.
    # The first entry at the key's minimum is therefore the winner.
    order = np.argsort(key, kind="stable")
    key, dist, via = key[order], dist[order], via[order]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    best = np.repeat(np.minimum.reduceat(dist, start), np.diff(np.r_[start, key.size]))
    hit = np.flatnonzero(dist == best)
    group = np.searchsorted(start, hit, side="right")
    keep = hit[np.r_[True, group[1:] != group[:-1]]]
    return Hop(key[keep], dist[keep], via[keep])


def propagate(
    merged: MergedSet,
    adj: Adjacency,
    n_hops: int = 2,
    mask: MaskConfig | None = None,
) -> GeoDistances:
    """Run n_hops of propagation and record the real walks of every hop.

    n_hops = 1 returns the adjacency itself. The mask, when enabled, is
    re-evaluated after every completed hop.

    Raises NormalizationError when a kNN edge is longer than the sentinel:
    the pair is not normalized, and sentinel entries would no longer bound
    the real walks.
    """
    if n_hops < 1:
        raise ValueError(f"n_hops must be >= 1, got {n_hops}")
    if adj.size != merged.size:
        raise DimensionMismatchError(
            f"adjacency has {adj.size} points, merged set has {merged.size}"
        )
    src, dst, length = adj.src, adj.dst, adj.length
    if (length > adj.sentinel).any():
        raise NormalizationError(
            f"kNN edge of length {length.max():.6g} exceeds the sentinel {adj.sentinel:g}; "
            "normalize the pair first"
        )
    mask = mask or MaskConfig()
    threshold = None
    if mask.enabled:
        threshold = mask.threshold if mask.threshold is not None else 2.0 * float(length.mean())
        if not threshold > 0:  # also rejects NaN
            raise ValueError(f"mask threshold must be positive, got {threshold}")

    n = merged.size
    ptr = np.searchsorted(src, np.arange(n + 1))
    hop1 = Hop(src * n + dst, length, np.full(src.size, NO_VIA))
    geo = GeoDistances(merged, adj, [hop1], mask_threshold=threshold)
    active = np.ones(n, dtype=bool)
    for _ in range(n_hops - 1):
        if mask.enabled:
            rows, _, d = geo.cross()
            active &= row_min(rows, d, cross_width(merged), adj.sentinel) > threshold
            geo.masked_per_hop.append(float(1.0 - active.mean()))
        geo.hops.append(_extend(geo.hops[-1], active, ptr, dst, length, adj.sentinel))
    return geo


def unroll(geo: GeoDistances, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, ...]:
    """Edges of the recorded walks starts[t] -> ends[t], last edge first.

    Returns flat arrays (walk, a, b): walk walk[u] uses the edge a[u] -> b[u].
    Group g holds the g-th last edge of every walk longer than g edges, in
    rising walk order. Every pair must hold a real walk in the last hop.
    """
    n = geo.merged.size
    idx = np.arange(starts.size)
    parts = []
    for hop in reversed(geo.hops):
        pos, found = hop.find(starts[idx] * n + ends)
        # a recorded intermediate always carries a real prefix walk
        assert found.all(), "walk routed through a sentinel entry"
        via = hop.via[pos]
        direct = via == NO_VIA
        parts.append((idx, np.where(direct, starts[idx], via), ends))
        idx, ends = idx[~direct], via[~direct]
    return tuple(np.concatenate(p) for p in zip(*parts))


def reconstruct_path(geo: GeoDistances, i: int, j: int) -> list[int] | None:
    """Rebuild the recorded walk between merged-set indices i and j.

    Returns the node sequence [i, ..., j] whose edge lengths sum to the
    final distance, or None when the entry is the untouched sentinel
    constant (no walk was ever cheaper).
    """
    if i == j:
        return [i]
    if not geo.hops[-1].find(i * geo.merged.size + j)[1]:
        return None
    _, a, _ = unroll(geo, np.array([i]), np.array([j]))
    return [*a[::-1].tolist(), j]
