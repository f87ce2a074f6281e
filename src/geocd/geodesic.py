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

A hop extends only its frontier: the entries that the previous hop added
or made strictly shorter (at the first extension, every edge). A stale
entry (i, k) holds the value it held one hop earlier, so its candidates
prev[i,k] + adj[k,j] are bit for bit the ones that hop already tried. Its
row was active then too, since rows only ever freeze, so each of those
candidates lost or tied, and it can never strictly improve on the value
that hop kept.

The winners are picked by one value sort of packed int64 words,
``(key - r0 * n) << b | index``, where ``index`` is the entry's position
in the concatenation of the previous entries and the candidates and
``b = bits(E - 1)`` for E entries. Ties on the key fall to the lower
index, which is exactly the order of a stable sort by key. The rows are
extended in ranges of whole rows [r0, r1) holding at most ``SPAN``
entries and candidates, a larger row being a range of its own, so that
transient memory is bounded by ``SPAN`` rather than by all candidates;
the ranges' records concatenate to the same sorted record.

The word fits an int64. Its index is below 2**b <= max(1, 2 * (E - 1)).
A range of several rows has E <= SPAN and local keys below n * n, so its
words stay below 2 * n**2 * SPAN. A single row holds at most n - 1
entries, each extended by at most n - 1 edges, so E < n**2, and its local
keys stay below n, so its words stay below 2 * n**3. With n <= MAX_POINTS
= 2**20 and SPAN = 2**20, both bounds are at most 2**61.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NormalizationError
from .graph import SENTINEL, Adjacency, MergedSet

NO_VIA = -1  # entry still holds its 1-hop value (a direct edge)
SPAN = 1 << 20  # most entries and candidates that one extension range sorts at once
MAX_POINTS = 1 << 20  # largest merged set that multi-hop propagation takes


@dataclass
class MaskConfig:
    enabled: bool = False
    threshold: float | None = None  # None: 2x the mean 1-hop edge length, possibly 0.0


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
    # per hop after the first: entries it added or made strictly shorter
    improved_per_hop: list[int] = field(default_factory=list)

    @property
    def hops_used(self) -> int:
        return len(self.hops)

    @property
    def hop_entries(self) -> list[int]:
        """Record size (real walks) of every hop."""
        return [hop.key.size for hop in self.hops]

    def dense(self, h: int = -1) -> np.ndarray:
        """(n, n) distance matrix of ``self.hops[h]``, for oracles and tests."""
        n = self.merged.size
        out = np.full((n, n), SENTINEL)
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


def row_min(rows: np.ndarray, d: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Per-row minimum of a row set given by its real entries.

    Row r has ``width[r]`` entries in all; the ones not listed in
    (``rows``, ``d``) hold the sentinel.
    """
    out = np.where(np.bincount(rows, minlength=width.size) < width, SENTINEL, np.inf)
    np.minimum.at(out, rows, d)
    return out


def _starts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``a`` that differ from their predecessor."""
    out = np.ones(a.size, dtype=bool)
    out[1:] = a[1:] != a[:-1]
    return out


def _extend(
    prev: Hop, fresh: np.ndarray, active: np.ndarray, ptr, dst, length
) -> tuple[Hop, np.ndarray]:
    """One (min, +) update: out[i,j] = min(prev[i,j], min_k prev[i,k] + adj[k,j]).

    Candidates read the previous hop only (Jacobi). Exact ties keep the
    previous value; among improving intermediates the lowest index wins.
    Frozen rows are copied unchanged. Returns the new record and the mask
    of its entries that this hop added or made strictly shorter, which is
    the next hop's ``fresh``.

    Only real walks are extended, by real edges: a candidate routed through
    a sentinel entry costs at least the sentinel, and every entry is bounded
    by the sentinel, so it can never strictly improve. Neither can one that
    returns to its start or reaches the sentinel. Nor can one extended
    from a stale entry (``fresh`` False), which the previous hop already
    tried (see the module docstring). The result is identical to the dense
    formula above.

    The rows are extended in ranges of at most ``SPAN`` entries and
    candidates (a larger row is a range of its own), each sorted by one
    packed word, local key above concatenation index; the module docstring
    derives why that word fits an int64.
    """
    n = active.size
    i, k = np.divmod(prev.key, n)
    live = np.flatnonzero(fresh & active[i])
    start = ptr[k[live]]  # out-edges of k sit at ptr[k] .. ptr[k+1] in the edge arrays
    deg = ptr[k[live] + 1] - start
    cum = np.r_[0, np.cumsum(deg)]  # candidates of the live entries before each one
    row = np.searchsorted(prev.key, np.arange(n + 1) * n)  # each row's first entry
    load = row + cum[np.searchsorted(live, row)]  # entries and candidates before each row
    parts = []
    r0 = 0
    while r0 < n:
        r1 = max(r0 + 1, int(np.searchsorted(load, load[r0] + SPAN, side="right")) - 1)
        a, b = row[r0], row[r1]
        la, lb = np.searchsorted(live, (a, b))
        walk = np.repeat(live[la:lb], deg[la:lb])  # the extended entry of every candidate
        edge = np.repeat(start[la:lb] - cum[la:lb], deg[la:lb]) + np.arange(cum[la], cum[lb])
        ci, cj, cv = i[walk], dst[edge], prev.dist[walk] + length[edge]
        ok = (cj != ci) & (cv < SENTINEL)
        # Sorting (local key, concatenation index) words orders each key's
        # entries as a stable sort would: the previous entry first, then the
        # candidates by rising intermediate. The first entry at the key's
        # minimum wins.
        word = np.concatenate([prev.key[a:b], ci[ok] * n + cj[ok]])
        bits = (word.size - 1).bit_length()
        word -= r0 * n
        word <<= bits
        word |= np.arange(word.size)
        word.sort()
        order, key = word & ((1 << bits) - 1), word >> bits
        dist = np.concatenate([prev.dist[a:b], cv[ok]])[order]
        new = _starts(key)
        gid = np.cumsum(new) - 1
        hit = np.flatnonzero(dist == np.minimum.reduceat(dist, np.flatnonzero(new))[gid])
        keep = hit[_starts(gid[hit])]
        won = order[keep]
        via = np.concatenate([prev.via[a:b], k[walk[ok]]])
        parts.append((key[keep] + r0 * n, dist[keep], via[won], won >= b - a))
        r0 = r1
    key, dist, via, improved = (np.concatenate(p) for p in zip(*parts))
    return Hop(key, dist, via), improved


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
    the real walks. Raises ValueError for more than one hop over a merged
    set of more than ``MAX_POINTS`` points, where the packed sort words
    could overflow.
    """
    if n_hops < 1:
        raise ValueError(f"n_hops must be >= 1, got {n_hops}")
    if adj.size != merged.size:
        raise DimensionMismatchError(
            f"adjacency has {adj.size} points, merged set has {merged.size}"
        )
    n = merged.size
    if n_hops > 1 and n > MAX_POINTS:
        raise ValueError(
            f"multi-hop propagation supports at most {MAX_POINTS} merged points, got {n}"
        )
    src, dst, length = adj.src, adj.dst, adj.length
    if (length > SENTINEL).any():
        raise NormalizationError(
            f"kNN edge of length {length.max():.6g} exceeds the sentinel {SENTINEL:g}; "
            "normalize the pair first"
        )
    mask = mask or MaskConfig()
    threshold = None
    if mask.enabled:
        threshold = mask.threshold if mask.threshold is not None else 2.0 * float(length.mean())
        if mask.threshold is not None and not (np.isfinite(threshold) and threshold > 0):
            raise ValueError(f"mask threshold must be positive and finite, got {threshold}")

    ptr = np.searchsorted(src, np.arange(n + 1))
    hop1 = Hop(src * n + dst, length, np.full(src.size, NO_VIA))
    geo = GeoDistances(merged, adj, [hop1], mask_threshold=threshold)
    active = np.ones(n, dtype=bool)
    fresh = np.ones(src.size, dtype=bool)  # every 1-hop entry is new
    for _ in range(n_hops - 1):
        if mask.enabled:
            rows, _, d = geo.cross()
            active &= row_min(rows, d, cross_width(merged)) > threshold
            geo.masked_per_hop.append(float(1.0 - active.mean()))
        hop, fresh = _extend(geo.hops[-1], fresh, active, ptr, dst, length)
        geo.hops.append(hop)
        geo.improved_per_hop.append(int(fresh.sum()))
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
