"""Multi-hop shortest-walk propagation over the merged kNN graph.

Hop h holds, for every ordered pair, the cost of the cheapest directed walk
of at most h edges (sentinel entries act as genuine cost-sentinel edges).
One hop is a (min, +) product of the previous hop with the 1-hop matrix;
every entry records its walk's last edge, by its position in hop 1, so the
winning walk can be rebuilt exactly, which the loss gradient needs.

Each hop is stored sparsely, as one ``graph.Hop`` record of the pairs that
hold a real walk, sorted by ``key = src * n + dst``. Every other
off-diagonal pair holds the sentinel and the diagonal is zero. Hop 1 is the
kNN graph's own record. Callers use ``GeoDistances.cross``, which also
gives the cross walks' positions in the last hop, ``reconstruct_path`` and
``unroll``, which returns the edges of the walks at given positions as
flat arrays ``(walk, edge)``, last first. The dense views of a record,
for oracles and tests, are in ``oracle.py``.

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
index, which is exactly the order of a stable sort by key. The active
rows are extended in ranges of whole rows [r0, r1) holding at most
``SPAN`` entries and candidates, a larger row being a range of its own, so
that transient memory is bounded by ``SPAN`` rather than by all candidates
and a range's fields stay in cache; the ranges' records concatenate to the
same sorted record. Frozen rows never enter a range: their slices are
spliced back unchanged.

The word fits an int64. Its index is below 2**b <= max(1, 2 * (E - 1)).
A range of several rows has E <= SPAN and local keys below n * n, so its
words stay below 2 * n**2 * SPAN. A single row holds at most n - 1
entries, each extended by at most n - 1 edges, so E < n**2, and its local
keys stay below n, so its words stay below 2 * n**3. With n <= MAX_POINTS
= 2**20 and SPAN = 2**13, the bounds are 2**54 and 2**61.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NormalizationError
from .graph import SENTINEL, Hop, MergedSet

# Most entries and candidates that one extension range sorts at once: the
# smallest size no slower than 2**16 in a sweep of 2**12 to 2**16 at 512 to
# 8192 points per cloud (propagate at k=8 and 3 hops, 0.83-1.00x the time of
# 2**16; 2**12 took 1.02-1.24x). It cut the traced peak at 1024 points per
# cloud from 9.96 to 6.75 MiB. With the mask on (k=5, 2 hops), few rows
# stay active and every size took 0.97-1.09x, within run-to-run noise.
SPAN = 1 << 13
MAX_POINTS = 1 << 20  # largest merged set that multi-hop propagation takes


@dataclass
class MaskConfig:
    enabled: bool = False
    threshold: float | None = None  # None: 2x the mean 1-hop edge length, possibly 0.0


@dataclass
class GeoDistances:
    """Per-hop walk records, hop 1 being the graph, plus the merged set they index."""

    merged: MergedSet
    hops: list[Hop]
    masked_per_hop: list[float] = field(default_factory=list)
    mask_threshold: float | None = None
    # per hop after the first: entries it added or made strictly shorter
    improved_per_hop: list[int] = field(default_factory=list)
    hop_seconds: list[float] = field(default_factory=list)  # per hop after the first

    @property
    def hops_used(self) -> int:
        return len(self.hops)

    @property
    def hop_entries(self) -> list[int]:
        """Record size (real walks) of every hop."""
        return [hop.key.size for hop in self.hops]

    def cross(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pos, src, dist) of the last hop's real walks between the two clouds.

        ``pos`` are the walks' positions in the last hop's record, in key order.
        """
        n_pred = self.merged.n_pred
        src, dst = np.divmod(self.hops[-1].key, self.merged.size)
        pos = np.flatnonzero((src < n_pred) != (dst < n_pred))
        return pos, src[pos], self.hops[-1].dist[pos]


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

    Frozen rows are spliced, not sorted: when the mask has frozen a row,
    only the active rows' entries go through ``_extend_rows``, and the
    frozen rows' slices of ``prev`` are put back in key order by position.
    Rows keep their keys apart (``key // n`` is the row), so each new entry
    lands after the frozen entries of lower keys and the record is the one
    a sort of all rows would give.
    """
    n = active.size
    if active.all():
        return _extend_rows(prev, fresh, ptr, dst, length)
    frozen = ~active[prev.key // n]
    rest = ~frozen
    new, improved = _extend_rows(
        Hop(prev.key[rest], prev.dist[rest], prev.edge[rest], n), fresh[rest], ptr, dst, length
    )
    kept = prev.key[frozen]
    # each new entry's position: the frozen entries of lower keys, then its rank
    at = np.searchsorted(kept, new.key) + np.arange(new.key.size)
    spliced = np.ones(kept.size + at.size, dtype=bool)  # the frozen entries' positions
    spliced[at] = False
    e = spliced.size
    key, dist, edge = np.empty(e, np.int64), np.empty(e), np.empty(e, np.int64)
    for out, a, b in (
        (key, kept, new.key),
        (dist, prev.dist[frozen], new.dist),
        (edge, prev.edge[frozen], new.edge),
    ):
        out[spliced], out[at] = a, b
    changed = np.zeros(e, dtype=bool)
    changed[at] = improved
    return Hop(key, dist, edge, n), changed


def _extend_rows(prev: Hop, fresh: np.ndarray, ptr, dst, length) -> tuple[Hop, np.ndarray]:
    """``_extend`` with every row of ``prev`` active.

    Only real walks are extended, by real edges: a candidate routed through
    a sentinel entry costs at least the sentinel, and every entry is bounded
    by the sentinel, so it can never strictly improve. Nor can one extended
    from a stale entry (``fresh`` False), which the previous hop already
    tried (see the module docstring). The result is identical to the dense
    formula of ``_extend``.

    Walks that return to their start or reach the sentinel are sorted with
    the rest and dropped after the winners are picked, which leaves the
    record as it would be without them. If a key has a previous entry, that
    entry holds at most the sentinel and sorts first, so no such candidate
    beats it or wins a tie with it. If a key has none, its group is kept only
    when it is off the diagonal and its minimum is below the sentinel, and
    then no such candidate is at the minimum.

    The rows are extended in ranges of at most ``SPAN`` entries and
    candidates (a larger row is a range of its own), each sorted by one
    packed word, local key above concatenation index; the module docstring
    derives why that word fits an int64. Each range builds its word, dist
    and last edge in one buffer each, the previous entries' slice first.
    """
    n = prev.size
    i, k = np.divmod(prev.key, n)
    live = np.flatnonzero(fresh)
    start = ptr[k[live]]  # out-edges of k sit at ptr[k] .. ptr[k+1] in the edge arrays
    deg = ptr[k[live] + 1] - start
    cum = np.r_[0, np.cumsum(deg)]  # candidates of the live entries before each one
    row = np.searchsorted(prev.key, np.arange(n + 1) * n)  # each row's first entry
    lrow = np.searchsorted(live, row)  # each row's first live entry
    load = row + cum[lrow]  # entries and candidates before each row
    parts = []
    r0 = 0
    while r0 < n:
        r1 = max(r0 + 1, int(np.searchsorted(load, load[r0] + SPAN, side="right")) - 1)
        a, b = row[r0], row[r1]
        la, lb = lrow[r0], lrow[r1]
        ext, rep = live[la:lb], deg[la:lb]
        m = b - a
        e = int(m + cum[lb] - cum[la])
        edge = np.arange(cum[la], cum[lb])
        edge += np.repeat(start[la:lb] - cum[la:lb], rep)
        # One buffer per field: the previous entries, then the candidates
        word, dist, last = np.empty(e, np.int64), np.empty(e), np.empty(e, np.int64)
        np.subtract(prev.key[a:b], r0 * n, out=word[:m])
        np.add(np.repeat((i[ext] - r0) * n, rep), dst[edge], out=word[m:])
        dist[:m] = prev.dist[a:b]
        np.add(np.repeat(prev.dist[ext], rep), length[edge], out=dist[m:])
        last[:m] = prev.edge[a:b]
        last[m:] = edge
        # Sorting (local key, concatenation index) words orders each key's
        # entries as a stable sort would: the previous entry first, then the
        # candidates by rising intermediate. The first entry at the key's
        # minimum wins.
        bits = (e - 1).bit_length()
        word <<= bits
        word |= np.arange(e)
        word.sort()
        order = word & ((1 << bits) - 1)
        key = np.right_shift(word, bits, out=word)
        dist = dist[order]
        starts = _starts(key)
        first = np.flatnonzero(starts)
        gkey = key[first] + r0 * n
        # each entry's group number, in the buffer of the keys it replaces;
        # one scatter-minimum gives every group's minimum
        group = np.cumsum(starts, out=key)
        group -= 1
        gmin = np.full(first.size, np.inf)
        np.minimum.at(gmin, group, dist)
        hit = np.flatnonzero(dist == gmin[group])
        won = order[hit[_starts(group[hit])]]
        # i * n + j is a multiple of n + 1 exactly when i == j
        kept = (order[first] < m) | ((gkey % (n + 1) != 0) & (gmin < SENTINEL))
        won = won[kept]
        parts.append((gkey[kept], gmin[kept], last[won], won >= m))
        r0 = r1
    key, dist, last, improved = (np.concatenate(p) for p in zip(*parts))
    return Hop(key, dist, last, n), improved


def propagate(
    merged: MergedSet,
    adj: Hop,
    n_hops: int = 2,
    mask: MaskConfig | None = None,
) -> GeoDistances:
    """Run n_hops of propagation and record the real walks of every hop.

    ``adj`` is the graph's record, and hop 1 is ``adj`` itself. The mask,
    when enabled, is re-evaluated after every completed hop.

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
    length = adj.dist
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

    ptr = np.searchsorted(adj.key, np.arange(n + 1) * n)  # each source's first edge
    dst = adj.key % n
    geo = GeoDistances(merged, [adj], mask_threshold=threshold)
    active = np.ones(n, dtype=bool)
    fresh = np.ones(length.size, dtype=bool)  # every 1-hop entry is new
    for _ in range(n_hops - 1):
        if mask.enabled:
            _, rows, d = geo.cross()
            active &= row_min(rows, d, cross_width(merged)) > threshold
            geo.masked_per_hop.append(float(1.0 - active.mean()))
        t0 = time.perf_counter()
        hop, fresh = _extend(geo.hops[-1], fresh, active, ptr, dst, length)
        geo.hop_seconds.append(time.perf_counter() - t0)
        geo.hops.append(hop)
        geo.improved_per_hop.append(int(fresh.sum()))
    return geo


def unroll(geo: GeoDistances, pos: np.ndarray) -> tuple[np.ndarray, ...]:
    """Edges of the walks at positions ``pos`` of the last hop's record, last edge first.

    Returns flat arrays (walk, edge): walk walk[u], the one at pos[walk[u]],
    uses hop 1's entry edge[u]. Group g holds the g-th last edge of every
    walk longer than g edges, in rising walk order.
    """
    n = geo.merged.size
    starts, ends = np.divmod(geo.hops[-1].key[pos], n)
    idx = np.arange(pos.size)
    parts = []
    for h in range(len(geo.hops) - 1, -1, -1):
        edge = geo.hops[h].edge[pos]
        parts.append((idx, edge))
        src = geo.hops[0].key[edge] // n  # the walk goes on unless its last edge starts it
        more = src != starts[idx]
        idx, ends = idx[more], src[more]
        if h:
            pos, found = geo.hops[h - 1].find(starts[idx] * n + ends)
            # a walk's prefix is always a real walk of the hop before
            assert found.all(), "walk routed through a sentinel entry"
    return tuple(np.concatenate(p) for p in zip(*parts))


def reconstruct_path(geo: GeoDistances, i: int, j: int) -> list[int] | None:
    """Rebuild the recorded walk between merged-set indices i and j.

    Returns the node sequence [i, ..., j] whose edge lengths sum to the
    final distance, or None when the entry is the untouched sentinel
    constant (no walk was ever cheaper). Raises ValueError for an index
    outside [0, n).
    """
    n = geo.merged.size
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"path indices ({i}, {j}) must lie in [0, {n}), the merged set's points")
    if i == j:
        return [i]
    pos, found = geo.hops[-1].find(np.array([i * n + j]))
    if not found[0]:
        return None
    _, edge = unroll(geo, pos)
    return [*(geo.hops[0].key[edge[::-1]] // n).tolist(), j]
