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

The loss reads only the last hop's cross walks, so it asks ``propagate``
for a cross-only last hop. That hop keeps the previous hop's cross entries
and extends each live entry (i, k) only by the edges from k into the other
cloud than i's. Its record then holds the cross walks alone, each with the
key, length and last edge it has in the full record, and its counts in
``hop_entries`` and ``improved_per_hop`` are of cross walks. The default
builds every hop whole.

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

The active rows are extended in ranges of whole rows [r0, r1) holding at
most ``SPAN`` entries and candidates, a larger row being a range of its
own, so that transient memory is bounded by ``SPAN`` rather than by all
candidates and a range's fields stay in cache; the ranges' records
concatenate to the same sorted record. Frozen rows never enter a range:
their slices are spliced back unchanged.

A range's winners are picked by one value sort of packed int64 words,
``(key - r0 * n) << s | top << b | index``. ``index`` is the entry's
position in the concatenation of the previous entries and the candidates,
below ``2**b`` for ``b = bits(E - 1)`` and E entries. The local keys lie
below ``span = (r1 - r0) * n``, and ``s = 63 - bits(span - 1)``, so the
word is below 2**63. ``top`` is the length's bit pattern, an int64,
shifted right by ``63 - L`` for the ``L = s - b`` bits left. Every length
is a sum of square roots, so it is non-negative, its sign bit is clear and
its pattern rises with it: equal lengths have equal tops, and a smaller
top means a strictly smaller length. After the sort each key's entries
run by top, then by index, so its first entry is at the minimum length
unless the second has the same top. Those groups are settled on exact
lengths: the winner is the first entry at the group's minimum, and equal
lengths sort by index. Either way the winner is the lowest index at the
minimum, exactly the entry a stable sort by key, then length, would put
first.

L is at least 0. A range of several rows has E <= SPAN and local keys
below n * n, so bits(span - 1) + b <= 2 * 20 + 13 = 53 with n <= MAX_POINTS
= 2**20 and SPAN = 2**13, and L >= 10. A single row holds at most n - 1
entries, each extended by at most n - 1 edges, so E < n**2, b <= 40, and
its local keys lie below n, so L >= 3. The truncation never decides a
winner: with few bits left, as in a range over many empty rows or in one
huge row, more groups are settled on exact lengths and nothing else
changes. At 1024 points per cloud, k=8 and 3 hops, a range spans about a
hundred rows and L is about 32: the exponent and 21 bits of the mantissa.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NormalizationError
from .graph import SENTINEL, Hop, MergedSet

# Most entries and candidates that one extension range sorts at once. In a
# sweep of 2**12 to 2**16 at 512 to 8192 points per cloud on 2 cores
# (propagate with a cross-only last hop, k=8, 3 hops), 2**13 took 0.74-1.01x
# the time of 2**16 and 2**12 took 0.85-1.12x. In interleaved pairs 2**14
# took 0.95-1.01x the time of 2**13, no less at 1024 points per cloud, and
# raised geocd's traced peak there from 6.32 to 6.60 MiB. With the mask on
# (k=5, 2 hops), few rows stay active and every size took 0.99-1.04x.
SPAN = 1 << 13
MAX_POINTS = 1 << 20  # largest merged set that multi-hop propagation takes


@dataclass
class MaskConfig:
    enabled: bool = False
    threshold: float | None = None  # None: 2x the mean 1-hop edge length, possibly 0.0


@dataclass
class GeoDistances:
    """Per-hop walk records, hop 1 being the graph, plus the merged set they index.

    With ``cross_only``, the last hop (after the first) records the walks
    between the two clouds only, and its counts in ``hop_entries`` and
    ``improved_per_hop`` are of those walks.
    """

    merged: MergedSet
    hops: list[Hop]
    masked_per_hop: list[float] = field(default_factory=list)
    mask_threshold: float | None = None
    # per hop after the first: entries it added or made strictly shorter
    improved_per_hop: list[int] = field(default_factory=list)
    hop_seconds: list[float] = field(default_factory=list)  # per hop after the first
    cross_only: bool = False

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
        last, n = self.hops[-1], self.merged.size
        if self.cross_only:
            return np.arange(last.key.size), last.key // n, last.dist
        n_pred = self.merged.n_pred
        src = last.key // n
        dst = last.key - src * n
        pos = np.flatnonzero((src < n_pred) != (dst < n_pred))
        return pos, src[pos], last.dist[pos]


class _OutEdges(NamedTuple):
    """Hop 1 by source: point p's edges lie at ``ptr[p]:ptr[p + 1]``, sorted
    by destination, those into the second cloud from ``split[p]`` on."""

    ptr: np.ndarray
    split: np.ndarray
    dst: np.ndarray  # each edge's destination
    length: np.ndarray
    n_pred: int


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


def _pick(word: np.ndarray, dist: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct key and its winner, from one sort of packed words.

    ``word[:e]`` holds the local keys, below ``span``, of ``e`` entries in
    concatenation order, and ``dist`` their lengths; ``word`` has one spare
    slot at its end and is overwritten. Returns the distinct keys, rising,
    and the winner of each: the lowest index among the key's entries at its
    minimum length.

    Each word packs (local key, top bits of the length, index), see the
    module docstring. After the sort, a key's first entry wins unless the
    next entry has the same key and the same top bits. Those groups are
    settled on exact lengths: the first entry at the group's minimum, which
    sorts with its equals by index.
    """
    e = dist.size
    bits = (e - 1).bit_length()
    shift = 63 - (span - 1).bit_length()  # the length's bits and the index's
    w = word[:e]
    w <<= shift
    top = np.right_shift(dist.view(np.int64), 63 - shift + bits)
    top <<= bits
    w |= top
    w |= np.arange(e)
    w.sort()
    word[e] = -1  # a word with its sign bit set ties with none
    first = np.flatnonzero(_starts(np.right_shift(w, shift, out=top)))
    head = word[first]
    low = (1 << bits) - 1
    won = head & low
    tied = np.flatnonzero((word[first + 1] ^ head) >> bits == 0)
    if tied.size:
        lo = first[tied]
        count = np.append(first, e)[tied + 1] - lo  # the tied groups' entries
        off = np.cumsum(count) - count
        index = word[np.arange(off[-1] + count[-1]) + np.repeat(lo - off, count)] & low
        d = dist[index]
        hit = np.flatnonzero(d == np.repeat(np.minimum.reduceat(d, off), count))
        won[tied] = index[hit[_starts(np.searchsorted(off, hit, side="right"))]]
    return head >> shift, won


def _extend(
    prev: Hop, fresh: np.ndarray, active: np.ndarray, graph: _OutEdges, cross=None
) -> tuple[Hop, np.ndarray]:
    """One (min, +) update: out[i,j] = min(prev[i,j], min_k prev[i,k] + adj[k,j]).

    Candidates read the previous hop only (Jacobi). Exact ties keep the
    previous value; among improving intermediates the lowest index wins.
    Frozen rows are copied unchanged. Returns the new record and the mask
    of its entries that this hop added or made strictly shorter, which is
    the next hop's ``fresh``.

    ``cross``, the positions of ``prev``'s cross entries, asks for the
    cross pairs only. The record then keeps only those entries, and each
    live entry (i, k) is extended only by the edges from k into the other
    cloud than i's: k's edges are sorted by destination, so they are the
    ones before or from ``graph.split[k]``. The entries left keep their
    order of concatenation, so every cross entry is the one of the full
    update.

    Frozen rows are spliced, not sorted: when the mask has frozen a row,
    only the active rows' entries go through ``_extend_rows``, and the
    frozen rows' slices of ``prev`` are put back in key order by position.
    Rows keep their keys apart (``key // n`` is the row), so each new entry
    lands after the frozen entries of lower keys and the record is the one
    a sort of all rows would give.
    """
    n = active.size
    every = active.all()
    on = None if every else active[prev.key // n]  # the entries of active rows
    live = np.flatnonzero(fresh if every else fresh & on)
    src, start, deg = _live_edges(prev, live, graph, cross is not None)
    args = (src, prev.dist[live], start, deg, graph.dst, graph.length)
    if every:
        keep = slice(None) if cross is None else cross
        return _extend_rows(Hop(prev.key[keep], prev.dist[keep], prev.edge[keep], n), *args)
    if cross is None:
        rest, frozen = np.flatnonzero(on), np.flatnonzero(~on)
    else:
        rest, frozen = cross[on[cross]], cross[~on[cross]]
    new, improved = _extend_rows(Hop(prev.key[rest], prev.dist[rest], prev.edge[rest], n), *args)
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


def _live_edges(prev: Hop, live: np.ndarray, graph: _OutEdges, cross_only: bool):
    """Row of each live entry of ``prev``, and the range of hop-1 edges
    (first, count) that extends it: all out-edges of its last point, or with
    ``cross_only`` those into the other cloud than its row's."""
    ptr = graph.ptr
    key = prev.key[live]
    src = key // prev.size  # scalar floor division is several times faster than divmod
    mid = key - src * prev.size
    start, stop = ptr[mid], ptr[mid + 1]
    if cross_only:  # a point's edges into the second cloud start at its split
        at, to_gt = graph.split[mid], src < graph.n_pred
        start, stop = np.where(to_gt, at, start), np.where(to_gt, stop, at)
    stop -= start
    return src, start, stop


def _extend_rows(
    old: Hop, src: np.ndarray, dist: np.ndarray, start: np.ndarray, deg: np.ndarray, dst, length
) -> tuple[Hop, np.ndarray]:
    """``_extend`` over active rows: their entries ``old``, kept as they are,
    and the live entries, with rows ``src`` (rising) and lengths ``dist``,
    each extended by the ``deg`` hop-1 edges from position ``start``.

    Only real walks are extended, by real edges: a candidate routed through
    a sentinel entry costs at least the sentinel, and every entry is bounded
    by the sentinel, so it can never strictly improve. Nor can one extended
    from a stale entry (``fresh`` False), which the previous hop already
    tried (see the module docstring). The result is identical to the dense
    formula of ``_extend``.

    Walks that return to their start or reach the sentinel are sorted with
    the rest and dropped after the winners are picked, which leaves the
    record as it would be without them. If a key has a previous entry, that
    entry holds at most the sentinel and comes first in concatenation order,
    so no such candidate beats it or wins a tie with it. If a key has none,
    its group is kept only when it is off the diagonal and its minimum is
    below the sentinel, and then no such candidate is at the minimum.

    The rows are extended in ranges of at most ``SPAN`` entries and
    candidates (a larger row is a range of its own). Each range builds its
    local keys, lengths and last edges in one buffer each, the previous
    entries' slice first, and ``_pick`` picks its winners. The ranges'
    parts are joined one field at a time, each field's parts freed before
    the next is joined.
    """
    n = old.size
    cum = np.r_[0, np.cumsum(deg)]  # candidates of the live entries before each one
    bound = np.arange(n + 1)
    row = np.searchsorted(old.key, bound * n)  # each row's first entry
    lrow = np.searchsorted(src, bound)  # each row's first live entry
    load = row + cum[lrow]  # entries and candidates before each row
    fields = [], [], [], []
    r0 = 0
    while r0 < n:
        r1 = max(r0 + 1, int(np.searchsorted(load, load[r0] + SPAN, side="right")) - 1)
        a, b = row[r0], row[r1]
        la, lb = lrow[r0], lrow[r1]
        rep = deg[la:lb]
        m = b - a
        e = int(m + cum[lb] - cum[la])
        word, d, last = np.empty(e + 1, np.int64), np.empty(e), np.empty(e, np.int64)
        edge = last[m:]
        np.add(np.arange(cum[la], cum[lb]), np.repeat(start[la:lb] - cum[la:lb], rep), out=edge)
        np.subtract(old.key[a:b], r0 * n, out=word[:m])
        np.add(np.repeat((src[la:lb] - r0) * n, rep), dst[edge], out=word[m:e])
        d[:m] = old.dist[a:b]
        np.add(np.repeat(dist[la:lb], rep), length[edge], out=d[m:])
        last[:m] = old.edge[a:b]
        key, won = _pick(word, d, (r1 - r0) * n)
        key += r0 * n
        d = d[won]
        # i * n + j is a multiple of n + 1 exactly when i == j
        kept = (won < m) | ((key // (n + 1) * (n + 1) != key) & (d < SENTINEL))
        won = won[kept]
        for part, field in zip((key[kept], d[kept], last[won], won >= m), fields):
            field.append(part)
        r0 = r1
    key, dist, last, improved = (_join(field) for field in fields)
    return Hop(key, dist, last, n), improved


def _join(parts: list) -> np.ndarray:
    """The concatenation of ``parts``, which it empties."""
    out = np.concatenate(parts)
    parts.clear()
    return out


def propagate(
    merged: MergedSet,
    adj: Hop,
    n_hops: int = 2,
    mask: MaskConfig | None = None,
    cross_only: bool = False,
) -> GeoDistances:
    """Run n_hops of propagation and record the real walks of every hop.

    ``adj`` is the graph's record, and hop 1 is ``adj`` itself. The mask,
    when enabled, is re-evaluated after every completed hop. ``cross_only``
    builds a last hop of cross walks only, the ones the loss reads: every
    cross entry is the one of the full record (see ``_extend``), and
    ``GeoDistances.cross_only`` says so. Without it every hop is full.

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

    src = adj.key // n
    dst = adj.key - src * n
    # each source's first edge, then its first edge into the second cloud:
    # a source's edges are sorted by destination
    bounds = np.zeros(2 * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(2 * src + (dst >= merged.n_pred), minlength=2 * n), out=bounds[1:])
    graph = _OutEdges(bounds[::2], bounds[1::2], dst, length, merged.n_pred)
    geo = GeoDistances(merged, [adj], mask_threshold=threshold)
    active = np.ones(n, dtype=bool)
    fresh = np.ones(length.size, dtype=bool)  # every 1-hop entry is new
    for h in range(2, n_hops + 1):
        last = cross_only and h == n_hops
        if mask.enabled:
            pos, rows, d = geo.cross()
            active &= row_min(rows, d, cross_width(merged)) > threshold
            geo.masked_per_hop.append(float(1.0 - active.mean()))
        elif last:
            pos = geo.cross()[0]
        t0 = time.perf_counter()
        hop, fresh = _extend(geo.hops[-1], fresh, active, graph, pos if last else None)
        geo.hop_seconds.append(time.perf_counter() - t0)
        geo.hops.append(hop)
        geo.improved_per_hop.append(int(fresh.sum()))
    geo.cross_only = cross_only and n_hops > 1
    return geo


def unroll(geo: GeoDistances, pos: np.ndarray) -> tuple[np.ndarray, ...]:
    """Edges of the walks at positions ``pos`` of the last hop's record, last edge first.

    Returns flat arrays (walk, edge): walk walk[u], the one at pos[walk[u]],
    uses hop 1's entry edge[u]. Group g holds the g-th last edge of every
    walk longer than g edges, in rising walk order.
    """
    n = geo.merged.size
    starts = geo.hops[-1].key[pos] // n
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
    outside [0, n), and for two points of one cloud when the last hop
    holds cross walks only (``GeoDistances.cross_only``).
    """
    n = geo.merged.size
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"path indices ({i}, {j}) must lie in [0, {n}), the merged set's points")
    if i == j:
        return [i]
    if geo.cross_only and (i < geo.merged.n_pred) == (j < geo.merged.n_pred):
        raise ValueError(f"({i}, {j}) is a pair of one cloud; the last hop holds cross walks only")
    pos, found = geo.hops[-1].find(np.array([i * n + j]))
    if not found[0]:
        return None
    _, edge = unroll(geo, pos)
    return [*(geo.hops[0].key[edge[::-1]] // n).tolist(), j]
