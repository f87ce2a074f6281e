import numpy as np
import pytest

from geocd import (
    DimensionMismatchError,
    GeoCdConfig,
    NormalizationError,
    PointCloud,
    geocd,
    knn_adjacency,
    merge,
    propagate,
    reconstruct_path,
)
from geocd import geodesic
from geocd.geodesic import NO_VIA, Hop, MaskConfig, cross_width, row_min, unroll
from geocd.graph import SENTINEL, Adjacency, MergedSet
from geocd.fit import ShapeSpec, noisy_copy, sample_shape
from geocd import normalize_pair
from conftest import random_normalized_pair


def l_shape():
    """z1=(0,0,0), z2=(0.4,0,0), z3=(0.4,0.3,0); k=1 edges: 1->2 (0.4),
    2->3 (0.3), 3->2 (0.3). Hand Dijkstra: the only multi-hop improvement is
    z1->z3 = 0.4 + 0.3 = 0.7, replacing the hop-1 sentinel."""
    pred = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    gt = PointCloud(np.array([[0.4, 0.0, 0.0], [0.4, 0.3, 0.0]]))
    z = merge(pred, gt)
    return z, knn_adjacency(z, k=1)


def naive_minplus(prev_dist, adj_dist):
    """Dense triple loop straight from the update definition."""
    n = prev_dist.shape[0]
    out = prev_dist.copy()
    for i in range(n):
        for j in range(n):
            best = prev_dist[i, j]
            for k in range(n):
                best = min(best, prev_dist[i, k] + adj_dist[k, j])
            out[i, j] = best
    return out


def test_l_shape_two_hop_improvement():
    z, adj = l_shape()
    geo = propagate(z, adj, n_hops=2)
    hop1, hop2 = geo.dense(0), geo.dense(1)
    assert hop1[0, 2] == 1.0  # sentinel at hop 1
    assert hop2[0, 2] == pytest.approx(0.7, abs=1e-12)
    assert reconstruct_path(geo, 0, 2) == [0, 1, 2]
    # everything else keeps its hop-1 value
    keep = np.ones((3, 3), dtype=bool)
    keep[0, 2] = False
    assert np.array_equal(hop2[keep], hop1[keep])


def test_l_shape_propagate_cross_blocks():
    z, adj = l_shape()
    geo = propagate(z, adj, n_hops=2)
    assert np.allclose(geo.d_xy, [[0.4, 0.7]], atol=1e-12)
    # nothing links back to z1, so the reverse block stays at the sentinel
    assert np.array_equal(geo.d_yx, [[1.0], [1.0]])
    pred, gt = PointCloud(z.points[:1]), PointCloud(z.points[1:])
    rep = geocd(pred, gt, GeoCdConfig(k=1, n_hops=2))
    assert rep.diagnostics["sentinel_fraction"] == pytest.approx(0.5)
    assert reconstruct_path(geo, 0, 2) == [0, 1, 2]
    assert reconstruct_path(geo, 1, 0) is None


def test_propagate_single_hop_is_adjacency(rng):
    pred, gt = random_normalized_pair(rng, 9, 7)
    z = merge(pred, gt)
    adj = knn_adjacency(z, 3)
    geo = propagate(z, adj, n_hops=1)
    assert np.array_equal(geo.d_xy, adj.dense()[:9, 9:])
    assert np.array_equal(geo.d_yx, adj.dense()[9:, :9])


def test_straight_line_complete_graph_fixed_point():
    # collinear points with every edge present: one hop cannot shorten anything
    pts = np.array([[0.1 * i, 0.0, 0.0] for i in range(6)])
    z = merge(PointCloud(pts[:3]), PointCloud(pts[3:]))
    adj = knn_adjacency(z, k=5)
    geo = propagate(z, adj, n_hops=2)
    assert np.allclose(geo.dense(1), geo.dense(0), atol=1e-12)
    assert (geo.hops[1].via == NO_VIA).all()


def test_isolated_pair_stays_sentinel():
    # two tight pairs far apart; k=1 links only within each pair
    pred = PointCloud(np.array([[0.0, 0.0, 0.0], [0.9, 0.9, 0.9]]))
    gt = PointCloud(np.array([[0.01, 0.0, 0.0], [0.91, 0.9, 0.9]]))
    z = merge(pred, gt)
    adj = knn_adjacency(z, k=1)
    geo = propagate(z, adj, n_hops=4)
    assert geo.dense()[0, 3] == 1.0  # no walk beats the sentinel
    assert reconstruct_path(geo, 0, 3) is None


def test_minplus_matches_naive_dense(rng):
    for _ in range(5):
        pred, gt = random_normalized_pair(rng, 8, 8)
        z = merge(pred, gt)
        adj = knn_adjacency(z, 3)
        geo = propagate(z, adj, n_hops=4)
        for h in range(1, 4):
            ref = naive_minplus(geo.dense(h - 1), adj.dense())
            assert np.abs(geo.dense(h) - ref).max() < 1e-15


def test_exact_ties_keep_previous_then_lowest_intermediate():
    # lengths are exact binary fractions, so the tied sums compare equal
    square = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.0, 0.25, 0.0], [0.25, 0.25, 0.0]])
    z = merge(PointCloud(square[:1]), PointCloud(square[1:]))
    geo = propagate(z, knn_adjacency(z, k=2), n_hops=2)
    assert geo.dense()[0, 3] == 0.5  # via 1 and via 2 tie
    assert reconstruct_path(geo, 0, 3) == [0, 1, 3]
    line = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.5, 0.0, 0.0]])
    z = merge(PointCloud(line[:1]), PointCloud(line[1:]))
    geo = propagate(z, knn_adjacency(z, k=2), n_hops=2)
    assert geo.dense()[0, 2] == 0.5  # the direct edge ties the walk via 1
    assert reconstruct_path(geo, 0, 2) == [0, 2]


def test_minplus_dimension_mismatch(rng):
    pred, gt = random_normalized_pair(rng, 5, 5)
    z = merge(pred, gt)
    small = knn_adjacency(merge(pred, PointCloud(gt.points[:3])), 2)
    with pytest.raises(DimensionMismatchError):
        propagate(z, small, n_hops=2)


def test_edges_beyond_sentinel_rejected():
    # raw coordinates: the 1-NN edges are 3 long against the sentinel 1
    pred = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    gt = PointCloud(np.array([[3.0, 0.0, 0.0], [3.0, 0.5, 0.0]]))
    z = merge(pred, gt)
    with pytest.raises(NormalizationError):
        propagate(z, knn_adjacency(z, 1), n_hops=2)
    # an edge as long as the sentinel is still a real edge, also when
    # rounding measures it within a relative 8 eps above; beyond that it is
    # rejected
    eps = np.finfo(np.float64).eps
    for x in (1.0, 1 + 8 * eps, 1 + 16 * eps):
        z = merge(PointCloud(np.zeros((1, 3))), PointCloud(np.array([[x, 0.0, 0.0]])))
        adj = knn_adjacency(z, 1)
        if x > 1 + 8 * eps:
            assert adj.length.tolist() == [x, x]
            with pytest.raises(NormalizationError, match="exceeds the sentinel 1; normalize"):
                propagate(z, adj, n_hops=2)
        else:
            assert adj.length.tolist() == [1.0, 1.0]  # stored as the sentinel
            assert reconstruct_path(propagate(z, adj, n_hops=2), 0, 1) == [0, 1]


def test_normalized_corner_pairs_pass_the_sentinel_check():
    # a 1+1 pair's only edge spans the union box diagonal, which
    # normalize_pair scales to 1 up to rounding
    rng = np.random.default_rng(0)
    rounded = 0
    for _ in range(500):
        a, b = PointCloud(rng.random((1, 3))), PointCloud(rng.random((1, 3)))
        pred, gt, _ = normalize_pair(a, b)
        rounded += np.linalg.norm(pred.points - gt.points) > 1.0
        assert geocd(pred, gt, GeoCdConfig(k=1)).diagnostics["sentinel_fraction"] == 0.0
    assert rounded  # the draw does reach the rounding case


def test_elementwise_monotonicity_and_sentinel_ceiling(rng):
    for _ in range(5):
        pred, gt = random_normalized_pair(rng, 12, 10)
        z = merge(pred, gt)
        adj = knn_adjacency(z, 3)
        geo = propagate(z, adj, n_hops=4)
        for h in range(1, geo.hops_used):
            assert (geo.dense(h) <= geo.dense(h - 1)).all()
        assert (geo.dense() <= SENTINEL).all()


def test_pred_decomposition_invariant(rng):
    # every recorded intermediate splits the walk against the previous hop
    pred, gt = random_normalized_pair(rng, 12, 12)
    z = merge(pred, gt)
    adj = knn_adjacency(z, 3)
    geo = propagate(z, adj, n_hops=4)
    for h in range(1, geo.hops_used):
        hop = geo.hops[h]
        routed = hop.via != NO_VIA
        if not routed.any():
            continue
        ii, jj = np.divmod(hop.key[routed], z.size)
        kk = hop.via[routed]
        recomposed = geo.dense(h - 1)[ii, kk] + adj.dense()[kk, jj]
        assert np.abs(geo.dense(h)[ii, jj] - recomposed).max() < 1e-12


def test_path_consistency(rng):
    pred, gt = random_normalized_pair(rng, 10, 12)
    z = merge(pred, gt)
    adj = knn_adjacency(z, 3)
    for hops, mask in ((3, MaskConfig()), (4, MaskConfig(enabled=True))):
        geo = propagate(z, adj, n_hops=hops, mask=mask)
        final = geo.dense()
        checked = 0
        for i in range(z.size):
            for j in range(z.size):
                if i == j:
                    continue
                path = reconstruct_path(geo, i, j)
                if path is None:
                    assert final[i, j] == SENTINEL
                    continue
                length = sum(
                    np.linalg.norm(z.points[a] - z.points[b]) for a, b in zip(path, path[1:])
                )
                assert abs(length - final[i, j]) < 1e-9
                checked += 1
        assert checked > 0


def test_mask_threshold_zero_rejected(rng):
    pred, gt = random_normalized_pair(rng, 5, 5)
    z = merge(pred, gt)
    adj = knn_adjacency(z, 2)
    for threshold in (0.0, float("nan")):
        with pytest.raises(ValueError):
            propagate(z, adj, n_hops=2, mask=MaskConfig(enabled=True, threshold=threshold))


def test_mask_resolved_zero_threshold_is_used():
    # coordinates near 1e-170 underflow every squared length to 0, so the
    # default threshold resolves to 0.0; only rows at cross distance 0 freeze
    rng = np.random.default_rng(3)
    z = merge(PointCloud(1e-170 * rng.random((12, 3))), PointCloud(1e-170 * rng.random((9, 3))))
    adj = knn_adjacency(z, 3)
    geo = propagate(z, adj, n_hops=2, mask=MaskConfig(enabled=True))
    assert geo.mask_threshold == 0.0
    rows, _, d = propagate(z, adj, n_hops=1).cross()
    frozen = row_min(rows, d, cross_width(z)) == 0.0
    assert 0 < frozen.sum() < z.size
    assert geo.masked_per_hop == [pytest.approx(frozen.mean())]


def test_mask_tiny_threshold_keeps_everyone_active(rng):
    pred, gt = random_normalized_pair(rng, 8, 8)
    z = merge(pred, gt)
    # distinct points sit farther apart than this
    tiny = MaskConfig(enabled=True, threshold=1e-15)
    geo = propagate(z, knn_adjacency(z, 3), n_hops=2, mask=tiny)
    assert geo.masked_per_hop == [0.0]


def test_mask_threshold_at_sentinel_freezes_all(rng):
    pred, gt = random_normalized_pair(rng, 10, 10)
    z = merge(pred, gt)
    adj = knn_adjacency(z, 3)
    frozen = propagate(z, adj, n_hops=3, mask=MaskConfig(enabled=True, threshold=1.0))
    single = propagate(z, adj, n_hops=1)
    assert np.array_equal(frozen.d_xy, single.d_xy)
    assert np.array_equal(frozen.d_yx, single.d_yx)
    assert frozen.masked_per_hop == [1.0, 1.0]


def test_masked_vs_unmasked_soundness():
    # near-coincident twins: masking fires a lot, yet every entry that the
    # unmasked run resolves below the threshold was already that small at
    # the hop where its row froze
    rng = np.random.default_rng(5)
    threshold = 0.05
    for trial in range(5):
        gt_raw = sample_shape(ShapeSpec("sphere", 16, seed=trial))
        pred_raw = noisy_copy(gt_raw, 0.01, seed=trial + 100)
        pred, gt, _ = normalize_pair(pred_raw, gt_raw)
        z = merge(pred, gt)
        adj = knn_adjacency(z, 5)
        masked = propagate(z, adj, n_hops=3, mask=MaskConfig(enabled=True, threshold=threshold))
        plain = propagate(z, adj, n_hops=3)
        m = np.vstack([masked.d_xy, masked.d_yx.T])
        p = np.vstack([plain.d_xy, plain.d_yx.T])
        assert (m >= p - 1e-15).all()
        small = p <= threshold
        assert small.any()
        assert np.abs(m[small] - p[small]).max() < 1e-9


def test_mask_freezes_row_improvements():
    z, adj = l_shape()
    # row 0's cross minimum is 0.4 <= 0.45, so it freezes and loses the 2-hop walk
    geo = propagate(z, adj, n_hops=2, mask=MaskConfig(enabled=True, threshold=0.45))
    assert geo.d_xy[0, 1] == 1.0
    assert geo.masked_per_hop[0] > 0
    # a tighter threshold leaves row 0 active and the walk is found
    geo2 = propagate(z, adj, n_hops=2, mask=MaskConfig(enabled=True, threshold=0.3))
    assert geo2.d_xy[0, 1] == pytest.approx(0.7, abs=1e-12)


def test_masked_rows_still_serve_as_intermediates():
    # k=1 edges: z1->g1 (0.4), p2<->g1 (0.05), g2->g1 (0.3); g1 and p2 freeze
    # at threshold 0.1 while z1 stays active and routes through frozen g1
    pred = PointCloud(np.array([[0.0, 0.0, 0.0], [0.45, 0.0, 0.0]]))
    gt = PointCloud(np.array([[0.4, 0.0, 0.0], [0.4, 0.3, 0.0]]))
    z = merge(pred, gt)
    adj = knn_adjacency(z, k=1)
    geo = propagate(z, adj, n_hops=2, mask=MaskConfig(enabled=True, threshold=0.1))
    assert geo.masked_per_hop[0] == 0.5
    final, first = geo.dense(), geo.dense(0)
    # frozen rows copied verbatim
    assert np.array_equal(final[1], first[1])
    assert np.array_equal(final[2], first[2])
    # active z1 improved its walk to p2 through the frozen intermediate g1
    assert final[0, 1] == pytest.approx(0.45, abs=1e-12)
    assert reconstruct_path(geo, 0, 1) == [0, 2, 1]


def assert_unroll_contract(geo):
    """Every cross walk's unrolled edges chain start -> end and sum to its distance."""
    starts, ends, dist = geo.cross()
    walk, a, b = unroll(geo, starts, ends)
    for arr in (walk, a, b):
        assert arr.dtype.kind == "i" and arr.shape == walk.shape
    # the first group holds every walk's last edge, in walk order
    assert np.array_equal(walk[: starts.size], np.arange(starts.size))
    assert np.array_equal(b[: starts.size], ends)
    adj, n = geo.adj, geo.merged.size
    edge_key = adj.src * n + adj.dst
    for t in range(starts.size):
        edges = np.flatnonzero(walk == t)[::-1]  # first edge first
        assert 1 <= edges.size <= geo.hops_used
        nodes = np.r_[a[edges], b[edges[-1]]]
        assert nodes[0] == starts[t] and nodes[-1] == ends[t]
        assert np.array_equal(a[edges[1:]], b[edges[:-1]])
        pos = np.searchsorted(edge_key, a[edges] * n + b[edges])
        assert np.array_equal(edge_key[pos], a[edges] * n + b[edges])
        total = 0.0
        for length in adj.length[pos]:  # the hops add edge lengths left to right
            total += length
        assert total == dist[t]
    return walk.size


def test_unroll_edges_chain_and_sum_to_the_distance(rng):
    pred, gt = random_normalized_pair(rng, 10, 12)
    z = merge(pred, gt)
    edges = 0
    for hops, k, symmetrize, mask in (
        (1, 3, False, MaskConfig()),
        (3, 2, False, MaskConfig()),
        (4, 3, False, MaskConfig(enabled=True)),
        (3, 2, True, MaskConfig()),
        (4, 1, True, MaskConfig(enabled=True, threshold=0.2)),
    ):
        geo = propagate(z, knn_adjacency(z, k, symmetrize=symmetrize), n_hops=hops, mask=mask)
        edges += assert_unroll_contract(geo)
    assert edges > 0


def test_unroll_without_cross_walks_is_empty():
    # k=1 pairs each point with its twin in the same cloud: no walk crosses
    pred = PointCloud(np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]]))
    gt = PointCloud(np.array([[0.5, 0.0, 0.0], [0.51, 0.0, 0.0]]))
    z = merge(pred, gt)
    geo = propagate(z, knn_adjacency(z, 1), n_hops=3)
    starts, ends, _ = geo.cross()
    assert starts.size == 0
    for arr in unroll(geo, starts, ends):
        assert arr.dtype.kind == "i" and arr.size == 0
    rep = geocd(pred, gt, GeoCdConfig(k=1, n_hops=3), with_grad=True, with_gt_grad=True)
    assert rep.diagnostics["sentinel_fraction"] == 1.0
    assert np.array_equal(rep.grad_pred, np.zeros((2, 3)))
    assert np.array_equal(rep.grad_gt, np.zeros((2, 3)))
    assert rep.diagnostics["degenerate_edges"] == 0


def full_sort_extend(prev, active, ptr, dst, length):
    """Reference: extend every kept walk of every active row, one stable argsort."""
    n = active.size
    i, k = np.divmod(prev.key, n)
    live = np.flatnonzero(active[i])
    start = ptr[k[live]]
    deg = ptr[k[live] + 1] - start
    walk = np.repeat(live, deg)
    edge = np.repeat(start - (np.cumsum(deg) - deg), deg) + np.arange(walk.size)
    ci, cj, cv = i[walk], dst[edge], prev.dist[walk] + length[edge]
    ok = (cj != ci) & (cv < SENTINEL)

    key = np.concatenate([prev.key, ci[ok] * n + cj[ok]])
    dist = np.concatenate([prev.dist, cv[ok]])
    via = np.concatenate([prev.via, k[walk[ok]]])
    order = np.argsort(key, kind="stable")
    key, dist, via = key[order], dist[order], via[order]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    best = np.repeat(np.minimum.reduceat(dist, start), np.diff(np.r_[start, key.size]))
    hit = np.flatnonzero(dist == best)
    group = np.searchsorted(start, hit, side="right")
    keep = hit[np.r_[True, group[1:] != group[:-1]]]
    return Hop(key[keep], dist[keep], via[keep])


def full_sort_records(z, adj, n_hops, mask):
    """Reference hop records and masked shares, from ``full_sort_extend``."""
    n = z.size
    ptr = np.searchsorted(adj.src, np.arange(n + 1))
    hops = [Hop(adj.src * n + adj.dst, adj.length, np.full(adj.src.size, NO_VIA))]
    active, masked = np.ones(n, dtype=bool), []
    threshold = mask.threshold if mask.threshold is not None else 2.0 * adj.length.mean()
    for _ in range(n_hops - 1):
        if mask.enabled:
            src, dst = np.divmod(hops[-1].key, n)
            c = (src < z.n_pred) != (dst < z.n_pred)
            mins = row_min(src[c], hops[-1].dist[c], cross_width(z))
            active &= mins > threshold
            masked.append(float(1.0 - active.mean()))
        hops.append(full_sort_extend(hops[-1], active, ptr, adj.dst, adj.length))
    return hops, masked


def assert_same_records(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("key", "dist", "via"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def deep_pair(kind, rng):
    n, m = (int(v) for v in rng.integers(8, 40, 2))
    if kind == "lattice":  # multiples of 1/8: exact ties
        return (PointCloud(rng.integers(0, 5, (s, 3)) / 8.0) for s in (n, m))
    p, q = rng.random((n, 3)), rng.random((m, 3))
    if kind == "duplicate":  # coincident points and zero-length edges
        p[rng.integers(0, n, n // 3)] = p[0]
        q[: m // 2] = p[rng.integers(0, n, m // 2)]
    pred, gt, _ = normalize_pair(PointCloud(p), PointCloud(q))
    return pred, gt


def test_frontier_extension_matches_the_full_sort_reference():
    rng = np.random.default_rng(41)
    improved = 0
    for trial in range(48):
        pred, gt = deep_pair(("random", "lattice", "duplicate")[trial % 3], rng)
        z = merge(pred, gt)
        adj = knn_adjacency(z, int(rng.integers(1, 7)), symmetrize=bool(trial // 3 % 2))
        mask = MaskConfig(enabled=bool(trial // 6 % 2))
        hops = 3 + trial % 3
        geo = propagate(z, adj, hops, mask)
        want, masked = full_sort_records(z, adj, hops, mask)
        assert_same_records(geo.hops, want)
        assert geo.masked_per_hop == masked
        improved += sum(geo.improved_per_hop[1:])
    assert improved > 0  # the deep hops do extend fresh entries


@pytest.mark.parametrize("span", [1, 7, 64])
def test_row_ranges_give_the_same_records(span, monkeypatch):
    rng = np.random.default_rng(span)
    cases = []
    for trial in range(12):
        pred, gt = deep_pair(("random", "lattice", "duplicate")[trial % 3], rng)
        z = merge(pred, gt)
        adj = knn_adjacency(z, int(rng.integers(1, 7)), symmetrize=bool(trial % 2))
        mask = MaskConfig(enabled=bool(trial // 2 % 2))
        cases.append((z, adj, 3 + trial % 3, mask, propagate(z, adj, 3 + trial % 3, mask)))
    monkeypatch.setattr(geodesic, "SPAN", span)
    for z, adj, hops, mask, want in cases:
        got = propagate(z, adj, hops, mask)
        assert_same_records(got.hops, want.hops)
        assert got.improved_per_hop == want.improved_per_hop


def test_per_hop_counts(rng):
    pred, gt = random_normalized_pair(rng, 14, 12)
    z = merge(pred, gt)
    for symmetrize, mask in ((False, MaskConfig()), (True, MaskConfig(enabled=True))):
        geo = propagate(z, knn_adjacency(z, 3, symmetrize=symmetrize), 5, mask)
        assert geo.hop_entries == [hop.key.size for hop in geo.hops]
        assert len(geo.improved_per_hop) == geo.hops_used - 1
        for h, count in enumerate(geo.improved_per_hop):
            # a new entry holds less than the sentinel, so it counts as shorter too
            assert count == int((geo.dense(h + 1) < geo.dense(h)).sum())
        assert geo.improved_per_hop[0] > 0


def test_merged_size_limit_rejected():
    n = geodesic.MAX_POINTS + 1
    # a broadcast view and an edge-free graph: nothing of size n is allocated
    z = MergedSet(np.broadcast_to(np.zeros(3), (n, 3)), n // 2, n - n // 2)
    none = np.zeros(0, dtype=np.intp)
    adj = Adjacency(none, none, np.zeros(0), n)
    with pytest.raises(ValueError, match=f"at most {geodesic.MAX_POINTS} merged points, got {n}"):
        propagate(z, adj, n_hops=2)
