import tracemalloc

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
from geocd import geodesic, loss
from geocd.geodesic import Hop, MaskConfig, cross_width, row_min, unroll
from geocd.graph import SENTINEL, MergedSet
from geocd.oracle import d_xy, d_yx, dense
from geocd.fit import ShapeSpec, noisy_copy, sample_shape
from geocd import normalize_pair
from conftest import random_normalized_pair
from golden.generate import intermediates


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


def test_the_graph_is_hop_one(rng):
    pred, gt = random_normalized_pair(rng, 12, 10)
    z = merge(pred, gt)
    for symmetrize in (False, True):
        adj = knn_adjacency(z, 3, symmetrize=symmetrize)
        assert (np.diff(adj.key) > 0).all()
        assert adj.edge.dtype == np.int64 and np.array_equal(adj.edge, np.arange(adj.key.size))
        assert (intermediates(adj, adj) == -1).all()
        assert adj.size == z.size
        for hops in (1, 3):
            for mask in (MaskConfig(), MaskConfig(enabled=True)):
                assert propagate(z, adj, hops, mask).hops[0] is adj


def test_l_shape_two_hop_improvement():
    z, adj = l_shape()
    geo = propagate(z, adj, n_hops=2)
    hop1, hop2 = dense(geo.hops[0]), dense(geo.hops[1])
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
    assert np.allclose(d_xy(geo), [[0.4, 0.7]], atol=1e-12)
    # nothing links back to z1, so the reverse block stays at the sentinel
    assert np.array_equal(d_yx(geo), [[1.0], [1.0]])
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
    assert np.array_equal(d_xy(geo), dense(adj)[:9, 9:])
    assert np.array_equal(d_yx(geo), dense(adj)[9:, :9])


def test_straight_line_complete_graph_fixed_point():
    # collinear points with every edge present: one hop cannot shorten anything
    pts = np.array([[0.1 * i, 0.0, 0.0] for i in range(6)])
    z = merge(PointCloud(pts[:3]), PointCloud(pts[3:]))
    adj = knn_adjacency(z, k=5)
    geo = propagate(z, adj, n_hops=2)
    assert np.allclose(dense(geo.hops[1]), dense(geo.hops[0]), atol=1e-12)
    assert (intermediates(geo.hops[1], adj) == -1).all()


def test_isolated_pair_stays_sentinel():
    # two tight pairs far apart; k=1 links only within each pair
    pred = PointCloud(np.array([[0.0, 0.0, 0.0], [0.9, 0.9, 0.9]]))
    gt = PointCloud(np.array([[0.01, 0.0, 0.0], [0.91, 0.9, 0.9]]))
    z = merge(pred, gt)
    adj = knn_adjacency(z, k=1)
    geo = propagate(z, adj, n_hops=4)
    assert dense(geo.hops[-1])[0, 3] == 1.0  # no walk beats the sentinel
    assert reconstruct_path(geo, 0, 3) is None


def test_minplus_matches_naive_dense(rng):
    for _ in range(5):
        pred, gt = random_normalized_pair(rng, 8, 8)
        z = merge(pred, gt)
        adj = knn_adjacency(z, 3)
        geo = propagate(z, adj, n_hops=4)
        for h in range(1, 4):
            ref = naive_minplus(dense(geo.hops[h - 1]), dense(adj))
            assert np.abs(dense(geo.hops[h]) - ref).max() < 1e-15


def test_exact_ties_keep_previous_then_lowest_intermediate():
    # lengths are exact binary fractions, so the tied sums compare equal
    square = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.0, 0.25, 0.0], [0.25, 0.25, 0.0]])
    z = merge(PointCloud(square[:1]), PointCloud(square[1:]))
    geo = propagate(z, knn_adjacency(z, k=2), n_hops=2)
    assert dense(geo.hops[-1])[0, 3] == 0.5  # via 1 and via 2 tie
    assert reconstruct_path(geo, 0, 3) == [0, 1, 3]
    line = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.5, 0.0, 0.0]])
    z = merge(PointCloud(line[:1]), PointCloud(line[1:]))
    geo = propagate(z, knn_adjacency(z, k=2), n_hops=2)
    assert dense(geo.hops[-1])[0, 2] == 0.5  # the direct edge ties the walk via 1
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
            assert adj.dist.tolist() == [x, x]
            with pytest.raises(NormalizationError, match="exceeds the sentinel 1; normalize"):
                propagate(z, adj, n_hops=2)
        else:
            assert adj.dist.tolist() == [1.0, 1.0]  # stored as the sentinel
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
            assert (dense(geo.hops[h]) <= dense(geo.hops[h - 1])).all()
        assert (dense(geo.hops[-1]) <= SENTINEL).all()


def test_pred_decomposition_invariant(rng):
    # every recorded intermediate splits the walk against the previous hop
    pred, gt = random_normalized_pair(rng, 12, 12)
    z = merge(pred, gt)
    adj = knn_adjacency(z, 3)
    geo = propagate(z, adj, n_hops=4)
    for h in range(1, geo.hops_used):
        hop = geo.hops[h]
        via = intermediates(hop, adj)
        routed = via != -1
        if not routed.any():
            continue
        ii, jj = np.divmod(hop.key[routed], z.size)
        kk = via[routed]
        recomposed = dense(geo.hops[h - 1])[ii, kk] + dense(adj)[kk, jj]
        assert np.abs(dense(geo.hops[h])[ii, jj] - recomposed).max() < 1e-12


def test_path_consistency(rng):
    pred, gt = random_normalized_pair(rng, 10, 12)
    z = merge(pred, gt)
    adj = knn_adjacency(z, 3)
    for hops, mask in ((3, MaskConfig()), (4, MaskConfig(enabled=True))):
        geo = propagate(z, adj, n_hops=hops, mask=mask)
        final = dense(geo.hops[-1])
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


def test_reconstruct_path_rejects_indices_outside_the_merged_set():
    rng = np.random.default_rng(0)
    pred, gt, _ = normalize_pair(PointCloud(rng.random((6, 3))), PointCloud(rng.random((5, 3))))
    z = merge(pred, gt)
    geo = propagate(z, knn_adjacency(z, 3), n_hops=2)
    n = z.size
    # key 0 * n + n + 2 is the key of the pair (1, 2), which holds a walk
    assert geo.hops[-1].find(n + 2)[1]
    for i, j in ((0, n + 2), (0, n), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match=rf"\({i}, {j}\) must lie in \[0, {n}\)"):
            reconstruct_path(geo, i, j)
    assert reconstruct_path(geo, n - 1, n - 1) == [n - 1]


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
    _, rows, d = propagate(z, adj, n_hops=1).cross()
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
    assert np.array_equal(d_xy(frozen), d_xy(single))
    assert np.array_equal(d_yx(frozen), d_yx(single))
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
        m = np.vstack([d_xy(masked), d_yx(masked).T])
        p = np.vstack([d_xy(plain), d_yx(plain).T])
        assert (m >= p - 1e-15).all()
        small = p <= threshold
        assert small.any()
        assert np.abs(m[small] - p[small]).max() < 1e-9


def test_mask_freezes_row_improvements():
    z, adj = l_shape()
    # row 0's cross minimum is 0.4 <= 0.45, so it freezes and loses the 2-hop walk
    geo = propagate(z, adj, n_hops=2, mask=MaskConfig(enabled=True, threshold=0.45))
    assert d_xy(geo)[0, 1] == 1.0
    assert geo.masked_per_hop[0] > 0
    # a tighter threshold leaves row 0 active and the walk is found
    geo2 = propagate(z, adj, n_hops=2, mask=MaskConfig(enabled=True, threshold=0.3))
    assert d_xy(geo2)[0, 1] == pytest.approx(0.7, abs=1e-12)


def l_shape_with_twin():
    """The L shape plus a predicted twin p2 of g1. k=1 edges: z1->g1 (0.4),
    p2<->g1 (0.05), g2->g1 (0.3); at threshold 0.1 g1 and p2 freeze while
    z1 stays active and routes through frozen g1."""
    pred = PointCloud(np.array([[0.0, 0.0, 0.0], [0.45, 0.0, 0.0]]))
    gt = PointCloud(np.array([[0.4, 0.0, 0.0], [0.4, 0.3, 0.0]]))
    z = merge(pred, gt)
    return z, knn_adjacency(z, k=1)


def test_masked_rows_still_serve_as_intermediates():
    z, adj = l_shape_with_twin()
    geo = propagate(z, adj, n_hops=2, mask=MaskConfig(enabled=True, threshold=0.1))
    assert geo.masked_per_hop[0] == 0.5
    final, first = dense(geo.hops[-1]), dense(geo.hops[0])
    # frozen rows copied verbatim
    assert np.array_equal(final[1], first[1])
    assert np.array_equal(final[2], first[2])
    # active z1 improved its walk to p2 through the frozen intermediate g1
    assert final[0, 1] == pytest.approx(0.45, abs=1e-12)
    assert reconstruct_path(geo, 0, 1) == [0, 2, 1]


def assert_unroll_contract(geo):
    """Every cross walk's unrolled edges chain start -> end and sum to its distance."""
    pos, src, dist = geo.cross()
    starts, ends = np.divmod(geo.hops[-1].key[pos], geo.merged.size)
    assert np.array_equal(starts, src)
    walk, edge = unroll(geo, pos)
    for arr in (walk, edge):
        assert arr.dtype.kind == "i" and arr.shape == walk.shape
    adj, n = geo.hops[0], geo.merged.size
    assert ((0 <= edge) & (edge < adj.key.size)).all()
    a, b = np.divmod(adj.key[edge], n)
    # the first group holds every walk's last edge, in walk order
    assert np.array_equal(walk[: starts.size], np.arange(starts.size))
    assert np.array_equal(b[: starts.size], ends)
    for t in range(starts.size):
        edges = np.flatnonzero(walk == t)[::-1]  # first edge first
        assert 1 <= edges.size <= geo.hops_used
        nodes = np.r_[a[edges], b[edges[-1]]]
        assert nodes[0] == starts[t] and nodes[-1] == ends[t]
        assert np.array_equal(a[edges[1:]], b[edges[:-1]])
        total = 0.0
        for length in adj.dist[edge[edges]]:  # the hops add edge lengths left to right
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
    pos, starts, _ = geo.cross()
    assert pos.size == starts.size == 0
    for arr in unroll(geo, pos):
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
    last = np.concatenate([prev.edge, edge[ok]])
    order = np.argsort(key, kind="stable")
    key, dist, last = key[order], dist[order], last[order]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    best = np.repeat(np.minimum.reduceat(dist, start), np.diff(np.r_[start, key.size]))
    hit = np.flatnonzero(dist == best)
    group = np.searchsorted(start, hit, side="right")
    keep = hit[np.r_[True, group[1:] != group[:-1]]]
    return Hop(key[keep], dist[keep], last[keep], n)


def full_sort_records(z, adj, n_hops, mask):
    """Reference hop records and masked shares, from ``full_sort_extend``."""
    n = z.size
    src, dst = np.divmod(adj.key, n)
    ptr = np.searchsorted(src, np.arange(n + 1))
    hops = [adj]
    active, masked = np.ones(n, dtype=bool), []
    threshold = mask.threshold if mask.threshold is not None else 2.0 * adj.dist.mean()
    for _ in range(n_hops - 1):
        if mask.enabled:
            i, j = np.divmod(hops[-1].key, n)
            c = (i < z.n_pred) != (j < z.n_pred)
            mins = row_min(i[c], hops[-1].dist[c], cross_width(z))
            active &= mins > threshold
            masked.append(float(1.0 - active.mean()))
        hops.append(full_sort_extend(hops[-1], active, ptr, dst, adj.dist))
    return hops, masked


def assert_same_records(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("key", "dist", "edge"):
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


def test_every_entry_names_its_last_edge_in_hop_one():
    rng = np.random.default_rng(23)
    routed = 0
    for trial in range(48):
        pred, gt = deep_pair(("random", "lattice", "duplicate")[trial % 3], rng)
        z = merge(pred, gt)
        n = z.size
        adj = knn_adjacency(z, int(rng.integers(1, 7)), symmetrize=bool(trial // 3 % 2))
        geo = propagate(z, adj, 1 + trial % 4, MaskConfig(enabled=bool(trial // 6 % 2)))
        assert np.array_equal(adj.edge, np.arange(adj.key.size))
        for hop in geo.hops:
            assert hop.edge.dtype == np.int64 and hop.edge.shape == hop.key.shape
            assert ((0 <= hop.edge) & (hop.edge < adj.key.size)).all()
            last = adj.key[hop.edge]
            # the last edge ends at the entry's destination
            assert np.array_equal(last % n, hop.key % n)
            # a single-edge entry names its own edge and holds its length
            direct = last // n == hop.key // n
            assert np.array_equal(last[direct], hop.key[direct])
            assert np.array_equal(hop.dist[direct], adj.dist[hop.edge[direct]])
            routed += int((~direct).sum())
    assert routed > 0  # later hops do hold walks of several edges


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


def hemisphere_graph(n, k):
    """Merged set and kNN graph of a hemisphere and its noisy copy, n points each."""
    gt = sample_shape(ShapeSpec("hemisphere", n, seed=1))
    pred, gt, _ = normalize_pair(noisy_copy(gt, 0.02, 2), gt)
    z = merge(pred, gt)
    return z, knn_adjacency(z, k)


def improved_counts(hops):
    """Entries that each hop after the first added or made strictly shorter."""
    out = []
    for prev, hop in zip(hops, hops[1:]):
        pos, found = prev.find(hop.key)
        out.append(int((~found | (hop.dist < prev.dist[pos])).sum()))
    return out


def one_active_row(z, adj):
    """A mask that leaves exactly one row active at the first extension:
    its threshold lies between the two largest row minima."""
    _, rows, d = propagate(z, adj, 1).cross()
    mins = row_min(rows, d, cross_width(z))
    threshold = float(np.unique(mins)[-2:].mean())
    assert (mins > threshold).sum() == 1
    return MaskConfig(enabled=True, threshold=threshold)


@pytest.fixture(scope="module")
def range_cases():
    """Instances of every range layout and frozen share, with their
    ``full_sort_records`` reference and the frozen share they must reach."""
    z, adj = hemisphere_graph(1024, 8)  # many ranges at the default SPAN
    cases = [(z, adj, 3, MaskConfig(), 0.0)]
    cases.append((z, adj, 3, one_active_row(z, adj), 1.0 - 1.0 / z.size))
    # train-step's setting: nearly every row frozen at the first extension
    z, adj = hemisphere_graph(1024, 5)
    cases.append((z, adj, 2, MaskConfig(enabled=True), 0.95))
    cases.append((z, knn_adjacency(z, 5, symmetrize=True), 4, MaskConfig(enabled=True), 0.95))
    cases.append((z, adj, 3, MaskConfig(enabled=True, threshold=SENTINEL), 1.0))  # all frozen
    # frozen rows as the intermediates of an active row's walk
    z, adj = l_shape_with_twin()
    cases.append((z, adj, 2, MaskConfig(enabled=True, threshold=0.1), 0.5))
    return [case + full_sort_records(*case[:4]) for case in cases]


@pytest.mark.parametrize("span", [1, 7, 64, 1 << 20])
def test_row_ranges_give_the_same_records(span, range_cases, monkeypatch):
    rng = np.random.default_rng(span)
    cases = list(range_cases)
    for trial in range(12):
        pred, gt = deep_pair(("random", "lattice", "duplicate")[trial % 3], rng)
        z = merge(pred, gt)
        adj = knn_adjacency(z, int(rng.integers(1, 7)), symmetrize=bool(trial % 2))
        mask = MaskConfig(enabled=bool(trial // 2 % 2))
        case = (z, adj, 3 + trial % 3, mask, 0.0)
        cases.append(case + full_sort_records(*case[:4]))
    # frozen rows are spliced around the ranges: none of their entries reaches them
    masks, extend, extend_rows = [], geodesic._extend, geodesic._extend_rows

    def spy_extend(prev, fresh, active, *rest):
        masks.append(active)
        return extend(prev, fresh, active, *rest)

    def spy_extend_rows(prev, *rest):
        assert masks[-1][prev.key // prev.size].all()
        return extend_rows(prev, *rest)

    monkeypatch.setattr(geodesic, "_extend", spy_extend)
    monkeypatch.setattr(geodesic, "_extend_rows", spy_extend_rows)
    monkeypatch.setattr(geodesic, "SPAN", span)
    for z, adj, hops, mask, frozen, want, masked in cases:
        got = propagate(z, adj, hops, mask)
        assert_same_records(got.hops, want)
        assert got.masked_per_hop == masked
        assert max(masked, default=0.0) >= frozen
        assert got.improved_per_hop == improved_counts(want)


def test_cross_only_last_hop_holds_the_full_records_cross_entries(monkeypatch):
    rng = np.random.default_rng(43)
    for trial in range(48):
        pred, gt = deep_pair(("random", "lattice", "duplicate")[trial % 3], rng)
        z = merge(pred, gt)
        cfg = GeoCdConfig(
            k=int(rng.integers(1, 7)),
            n_hops=1 + trial % 4,
            symmetrize=bool(trial // 3 % 2),
            mask=MaskConfig(enabled=bool(trial // 6 % 2)),
        )
        adj = knn_adjacency(z, cfg.k, cfg.symmetrize)
        full = propagate(z, adj, cfg.n_hops, cfg.mask)
        geo = propagate(z, adj, cfg.n_hops, cfg.mask, cross_only=True)
        pos, src, dist = full.cross()
        got = geo.cross()
        assert not full.cross_only
        if cfg.n_hops == 1:  # hop 1 is the graph, whole
            assert not geo.cross_only
            assert_same_records(geo.hops, full.hops)
            continue
        assert geo.cross_only
        last = full.hops[-1]
        cross = Hop(last.key[pos], last.dist[pos], last.edge[pos], z.size)
        assert_same_records(geo.hops, full.hops[:-1] + [cross])
        assert geo.masked_per_hop == full.masked_per_hop
        # the last hop's counts are of its cross walks
        assert geo.improved_per_hop == (
            full.improved_per_hop[:-1] + improved_counts([full.hops[-2], cross])
        )
        assert np.array_equal(got[0], np.arange(pos.size))
        assert np.array_equal(got[1], src) and np.array_equal(got[2], dist)

        # the loss reads the same walks as from the full record, bit for bit
        rep = geocd(pred, gt, cfg, with_grad=True, with_gt_grad=True)
        with monkeypatch.context() as m:
            m.setattr(loss, "propagate", lambda *args, cross_only: propagate(*args))
            want = geocd(pred, gt, cfg, with_grad=True, with_gt_grad=True)
        assert rep.value == want.value
        assert np.array_equal(rep.grad_pred, want.grad_pred)
        assert np.array_equal(rep.grad_gt, want.grad_gt)
        counts = ("timings", "hop_entries", "improved_per_hop")
        assert {key: v for key, v in rep.diagnostics.items() if key not in counts} == {
            key: v for key, v in want.diagnostics.items() if key not in counts
        }
        assert rep.diagnostics["hop_entries"] == geo.hop_entries
        assert rep.diagnostics["improved_per_hop"] == geo.improved_per_hop


def test_reconstruct_path_refuses_a_pair_of_one_cloud_on_a_cross_only_record(rng):
    pred, gt = random_normalized_pair(rng, 10, 12)
    z = merge(pred, gt)
    adj = knn_adjacency(z, 3)
    geo, full = propagate(z, adj, 3, cross_only=True), propagate(z, adj, 3)
    for i, j in ((0, 1), (12, 21)):
        with pytest.raises(ValueError, match=rf"\({i}, {j}\) is a pair of one cloud"):
            reconstruct_path(geo, i, j)
    assert reconstruct_path(geo, 4, 4) == [4]
    cross = [(i, j) for i in range(22) for j in range(22) if (i < 10) != (j < 10)]
    paths = [reconstruct_path(geo, i, j) for i, j in cross]
    assert paths == [reconstruct_path(full, i, j) for i, j in cross]
    assert any(path and len(path) > 2 for path in paths)


def full_sort_winners(key, dist):
    """Reference: each distinct key and its first entry at its minimum length,
    from one sort by key, then length, then index."""
    order = np.lexsort((np.arange(key.size), dist, key))
    first = order[np.r_[True, key[order][1:] != key[order][:-1]][: key.size]]
    return key[first], first


def exact_tie_groups(word, dist, span):
    """The groups of a ``_pick`` call whose two lowest entries tie on the
    truncated length, which it settles on exact lengths."""
    e = dist.size
    top = dist.view(np.int64) >> ((span - 1).bit_length() + (e - 1).bit_length())
    key = word[:e]
    order = np.lexsort((top, key))
    key, top = key[order], top[order]
    head = np.r_[True, key[1:] != key[:-1]]
    return int((head[:-1] & ~head[1:] & (top[1:] == top[:-1])).sum())


def spy_on_exact_ties(monkeypatch):
    """Per ``_pick`` call, the groups it settles on exact lengths."""
    settled, pick = [], geodesic._pick

    def spy(word, dist, span):
        settled.append(exact_tie_groups(word, dist, span))
        return pick(word, dist, span)

    monkeypatch.setattr(geodesic, "_pick", spy)
    return settled


@pytest.mark.parametrize("key_bits", [1, 8, 30, 52])
def test_pick_matches_the_full_sort_reference(key_bits):
    # at 52 key bits and up to 2**9 entries, two bits of each length remain
    rng = np.random.default_rng(key_bits)
    span, ties = 1 << key_bits, 0
    for trial in range(60):
        e = int(rng.integers(0, 400))
        key = rng.integers(0, min(span, e // 4 + 1), e)
        dist = (
            rng.integers(0, 6, e) / 8.0,  # a lattice: exact ties
            0.5 + rng.integers(0, 4, e) * 2.0**-40,  # near ties only exact lengths split
            rng.random(e),
        )[trial % 3]
        word = np.empty(e + 1, dtype=np.int64)
        word[:e] = key
        ties += exact_tie_groups(word, dist, span)
        got = geodesic._pick(word, dist, span)
        for a, b in zip(got, full_sort_winners(key, dist)):
            assert a.dtype == np.int64 and np.array_equal(a, b)
    assert ties > 0


@pytest.mark.parametrize("span", [7, 64])
def test_ranges_settle_exact_ties_as_one_sort_does(span, monkeypatch):
    # a tie-heavy lattice of 4 values per axis, 0.125 apart
    rng = np.random.default_rng(span)
    cases = []
    for trial in range(6):
        pred, gt = (PointCloud(rng.integers(0, 4, (s, 3)) / 8.0) for s in rng.integers(30, 60, 2))
        z = merge(pred, gt)
        adj = knn_adjacency(z, int(rng.integers(2, 7)), symmetrize=bool(trial % 2))
        mask = MaskConfig(enabled=bool(trial // 2 % 2))
        cases.append((z, adj, 2 + trial % 3, mask))
    settled = spy_on_exact_ties(monkeypatch)
    monkeypatch.setattr(geodesic, "SPAN", span)
    for z, adj, hops, mask in cases:
        want, masked = full_sort_records(z, adj, hops, mask)
        assert_same_records(propagate(z, adj, hops, mask).hops, want)
    assert sum(settled) > 0


def test_few_length_bits_fall_back_on_exact_lengths(monkeypatch):
    # 2**18 points, of which the graph joins eight, all in one range: local
    # keys take 36 bits and leave some 20 for the lengths, too few to split
    # walks that differ by 2**-30
    n = 1 << 18
    z = MergedSet(np.broadcast_to(np.zeros(3), (n, 3)), n // 2, n - n // 2)
    nodes = np.array([0, 5, 1000, 4096, n // 2 + 3, n // 2 + 77, n // 2 + 5000, n - 1])
    rng = np.random.default_rng(7)
    out = [a * n + rng.choice(nodes[nodes != a], 3, replace=False) for a in nodes]
    key = np.sort(np.concatenate(out))
    dist = 0.25 + rng.integers(0, 8, key.size) * 2.0**-30
    adj = Hop(key, dist, np.arange(key.size), n)
    settled = spy_on_exact_ties(monkeypatch)
    for hops, mask in ((3, MaskConfig()), (2, MaskConfig(enabled=True, threshold=0.3))):
        want, masked = full_sort_records(z, adj, hops, mask)
        geo = propagate(z, adj, hops, mask)
        assert_same_records(geo.hops, want)
        assert geo.masked_per_hop == masked
    assert sum(settled) > 0


def test_extension_memory_stays_near_the_records_it_adds():
    z, adj = hemisphere_graph(1024, 8)
    tracemalloc.start()
    try:
        geo = propagate(z, adj, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    added = sum(a.nbytes for hop in geo.hops[1:] for a in (hop.key, hop.dist, hop.edge))
    # a range's transient fields are bounded by SPAN, not by all candidates
    assert peak < 2.75 * added


def test_per_hop_counts(rng):
    pred, gt = random_normalized_pair(rng, 14, 12)
    z = merge(pred, gt)
    for symmetrize, mask in ((False, MaskConfig()), (True, MaskConfig(enabled=True))):
        geo = propagate(z, knn_adjacency(z, 3, symmetrize=symmetrize), 5, mask)
        assert geo.hop_entries == [hop.key.size for hop in geo.hops]
        assert len(geo.improved_per_hop) == geo.hops_used - 1
        assert len(geo.hop_seconds) == geo.hops_used - 1
        assert all(s > 0.0 for s in geo.hop_seconds)
        for h, count in enumerate(geo.improved_per_hop):
            # a new entry holds less than the sentinel, so it counts as shorter too
            assert count == int((dense(geo.hops[h + 1]) < dense(geo.hops[h])).sum())
        assert geo.improved_per_hop[0] > 0


def test_merged_size_limit_rejected():
    n = geodesic.MAX_POINTS + 1
    # a broadcast view and an edge-free graph: nothing of size n is allocated
    z = MergedSet(np.broadcast_to(np.zeros(3), (n, 3)), n // 2, n - n // 2)
    none = np.zeros(0, dtype=np.int64)
    adj = Hop(none, np.zeros(0), none, n)
    with pytest.raises(ValueError, match=f"at most {geodesic.MAX_POINTS} merged points, got {n}"):
        propagate(z, adj, n_hops=2)
