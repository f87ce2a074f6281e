import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geocd import DimensionMismatchError, KTooLargeError, PointCloud, ShapeSpec
from geocd import knn_adjacency, merge
from geocd import noisy_copy, normalize_pair, sample_shape
from geocd import distances, graph
from geocd.distances import list_size, nearest
from geocd.oracle import dense, stable_sort_knn_mask
from conftest import random_cloud, record_nearest, record_search


def cloud(*pts):
    return PointCloud(np.array(pts, dtype=np.float64))


def test_merge_order_and_origin():
    z = merge(cloud([0, 0, 0], [1, 0, 0]), cloud([0, 1, 0], [1, 1, 0], [2, 2, 2]))
    assert z.size == 5
    assert (z.n_pred, z.n_gt) == (2, 3)
    assert z.is_pred().tolist() == [True, True, False, False, False]
    assert np.array_equal(z.points[:2], [[0, 0, 0], [1, 0, 0]])


def test_merge_identical_clouds_allowed():
    c = cloud([0, 0, 0], [0.5, 0.5, 0.5])
    z = merge(c, c)
    assert z.size == 4
    assert np.array_equal(z.points[:2], z.points[2:])


def test_collinear_k1_fixture():
    # pairwise distances by hand: d01=0.25, d02=0.6, d12=0.35
    z = merge(cloud([0, 0, 0], [0.25, 0, 0]), cloud([0.6, 0, 0]))
    adj = knn_adjacency(z, k=1)
    expected = np.array(
        [
            [0.0, 0.25, 1.0],
            [0.25, 0.0, 1.0],  # row 1's single neighbour is index 0 (0.25 < 0.35)
            [1.0, 0.35, 0.0],
        ]
    )
    assert np.allclose(dense(adj), expected, atol=1e-12)
    # directed: 1->2 is sentinel while 2->1 is a real edge
    assert dense(adj)[1, 2] != dense(adj)[2, 1]
    assert np.c_[np.divmod(adj.key, adj.size)].tolist() == [[0, 1], [1, 0], [2, 1]]


def test_complete_graph_equals_distance_matrix(rng):
    pred, gt = random_cloud(rng, 6), random_cloud(rng, 5)
    z = merge(pred, gt)
    adj = knn_adjacency(z, k=z.size - 1)
    diffs = z.points[:, None, :] - z.points[None, :, :]
    full = np.sqrt((diffs**2).sum(-1))
    assert np.allclose(dense(adj), full, atol=1e-12)
    assert adj.key.size == z.size * (z.size - 1)


def test_k_too_large(rng):
    z = merge(random_cloud(rng, 3), random_cloud(rng, 3))
    with pytest.raises(KTooLargeError):
        knn_adjacency(z, k=6)
    knn_adjacency(z, k=5)  # boundary value is fine


def test_k_must_be_positive(rng):
    z = merge(random_cloud(rng, 3), random_cloud(rng, 3))
    with pytest.raises(ValueError):
        knn_adjacency(z, k=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [30, 200])  # one dense block, and several
def test_graph_rejects_coordinates_that_are_not_finite(bad, n):
    # a hand-built set skips PointCloud's check: every row needs k edges,
    # and no point may be its own neighbour
    pts = np.random.default_rng(5).random((n, 3))
    pts[7, 1] = bad
    z = graph.MergedSet(pts, n // 2, n - n // 2)
    with pytest.raises(KTooLargeError):  # the k checks come first
        knn_adjacency(z, n)
    track = graph.GraphTracker()
    for build in (knn_adjacency, track):
        with pytest.raises(ValueError, match="^point coordinates must be finite$"):
            build(z, 5)
    assert track.rows_asked == track.rows_searched == 0


def test_row_sparsity_and_diagonal(rng):
    z = merge(random_cloud(rng, 14), random_cloud(rng, 9))
    for k in (1, 3, 7):
        adj = knn_adjacency(z, k)
        src, dst = np.divmod(adj.key, adj.size)
        off_diag = np.bincount(src, minlength=z.size)
        assert (off_diag == k).all()
        assert (src != dst).all()
        assert (dense(adj).diagonal() == 0).all()


def test_monotone_in_k(rng):
    z = merge(random_cloud(rng, 12), random_cloud(rng, 12))
    prev = knn_adjacency(z, 2).key
    for k in (3, 4, 6):
        cur = knn_adjacency(z, k).key
        assert np.isin(prev, cur).all()  # edge set grows with k
        prev = cur


def test_edges_match_direct_recomputation(rng):
    z = merge(random_cloud(rng, 10), random_cloud(rng, 11))
    adj = knn_adjacency(z, 4)
    for i, j, length in zip(*np.divmod(adj.key, adj.size), adj.dist):
        direct = float(np.linalg.norm(z.points[i] - z.points[j]))
        assert length == pytest.approx(direct, rel=1e-12)


def test_tie_break_prefers_lower_index():
    # indices 1 and 2 are both at distance 0.5 from index 0
    z = merge(cloud([0, 0, 0]), cloud([0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.9]))
    adj = knn_adjacency(z, k=1)
    src, dst = np.divmod(adj.key, adj.size)
    assert dst[src == 0].tolist() == [1]


def test_symmetrize_flag(rng):
    z = merge(random_cloud(rng, 8), random_cloud(rng, 8))
    adj = knn_adjacency(z, 2, symmetrize=True)
    src, dst = np.divmod(adj.key, z.size)
    assert np.array_equal(np.sort(dst * z.size + src), adj.key)
    assert np.allclose(dense(adj), dense(adj).T)


@pytest.mark.parametrize("n_pred,n_gt", [(20, 23), (30, 35), (70, 75)])  # merged 43, 65, 145
def test_boundary_ties_keep_lowest_indices(n_pred, n_gt):
    # a coarse lattice with repeated points: most rows have more entries at
    # their k-th distance than free slots
    pts = np.random.default_rng(n_pred).integers(0, 4, (n_pred + n_gt, 3)) * 0.25
    z = merge(PointCloud(pts[:n_pred]), PointCloud(pts[n_pred:]))
    for k in range(1, 9):
        for symmetrize in (False, True):
            ref, d = stable_sort_knn_mask(z.points, k, symmetrize)
            kth = np.sort(d, axis=1)[:, k - 1, None]
            assert ((d <= kth).sum(axis=1) > k).any()  # the fixture does tie
            adj = knn_adjacency(z, k, symmetrize=symmetrize)
            assert np.array_equal(np.c_[np.divmod(adj.key, z.size)], np.argwhere(ref))
            expected = np.where(ref, d, 1.0)
            np.fill_diagonal(expected, 0.0)
            assert np.array_equal(dense(adj), expected)


@pytest.mark.parametrize("n_pred,n_gt", [(20, 23), (30, 35), (70, 75)])  # merged 43, 65, 145
def test_edge_list_invariants(n_pred, n_gt):
    rng = np.random.default_rng(n_gt)
    lattice = rng.integers(0, 4, (n_pred + n_gt, 3)) * 0.25
    for pts in (rng.random((n_pred + n_gt, 3)), lattice):
        z = merge(PointCloud(pts[:n_pred]), PointCloud(pts[n_pred:]))
        for k in (1, 3, 8):
            adj = knn_adjacency(z, k)
            src, dst = np.divmod(adj.key, z.size)
            assert (np.diff(adj.key) > 0).all()  # sorted by (src, dst), no duplicates
            assert (src != dst).all()
            assert (np.bincount(src, minlength=z.size) == k).all()
            sym = knn_adjacency(z, k, symmetrize=True)
            src, dst = np.divmod(sym.key, z.size)
            assert (np.diff(sym.key) > 0).all()
            assert (src != dst).all()
            assert np.array_equal(np.sort(dst * z.size + src), sym.key)
            assert np.isin(adj.key, sym.key).all()


def grid_case(name):
    rng = np.random.default_rng(7)
    if name == "outlier":
        # a dense patch and a sparse cluster far away: the cluster's k-th
        # lengths exceed the cell edge, so its rows take the dense pass
        return np.vstack([rng.random((500, 3)) * 0.1, 5.0 + rng.random((12, 3))])
    if name == "identical":
        return np.full((40, 3), 0.25)
    if name == "collinear":
        x = rng.integers(0, 50, 460) / 64.0
        return np.c_[x, np.full(460, 0.5), np.full(460, 0.5)]
    if name == "coplanar":
        return np.c_[rng.random((460, 2)), np.full(460, 0.25)]
    if name == "underflow":  # squared lengths near and below the smallest normal
        return rng.integers(0, 9, (460, 3)) / 8.0 * 1e-162
    if name == "tiny":  # 1-point clouds
        return rng.random((2, 3))
    if name == "block":  # one dense block
        return rng.random((distances.BLOCK, 3))
    if name == "volume":  # k-th lengths all over, some just below the reach
        return rng.random((700, 3))
    if name == "sparse":
        # a fine grid and a twice coarser one side by side on a plane: the
        # coarse grid's k-th lengths lie beyond the 3x3x3 block's reach but
        # within the 5x5x5 block's, so only the second pass certifies them
        fine = np.stack(np.meshgrid(np.arange(24), np.arange(24)), -1).reshape(-1, 2)
        coarse = 2 * np.stack(np.meshgrid(np.arange(4), np.arange(8)), -1).reshape(-1, 2) + [25, 0]
        p = np.vstack([fine, coarse]) + 0.1 * rng.random((608, 2))
        return np.c_[p / 40, np.full(608, 0.25)][rng.permutation(608)]
    return rng.integers(0, 12, (700, 3)) / 16.0  # chunks: lattice ties over two grid chunks


@pytest.mark.parametrize(
    "name", "outlier identical collinear coplanar underflow tiny block volume sparse chunks".split()
)
def test_grid_matches_dense_reference(name, monkeypatch):
    pts = grid_case(name)
    n = len(pts)
    z = merge(PointCloud(pts[: n // 2]), PointCloud(pts[n // 2 :]))
    dense_rows, grid_rows = [], []  # rows of every dense call and of every grid chunk
    real, packed = distances._dense, distances._packed
    monkeypatch.setattr(
        distances, "_dense", lambda zt, p, *a: dense_rows.append(len(p)) or real(zt, p, *a)
    )

    def counted_packed(d, k, out=None):
        if d.dtype == np.float32:  # a grid chunk's screen
            grid_rows.append(len(d))
        return packed(d, k, out)

    monkeypatch.setattr(distances, "_packed", counted_packed)
    if n <= distances.WHOLE:  # the whole set is one dense pass: no grid to build

        def no_grid(*_):
            raise AssertionError("grid built for a set of at most WHOLE points")

        monkeypatch.setattr(distances, "_cell_edge", no_grid)
        monkeypatch.setattr(distances, "_grid", no_grid)
    builds = []  # k, and the rows of the build's dense calls and grid chunks
    for k in sorted({1, 3, 8, n - 1} & set(range(1, n))):  # n - 1: n < k + 2
        for symmetrize in (False, True):
            ref, d = stable_sort_knn_mask(z.points, k, symmetrize)
            dense_rows.clear()
            grid_rows.clear()
            adj = knn_adjacency(z, k, symmetrize=symmetrize)
            builds.append((k, dense_rows[:], grid_rows[:]))
            assert np.array_equal(np.c_[np.divmod(adj.key, z.size)], np.argwhere(ref))
            assert np.array_equal(adj.dist, d[ref])
    if name == "outlier":  # every build leaves the far cluster's rows to the dense pass
        assert all(full for _, full, _ in builds)
    if name in ("volume", "chunks"):
        assert sum(len(grid) for _, _, grid in builds) > 2 * len(builds)
    if name == "sparse":
        # every row takes the first pass, so the excess took the second, and
        # no row reached the dense pass
        for k, full, grid in builds:
            if k < n - 1:  # at k = n - 1 every block is too wide
                assert sum(grid) > n
                assert full == []


def selection_case(name):
    rng = np.random.default_rng(11)
    if name == "ties":
        # a full lattice in shuffled order: most rows tie at their k-th and
        # (k+1)-th lengths, and the lowest point indices must win
        pts = np.stack(np.meshgrid(*[np.arange(10)] * 3), -1).reshape(-1, 3) / 16.0
        return pts[rng.permutation(len(pts))], (3, 8)
    if name == "underflow":
        # each point with a twin at most 2e-162 away: at k = 1 every row's
        # squared length is zero or subnormal, and no screened pick may stand
        p = rng.random((230, 3))
        return np.vstack([p, p + rng.integers(0, 9, (230, 3)) / 8.0 * 1e-162]), (1, 5)
    if name == "k64":
        # a plane: blocks of up to 400 candidates, so a word carries more
        # than 8 column bits
        return np.c_[rng.random((1600, 2)), np.zeros(1600)], (64,)
    return rng.random((600, 3)), (int(name[1:]),)  # k16, k32


@pytest.mark.parametrize("name", "ties underflow k16 k32 k64".split())
def test_packed_selection_matches_dense_reference(name, monkeypatch):
    pts, ks = selection_case(name)
    n = len(pts)
    assert n > distances.WHOLE  # the grid is built
    z = merge(PointCloud(pts[: n // 2]), PointCloud(pts[n // 2 :]))
    dense_rows, grid_widths, screened, settled, grid_tied = [], [], [], [], []
    real, packed, first_k = distances._dense, distances._packed, distances._first_k
    select = distances._select
    monkeypatch.setattr(
        distances, "_dense", lambda zt, p, *a: dense_rows.append(len(p)) or real(zt, p, *a)
    )

    def counted_packed(d, k, out=None):
        if d.dtype == np.float32:  # a grid chunk's screen
            grid_widths.append(d.shape[1])
            screened.append(len(d))
        return packed(d, k, out)

    def counted_first_k(d, cols, k, out=None, cell=None):
        if cell is not None:  # the rows a grid chunk settles in float64
            settled.append(len(d))
        return first_k(d, cols, k, out, cell)

    def counted_select(d, cols, k):
        if d.shape[1] < n:  # a grid chunk; a dense row spans all n points
            grid_tied.append(len(d))
        return select(d, cols, k)

    monkeypatch.setattr(distances, "_packed", counted_packed)
    monkeypatch.setattr(distances, "_first_k", counted_first_k)
    monkeypatch.setattr(distances, "_select", counted_select)
    for k in ks:
        for symmetrize in (False, True):
            ref, d = stable_sort_knn_mask(z.points, k, symmetrize)
            dense_rows.clear()
            screened.clear()
            settled.clear()
            adj = knn_adjacency(z, k, symmetrize=symmetrize)
            assert np.array_equal(np.c_[np.divmod(adj.key, z.size)], np.argwhere(ref))
            assert np.array_equal(adj.dist, d[ref])
            if name == "ties":  # every tied row was settled within its grid chunk
                assert dense_rows == []
            if name == "underflow" and k == 1:  # subnormal lengths: every row settles
                assert sum(settled) == sum(screened) >= n
            elif name != "ties":  # the screen certifies rows off a lattice
                assert sum(settled) < sum(screened)
    assert grid_widths
    if name == "ties":
        assert sum(grid_tied) > n
    if name == "k64":  # words with more than 8 column bits
        assert max(grid_widths) > 256


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_grid_reach_bounds_every_point_outside_the_block(offset):
    # the certificate: a point outside a row's (2r+1)^3 block of cells has a
    # computed length above that pass's reach; a large offset adds rounding
    # to the cell coordinates
    pts = np.random.default_rng(5).random((400, 3)) + offset
    _, d = stable_sort_knn_mask(pts, 1, False)
    np.fill_diagonal(d, 0.0)
    kth = np.sort(d, axis=1)[::7, 3]  # every 7th row's 3rd neighbour; column 0 is the row
    h, reach = distances._cell_edge(float((pts.max(axis=0) - pts.min(axis=0)).max()), kth)
    order, cid, runs = distances._grid(pts.T, h)
    cell = np.floor((pts - pts.min(axis=0)) / h)
    assert distances.RADII == (1, 2)
    cells = np.unique(cid)
    for r, reach_r in zip(distances.RADII, reach):
        start, stop = runs(cells, r)
        closest = np.inf
        for row in order:
            c = np.searchsorted(cells, cid[row])
            inside = np.zeros(len(pts), dtype=bool)
            for first, last in zip(start[c], stop[c]):
                inside[order[first:last]] = True
            # the runs hold exactly the points within r cells along every axis
            assert np.array_equal(inside, (np.abs(cell - cell[row]) <= r).all(axis=1))
            outside = d[row][~inside]
            assert (outside > reach_r).all()
            closest = min(closest, outside.min(initial=np.inf))
        assert closest < (r + 0.5) * h  # some outside points lie just beyond the block


def test_grid_matches_dense_reference_on_a_surface_pair():
    # train-step's setting: 1024 + 1024 points of a noisy surface pair
    gt = sample_shape(ShapeSpec("hemisphere", 1024, seed=3))
    pred, gt, _ = normalize_pair(noisy_copy(gt, 0.02, 4), gt)
    z = merge(pred, gt)
    for k in (5, 8):
        directed, d = stable_sort_knn_mask(z.points, k, False)
        for ref, symmetrize in ((directed, False), (directed | directed.T, True)):
            adj = knn_adjacency(z, k, symmetrize=symmetrize)
            assert np.array_equal(np.c_[np.divmod(adj.key, z.size)], np.argwhere(ref))
            assert np.array_equal(adj.dist, d[ref])


def test_knn_memory_stays_below_dense(rng):
    # 2048 merged points: a dense float64 matrix alone would take 32 MiB
    z = merge(random_cloud(rng, 1024), random_cloud(rng, 1024))
    tracemalloc.start()
    try:
        knn_adjacency(z, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < z.size**2 * 8 / 4


# ---------------------------------------------------------------- tracker


def same_hop(got, want):
    """The same hop-1 record, bit for bit and dtype for dtype."""
    assert got.size == want.size
    for g, w in ((got.key, want.key), (got.dist, want.dist), (got.edge, want.edge)):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def tracked_cloud(kind, rng, n):
    if kind == "lattice":  # equal lengths: ties at every k
        return rng.integers(0, 4, (n, 3)) * 0.125
    if kind == "duplicate":
        p = rng.random((n, 3))
        p[rng.integers(0, n, n // 3 + 1)] = p[0]
        return p
    if kind == "underflow":  # squared lengths below the smallest normal
        return rng.integers(0, 9, (n, 3)) / 8.0 * 1e-162
    return rng.random((n, 3))


def tracked_move(kind, rng, pts):
    if kind == "sub-gap":
        return pts + rng.normal(scale=10.0 ** -rng.integers(3, 12), size=pts.shape)
    if kind == "adam":  # every point moves by about 5e-4 per coordinate
        return pts + rng.choice([-5e-4, 5e-4], pts.shape)
    if kind == "jump":
        return pts + rng.normal(scale=0.3, size=pts.shape)
    if kind == "one point":
        pts = pts.copy()
        pts[rng.integers(len(pts))] = rng.random(3) * np.abs(pts).max()
        return pts
    if kind == "lattice":  # stays on the lattice, so ties stay exact
        return pts + rng.integers(-1, 2, pts.shape) * 0.125
    return pts.copy()  # zero move


MOVES = ("zero", "sub-gap", "adam", "jump", "one point", "lattice")


def merged(pts, n_pred):
    return graph.MergedSet(pts, n_pred, len(pts) - n_pred)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("random", "lattice", "duplicate", "underflow")),
    n=st.integers(2, 90),
    k=st.integers(1, 8),
    symmetrize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    moves=st.lists(st.sampled_from(MOVES), max_size=8),
)
# an exact tie among a row's candidates, settled by point index
@example(kind="lattice", n=4, k=1, symmetrize=False, seed=1, moves=[])
# a set past WHOLE, where the start's search and knn_adjacency take the grid
@example(kind="random", n=460, k=5, symmetrize=False, seed=2, moves=["adam", "jump", "zero"])
def test_graph_tracker_returns_what_knn_adjacency_returns(kind, n, k, symmetrize, seed, moves):
    # n runs from below the list size plus one to past BLOCK, which dense
    # passes serve; the example past WHOLE takes the grid
    k = min(k, n - 1)
    rng = np.random.default_rng(seed)
    pts = tracked_cloud(kind, rng, n)
    track = graph.GraphTracker()
    z = merged(pts, n // 2)
    same_hop(track(z, k, symmetrize), knn_adjacency(z, k, symmetrize))
    for kind in moves:
        pts = tracked_move(kind, rng, pts)
        z = merged(pts, n // 2)
        same_hop(track(z, k, symmetrize), knn_adjacency(z, k, symmetrize))
    assert 0 < track.rows_searched <= track.rows_asked == (1 + len(moves)) * n


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("symmetrize", [False, True])
def test_graph_tracker_seeds_from_lists_across_the_box(k, symmetrize):
    # one corner of the unit box with three points near it, and eight
    # copies of the opposite corner: the first corner's list reaches across
    # the box, where the length rounds above the sentinel, and the copies
    # left out of it lie at that same length
    corner = np.array([0.1, 0.3, 0.3])
    near = corner * np.array([0.0, 0.01, 0.02, 0.03])[:, None]
    p, g, _ = normalize_pair(PointCloud(near), PointCloud(np.tile(corner, (8, 1))))
    pts = np.vstack([p.points, g.points])
    assert distances._table(pts, list_size(k))[1][0].max() > graph.SENTINEL
    rng = np.random.default_rng(k)
    track = graph.GraphTracker()
    z = merged(pts, 4)
    same_hop(track(z, k, symmetrize), knn_adjacency(z, k, symmetrize))
    for kind in ("zero", "sub-gap", "adam", "zero"):
        pts = tracked_move(kind, rng, pts)
        z = merged(pts, 4)
        same_hop(track(z, k, symmetrize), knn_adjacency(z, k, symmetrize))
    assert track.rows_searched < track.rows_asked == 5 * 12


@pytest.mark.parametrize("kind", ["random", "lattice"])
@pytest.mark.parametrize("tracker", ["nearest", "graph"])
def test_trackers_count_each_row_they_search_once(monkeypatch, tracker, kind):
    # 150 + 150 points, five moves and a start-over (another k, or another
    # target array): the counter adds up the rows handed to the one search,
    # and a start hands it every row exactly once, on the lattice's ties too
    rng = np.random.default_rng(12)
    pts = tracked_cloud(kind, rng, 300)
    q, k = pts[150:].copy(), 5
    track = graph.GraphTracker() if tracker == "graph" else distances.NearestTracker()
    calls = record_search(monkeypatch)
    for step, move in enumerate(("start", "zero", "adam", "lattice", "start", "adam", "sub-gap")):
        if move == "start" and step:
            q, k = q.copy(), k + 1
        pts = tracked_move(move, rng, pts)
        before = track.rows_searched
        calls.clear()
        track(merged(pts, 150), k) if tracker == "graph" else track(pts[:150], q)
        assert {who for who, _ in calls} <= {tracker}
        rows = np.concatenate([np.empty(0, dtype=np.intp)] + [r for _, r in calls])
        assert rows.size == track.rows_searched - before
        if move == "start":
            assert np.array_equal(np.sort(rows), np.arange(300))
    assert track.rows_asked == 7 * 300


def test_graph_tracker_sees_a_point_from_outside_the_lists():
    # row 0 keeps its nearest points on a ray; a point far outside its list
    # walks in, step by step, and ends nearer than all of them, while row 0
    # and its candidates stay put
    rng = np.random.default_rng(3)
    ray = np.c_[0.1 + 0.01 * np.arange(30), np.zeros(30), np.zeros(30)]
    pts = np.vstack([np.zeros((1, 3)), ray, [[0.0, 0.9, 0.0]], 0.5 + 0.1 * rng.random((20, 3))])
    walker = 31
    track = graph.GraphTracker()
    for y in np.linspace(0.9, 0.05, 40):
        pts[walker, 1] = y
        z = merged(pts, 10)
        got = track(z, 2)
        same_hop(got, knn_adjacency(z, 2))
    assert list(got.key[:2]) == [1, walker]  # row 0's neighbours: ray[0] and the walker


def test_graph_tracker_starts_over_on_another_k_size_or_a_nan():
    rng = np.random.default_rng(8)
    pts = rng.random((80, 3))
    track = graph.GraphTracker()
    track(merged(pts, 40), 5)
    assert track.rows_searched == 80  # the start: every row, once
    pts = pts + 1e-4
    same_hop(track(merged(pts, 40), 5), knn_adjacency(merged(pts, 40), 5))
    assert track.rows_searched < 2 * 80
    for z, k in ((merged(pts, 40), 6), (merged(pts[:70], 40), 6)):  # another k, another size
        before = track.rows_searched
        same_hop(track(z, k), knn_adjacency(z, k))
        assert track.rows_searched - before == z.size
    bad = pts[:70].copy()
    bad[3, 2] = np.nan
    state = (track.rows_asked, track.rows_searched)
    with pytest.raises(ValueError, match="point coordinates must be finite"):
        track(merged(bad, 40), 6)
    assert (track.rows_asked, track.rows_searched) == state
    # the lists outlive the nan call: the next call is tracked, not started over
    z = merged(pts[:70] + 1e-4, 40)
    same_hop(track(z, 6), knn_adjacency(z, 6))
    assert track.rows_searched - state[1] < 70


def test_graph_tracker_leaves_coordinates_that_may_overflow_to_knn_adjacency():
    # four points near the origin and sixteen at 1e200: a near row's lengths
    # to the far points overflow to +inf, and the far points' moves leave no
    # row certified, so every row is searched in full; its own point, at
    # NaN in that search, never enters its list
    rng = np.random.default_rng(4)
    pts = np.vstack([rng.random((4, 3)), rng.random((16, 3)) * 1e200])
    track = graph.GraphTracker()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            z = merged(pts, 10)
            same_hop(track(z, 2), knn_adjacency(z, 2))
            pts = pts * (1 + 1e-9)
    assert track.rows_searched == track.rows_asked == 3 * 20


def test_knn_adjacency_lists_no_point_as_its_own_neighbour_when_lengths_overflow():
    # the set above at k = 6: rows 0-5 reach the far points, whose lengths
    # overflow to +inf; each row's own point ranks after them
    rng = np.random.default_rng(4)
    pts = np.vstack([rng.random((4, 3)), rng.random((16, 3)) * 1e200])
    with np.errstate(over="ignore", invalid="ignore"):
        adj = knn_adjacency(merged(pts, 10), 6)
        ref, d = stable_sort_knn_mask(pts, 6, False)
    src, dst = np.divmod(adj.key, 20)
    assert (src != dst).all()
    assert np.array_equal(np.c_[src, dst], np.argwhere(ref))
    assert np.array_equal(adj.dist, d[src, dst])


def test_graph_tracker_searches_on_the_grid_and_returns_what_knn_adjacency_returns(monkeypatch):
    # 1000 + 1000 points of a noisy surface pair: moves of a few hundredths
    # leave hundreds of rows uncertain, which a tracked search takes to the grid
    grids, real = [], distances._grid
    monkeypatch.setattr(distances, "_grid", lambda *a: grids.append(1) or real(*a))
    gt = sample_shape(ShapeSpec("hemisphere", 1000, seed=6))
    pred, gt, _ = normalize_pair(noisy_copy(gt, 0.05, 7), gt)
    pts, rng = np.vstack([pred.points, gt.points]), np.random.default_rng(8)
    track = graph.GraphTracker()
    for symmetrize in (False, True):
        z = merged(pts, 1000)
        same_hop(track(z, 5, symmetrize), knn_adjacency(z, 5, symmetrize))
        seeded = len(grids)
        for scale in (0.01, 5e-4, 0.0, 0.02):
            pts = pts + rng.normal(scale=scale, size=pts.shape)
            z = merged(pts, 1000)
            same_hop(track(z, 5, symmetrize), knn_adjacency(z, 5, symmetrize))
        assert len(grids) > seeded + 4  # besides the fresh builds
    assert track.rows_searched < track.rows_asked


def test_graph_tracker_raises_what_knn_adjacency_raises_and_keeps_its_lists():
    rng = np.random.default_rng(9)
    pts = rng.random((30, 3))
    track = graph.GraphTracker()
    track(merged(pts, 15), 4)
    state = (track.rows_asked, track.rows_searched)
    for k, error in ((30, KTooLargeError), (0, ValueError)):
        with pytest.raises(error) as want:
            knn_adjacency(merged(pts, 15), k)
        with pytest.raises(error) as got:
            track(merged(pts, 15), k)
        assert str(got.value) == str(want.value)
        assert (track.rows_asked, track.rows_searched) == state
    # the lists survive: a small move is tracked, not started over
    pts = pts + 1e-6
    same_hop(track(merged(pts, 15), 4), knn_adjacency(merged(pts, 15), 4))
    assert track.rows_searched - state[1] < 30


# ---------------------------------------------------------------- nearest from the graph


def same_nearest(got, want):
    """The same four arrays as ``nearest``'s, bit for bit and dtype for dtype."""
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def read_pair(kind, rng, n, m):
    if kind == "lattice":  # exact ties and repeated points
        return rng.integers(0, 4, (n, 3)) * 0.125, rng.integers(0, 4, (m, 3)) * 0.125
    if kind == "underflow":  # squared lengths below the smallest normal
        return (rng.integers(0, 9, (s, 3)) / 8.0 * 1e-162 for s in (n, m))
    if kind == "noisy copy":
        q = rng.random((m, 3))
        return q[rng.integers(0, m, n)] + rng.normal(scale=1e-3, size=(n, 3)), q
    return rng.random((n, 3)), rng.random((m, 3))


def graph_of(p, q, k, symmetrize=False):
    return knn_adjacency(merge(PointCloud(p), PointCloud(q)), k, symmetrize)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(("uniform", "lattice", "underflow", "noisy copy")),
    n=st.integers(1, 90),
    m=st.integers(1, 90),
    k=st.integers(1, 8),
    symmetrize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# one-point clouds, merged sets at and just above BLOCK, and one past WHOLE,
# whose graph takes the grid
@example(kind="uniform", n=1, m=1, k=1, symmetrize=False, seed=0)
@example(kind="noisy copy", n=1, m=40, k=8, symmetrize=True, seed=1)
@example(kind="lattice", n=32, m=32, k=8, symmetrize=True, seed=2)
@example(kind="noisy copy", n=40, m=25, k=8, symmetrize=False, seed=3)
@example(kind="noisy copy", n=240, m=230, k=5, symmetrize=True, seed=4)
def test_graph_nearest_returns_what_nearest_returns(kind, n, m, k, symmetrize, seed):
    rng = np.random.default_rng(seed)
    p, q = read_pair(kind, rng, n, m)
    k = min(k, n + m - 1)
    read = graph.GraphNearest(graph_of(p, q, k, symmetrize), k)
    same_nearest(read(p, q), nearest(p, q))
    assert 0 <= read.rows_searched <= read.rows_asked == n + m


def test_graph_nearest_searches_a_row_whose_list_holds_no_cross_edge(monkeypatch):
    # on a line: pred 0, 0.1, 0.11, 0.12 and target 0.01, 0.5. At k = 2 the
    # pred points 1-3 list only each other; rows 0, 4 and 5 pick a cross
    # edge strictly below their 2nd length
    p = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.11, 0, 0], [0.12, 0, 0]])
    q = np.array([[0.01, 0, 0], [0.5, 0, 0]])
    calls = record_nearest(monkeypatch)
    read = graph.GraphNearest(graph_of(p, q, 2), 2)
    got = read(p, q)
    assert calls == [(3, 2)]  # rows 1-3 against the target
    assert read.rows_searched == 3
    monkeypatch.undo()
    same_nearest(got, nearest(p, q))


def test_graph_nearest_searches_a_pick_that_ties_the_kth_length(monkeypatch):
    # pred 0's two nearest, pred 1 and target 0, lie at the same length: the
    # pick does not lie strictly below it, so the row is searched. Every
    # other point has a point of the other cloud 0.001 away
    p = np.array([[0.0, 0, 0], [-0.1, 0, 0], [0.1, 0.001, 0]])
    q = np.array([[0.1, 0, 0], [-0.1, 0.001, 0]])
    adj = graph_of(p, q, 2)
    assert list(adj.key[:2] % 5) == [1, 3] and adj.dist[0] == adj.dist[1]
    calls = record_nearest(monkeypatch)
    read = graph.GraphNearest(adj, 2)
    got = read(p, q)
    assert calls == [(1, 2)]  # row 0 against the target
    assert read.rows_searched == 1
    monkeypatch.undo()
    same_nearest(got, nearest(p, q))


def uncertified_by_own_lists(p, q, k):
    """Rows of ``merge(p, q)`` whose own k nearest, by the dense reference,
    hold no point of the other cloud strictly nearer than the k-th."""
    mask, d = stable_sort_knn_mask(np.vstack([p, q]), k, False)
    first = np.arange(len(d)) < len(p)
    kth = np.where(mask, d, -np.inf).max(axis=1)
    pick = np.where(mask & (first[:, None] != first), d, np.inf).min(axis=1)
    return np.flatnonzero(~(pick < kth))


def read_symmetrized(monkeypatch, p, q, k):
    """``GraphNearest``'s read of the symmetrized graph, checked against
    ``nearest``, and the rows it searched."""
    searched = []

    def recorded(pts, k, rows, split):
        searched.append(rows.copy())
        return distances._across(pts, k, rows, split)

    monkeypatch.setattr(graph, "_across", recorded)
    read = graph.GraphNearest(graph_of(p, q, k, symmetrize=True), k)
    same_nearest(read(p, q), nearest(p, q))
    assert read.rows_searched == np.concatenate(searched).size
    return np.concatenate(searched)


def test_graph_nearest_searches_rows_whose_only_cross_edges_are_reverse_edges(monkeypatch):
    # k = 2: pred 0 and 1 each list target points 2 and 3, which list only
    # target points. So the symmetrized rows 2 and 3 hold two reverse cross
    # edges each, both longer than the row's own 2nd length, and are searched
    p = np.array([[0.5, 0, 0], [1.0, 0.75, 0]])
    q = np.array([[1.0, 0, 0], [1.125, 0, 0], [1.25, 0, 0]])
    adj = graph_of(p, q, 2, symmetrize=True)
    assert list(adj.key[adj.key // 5 == 2] % 5) == [0, 1, 3, 4]
    assert list(graph_of(p, q, 2).key[4:6] % 5) == [3, 4]
    want = uncertified_by_own_lists(p, q, 2)
    assert list(want) == [2, 3, 4]
    assert list(read_symmetrized(monkeypatch, p, q, 2)) == list(want)


def test_graph_nearest_ignores_a_reverse_edge_tied_at_the_kth_length(monkeypatch):
    # on a line at k = 2: pred 0, 0.25 and target -0.125, -0.25. Row 0's
    # own list is target 2 and pred 1; target 3 ties pred 1 at the 2nd
    # length and loses on index, but lists point 0, so the symmetrized row 0
    # holds 3 too. Row 0's pick, target 2, lies strictly below its 2nd
    # length, so it stands; the other rows' picks tie their 2nd length
    p = np.array([[0.0, 0, 0], [0.25, 0, 0]])
    q = np.array([[-0.125, 0, 0], [-0.25, 0, 0]])
    adj = graph_of(p, q, 2, symmetrize=True)
    row0 = adj.key // 4 == 0
    assert list(adj.key[row0] % 4) == [1, 2, 3] and adj.dist[row0][0] == adj.dist[row0][2]
    want = uncertified_by_own_lists(p, q, 2)
    assert list(want) == [1, 2, 3]
    assert list(read_symmetrized(monkeypatch, p, q, 2)) == list(want)


def test_graph_nearest_searches_nothing_when_every_row_is_certified(monkeypatch):
    # a 3x3x3 lattice of spacing 0.5 and its copy 0.01 along x: every
    # point's twin is its nearest, strictly below its 3rd length
    p = np.stack(np.meshgrid(*[np.arange(3) * 0.5] * 3), axis=-1).reshape(-1, 3)
    q = p + [0.01, 0, 0]
    read = graph.GraphNearest(graph_of(p, q, 3), 3)
    table, tables = distances._table, []

    def counted(*args):
        tables.append(args)
        return table(*args)

    monkeypatch.setattr(distances, "_table", counted)
    got = read(p, q)
    assert tables == [] and read.rows_searched == 0 and read.rows_asked == 54
    monkeypatch.undo()
    same_nearest(got, nearest(p, q))
    assert list(got[0]) == list(got[2]) == list(range(27))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_graph_nearest_rejects_a_pair_that_is_not_finite(bad):
    rng = np.random.default_rng(5)
    p, q = rng.random((20, 3)), rng.random((20, 3))
    adj = graph_of(p, q, 4)
    read = graph.GraphNearest(adj, 4)
    p[3, 1] = bad
    with pytest.raises(ValueError, match="point coordinates must be finite"):
        read(p, q)
    assert read.rows_searched == read.rows_asked == 0


def test_graph_nearest_rejects_a_graph_of_another_size():
    rng = np.random.default_rng(6)
    p, q = rng.random((20, 3)), rng.random((20, 3))
    read = graph.GraphNearest(graph_of(p, q, 4), 4)
    with pytest.raises(DimensionMismatchError, match="graph has 40 points, the pair has 39"):
        read(p[1:], q)
