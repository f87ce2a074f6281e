import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from geocd import ShapeSpec, distances, oracle, sample_shape
from geocd.distances import NearestTracker, nearest, pairwise_distances
from geocd.oracle import stable_sort_knn_mask
from conftest import record_search


def dense_squared(p, q):
    diff = p[:, None, :] - q[None, :, :]
    dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
    return (dx * dx + dy * dy) + dz * dz


def tracker_cloud(kind, rng, n):
    if kind == "lattice":  # equal distances: ties in both directions
        return rng.integers(0, 3, (n, 3)) * 0.5
    if kind == "duplicate":
        p = rng.random((n, 3))
        p[rng.integers(0, n, n // 2 + 1)] = p[0]
        return p
    if kind == "one":
        return rng.random((1, 3))
    if kind == "graded":  # dense in one corner, sparse in the other
        return rng.random((n, 3)) ** 3
    return rng.random((n, 3))


def move(kind, rng, p):
    if kind == "sub-gap":
        return p + rng.normal(scale=10.0 ** -rng.integers(3, 12), size=p.shape)
    if kind == "jump":
        return p + rng.normal(scale=0.3, size=p.shape)
    if kind == "one point":
        p = p.copy()
        p[rng.integers(len(p))] = rng.random(3)
        return p
    if kind == "lattice":  # stays on the lattice, so ties stay exact
        return p + rng.integers(-1, 2, p.shape) * 0.5
    return p.copy()  # zero move


def assert_same(got, want):
    """The same four arrays, bit for bit."""
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


SHAPES = [(1, 1), (1, 70), (70, 1), (10, 63), (63, 10), (65, 65), (65, 130), (130, 40), (200, 7)]


@pytest.mark.parametrize("n,m", SHAPES)
@pytest.mark.parametrize("lattice", [False, True])
def test_nearest_matches_dense_argmin(n, m, lattice):
    rng = np.random.default_rng(n * 1000 + m)
    if lattice:  # repeated points and equal distances: ties in both directions
        p, q = rng.integers(0, 3, (n, 3)) * 0.5, rng.integers(0, 3, (m, 3)) * 0.5
    else:
        p, q = rng.random((n, 3)), rng.random((m, 3))
    assert_same(nearest(p, q), oracle.nearest(p, q))
    assert np.array_equal(pairwise_distances(p, q), np.sqrt(dense_squared(p, q)))


CLOUDS = ("random", "lattice", "duplicate", "one", "graded")
SCALES = (1.0, 1e-170, 1e-162, 1e154, 1e200)


# the grids fixture is read as a count before and after each example
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    kinds=st.tuples(st.sampled_from(CLOUDS), st.sampled_from(CLOUDS)),
    n=st.integers(1, 400),
    m=st.integers(1, 400),
    scale=st.sampled_from(SCALES),
    seed=st.integers(0, 2**32 - 1),
)
# both clouds past the size rule at every scale: each cloud's search takes the grid
@example(kinds=("random", "random"), n=400, m=360, scale=1.0, seed=0)
@example(kinds=("lattice", "duplicate"), n=360, m=400, scale=1e-170, seed=1)
@example(kinds=("duplicate", "lattice"), n=400, m=400, scale=1e-162, seed=2)
@example(kinds=("random", "lattice"), n=380, m=400, scale=1e154, seed=3)
@example(kinds=("lattice", "random"), n=400, m=340, scale=1e200, seed=4)
@example(kinds=("one", "random"), n=1, m=400, scale=1.0, seed=5)
# the rows of q find some of their nearest points of p just outside the 3x3x3
# block: a reach that certified too much would pick the wrong one
@example(kinds=("graded", "random"), n=400, m=380, scale=1.0, seed=8)
def test_nearest_returns_what_the_oracle_returns(kinds, n, m, scale, seed, grids):
    rng = np.random.default_rng(seed)
    p, q = tracker_cloud(kinds[0], rng, n) * scale, tracker_cloud(kinds[1], rng, m) * scale
    n, m = len(p), len(q)
    before = len(grids)
    with np.errstate(over="ignore"):  # squared lengths overflow from about 1e154
        assert_same(nearest(p, q), oracle.nearest(p, q))
    # each cloud's rows are a part of the merged set, so a search takes the
    # grid where rows * rows * targets exceeds 2**25 (here only past BLOCK rows)
    assert (len(grids) > before) == (max(n * n * m, m * m * n) > 2**25)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cloud", [0, 1])
def test_nearest_rejects_coordinates_that_are_not_finite(bad, cloud):
    rng = np.random.default_rng(3)
    pair = [rng.random((20, 3)), rng.random((30, 3))]
    pair[cloud][4, 2] = bad
    with pytest.raises(ValueError, match="point coordinates must be finite"):
        nearest(*pair)


def test_nearest_ties_go_to_lower_index_across_row_blocks():
    rng = np.random.default_rng(7)
    p, q = rng.random((130, 3)), rng.random((90, 3))
    p[[70, 129]] = p[5]  # copies of p[5] in the second and third row block
    q[0] = p[5]
    q[[40, 89]] = q[7]
    p[3] = q[7]
    j, sq_p, i, sq_q = nearest(p, q)
    assert (i[0], sq_q[0]) == (5, 0.0)
    assert (j[3], sq_p[3]) == (7, 0.0)


MOVES = ("zero", "sub-gap", "jump", "one point", "lattice")


@settings(max_examples=80, deadline=None)
@given(
    kinds=st.tuples(st.sampled_from(CLOUDS), st.sampled_from(CLOUDS)),
    n=st.integers(1, 90),
    m=st.integers(1, 90),
    seed=st.integers(0, 2**32 - 1),
    moves=st.lists(st.sampled_from(MOVES), max_size=10),
)
def test_tracker_returns_what_nearest_returns(kinds, n, m, seed, moves):
    rng = np.random.default_rng(seed)
    p, q = tracker_cloud(kinds[0], rng, n), tracker_cloud(kinds[1], rng, m)
    track = NearestTracker()
    assert_same(track(p, q), nearest(p, q))
    for kind in moves:
        p = move(kind, rng, p)
        assert_same(track(p, q), nearest(p, q))
    assert 0 < track.rows_searched <= track.rows_asked == (1 + len(moves)) * (len(p) + len(q))


@pytest.mark.parametrize("seed", range(16))
def test_tracker_follows_moves_of_a_few_ulps_across_a_tie(seed):
    # p[r] starts a few ulps from the midpoint of q[2r] and q[2r + 1], on
    # the line between them, and steps across it toward q[2r] by a few ulps
    # per call: the bound of the triangle inequality is tight along the
    # line, so only the certificate's slack covers the rounding
    rng = np.random.default_rng(seed)
    k, ulp = 256, 2.0**-52
    e = rng.normal(size=(k, 3))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    mid, half = rng.random((k, 3)), rng.uniform(0.01, 0.3, (k, 1))
    q = np.empty((2 * k, 3))
    q[0::2], q[1::2] = mid + half * e, mid - half * e
    p = mid - rng.integers(1, 40, (k, 1)) * ulp * e
    step = rng.integers(1, 4, (k, 1)) * ulp * rng.choice([0.25, 0.5, 1.0, 2.0], (k, 1)) * e
    track = NearestTracker()
    for _ in range(8):
        assert_same(track(p, q), nearest(p, q))
        p = p + step


def test_tracker_searches_only_the_rows_that_may_have_changed(monkeypatch):
    rng = np.random.default_rng(5)
    p, q = rng.random((50, 3)), rng.random((70, 3))
    calls = record_search(monkeypatch)
    track = NearestTracker()
    track(p, q)
    assert (track.rows_searched, track.rows_asked) == (120, 120)
    # p unchanged, every nearest point unique: no row is searched again
    assert_same(track(p.copy(), q), nearest(p, q))
    assert track.rows_searched == 120
    # p[7] jumps onto the q point after its nearest: only that p row is
    # searched, and its nearest point changes
    j = nearest(p, q)[0]
    p[7] = q[(j[7] + 1) % 70]
    calls.clear()
    got = track(p, q)
    assert_same(got, nearest(p, q))
    rows = calls[0][1]
    assert np.array_equal(p[rows[rows < len(p)]], p[[7]])  # the rows of p among them
    assert got[0][7] == (j[7] + 1) % 70
    # another target array starts over
    before = track.rows_searched
    assert_same(track(p, q.copy()), nearest(p, q))
    assert track.rows_searched - before == 120


def test_tracker_bounds_how_far_every_point_has_moved():
    # p[0] swings about q[0] to its other side: its length to q[0] and
    # q[1]'s length to p[1] stay put, yet q[1] and p[0] become each
    # other's nearest points
    q = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    p = np.array([[-0.4, 0.0, 0.0], [1.3, 0.0, 0.0]])
    track = NearestTracker()
    assert_same(track(p, q), nearest(p, q))
    p[0] = [0.4, 0.0, 0.0]
    got = track(p, q)
    assert_same(got, nearest(p, q))
    assert got[0][0] == 1 and got[2][1] == 0


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_tracker_searches_every_row_at_extreme_scales(scale):
    # squared lengths underflow to zero or subnormals at 1e-170 and overflow
    # at 1e200: no row is certified, and every call matches nearest
    rng = np.random.default_rng(11)
    p, q = rng.random((30, 3)) * scale, rng.random((20, 3)) * scale
    track = NearestTracker()
    with np.errstate(over="ignore"):
        for _ in range(4):
            assert_same(track(p, q), nearest(p, q))
            p = p + rng.normal(scale=1e-3 * scale, size=p.shape)
    assert track.rows_searched == track.rows_asked


def test_tracker_rejects_coordinates_that_are_not_finite_and_keeps_its_lists():
    # _table cannot rank NaN: such a call raises before it touches the
    # tracker, whose counters and lists carry on as if it had not been made
    rng = np.random.default_rng(2)
    p, q = rng.random((100, 3)), rng.random((30, 3))
    track = NearestTracker()
    track(p, q)
    state = (track.rows_asked, track.rows_searched)
    for bad in (np.nan, np.inf):
        moved = p.copy()
        moved[70, 1] = bad
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            track(moved, q)
        assert (track.rows_asked, track.rows_searched) == state
    # the lists survive: p unchanged against the same q searches no row
    assert_same(track(p.copy(), q), nearest(p, q))
    assert (track.rows_asked, track.rows_searched) == (2 * 130, state[1])


# ---------------------------------------------------------------- one search


def search_set(kind, rng, n):
    """n points of a kind whose k nearest the one search must rank exactly."""
    if kind == "lattice":  # a lattice in shuffled order: ties at every k
        side = int(np.ceil(n ** (1 / 3)))
        pts = np.stack(np.meshgrid(*[np.arange(side)] * 3), -1).reshape(-1, 3)[:n] / 16.0
        return pts[rng.permutation(n)]
    if kind == "duplicate":
        p = rng.random((n, 3))
        p[rng.integers(0, n, n // 3)] = p[0]
        return p
    if kind == "underflow":  # squared lengths below the smallest normal
        return rng.integers(0, 9, (n, 3)) / 8.0 * 1e-162
    if kind == "far":  # a dense patch and a sparse cluster far from it
        return np.vstack([rng.random((n - 12, 3)) * 0.1, 5.0 + rng.random((12, 3))])
    return rng.random((n, 3))


def first_k(sq, k, cols):
    """Each row's first k columns of a stable sort, sorted by index, and their entries."""
    j = np.sort(np.argsort(sq, axis=1, kind="stable")[:, :k], axis=1)
    return cols[j], sq[np.arange(len(sq))[:, None], j]


def row_sets(r, w, rng):
    """Parts of r rows: one, all, and sizes on both sides of the size rule."""
    # a part of the rows, r of them against w targets, is dense up to
    # r * r * w = 2**25
    cut = int(np.sqrt(2**25 / w))
    parts = [s for s in (1, distances.BLOCK, distances.BLOCK + 1, cut, cut + 1) if s < r]
    return [np.sort(rng.choice(r, s, replace=False)) for s in parts] + [np.arange(r)]


@pytest.fixture
def grids(monkeypatch):
    """One entry per grid that ``_table`` builds."""
    built, real = [], distances._grid
    monkeypatch.setattr(distances, "_grid", lambda *a: built.append(1) or real(*a))
    return built


@pytest.mark.parametrize("kind", ["random", "lattice", "duplicate", "underflow", "far"])
def test_table_rows_of_a_set_match_the_dense_reference(kind, grids):
    # the graph's mode: every other point, rooted lengths
    rng = np.random.default_rng(21)
    n, k = 800, 6
    pts = search_set(kind, rng, n)
    ref, d = stable_sort_knn_mask(pts, k, False)
    for rows in row_sets(n, n, rng):
        before = len(grids)
        nbr, length = distances._table(pts, k, rows)
        want = np.argwhere(ref[rows])[:, 1].reshape(rows.size, k)
        assert np.array_equal(nbr, want)
        assert length.tobytes() == d[rows[:, None], want].tobytes()
        # a part of the rows takes the grid past the size rule, the whole set past BLOCK
        assert (len(grids) > before) == (rows.size > int(np.sqrt(2**25 / n)))


@pytest.mark.parametrize("kind", ["random", "lattice", "duplicate", "underflow", "far", "one"])
def test_table_bipartite_rows_match_the_dense_reference(kind, grids):
    # NearestTracker's mode: the other cloud only, squared lengths, ties by index
    rng = np.random.default_rng(22)
    n, m = 800, 1 if kind == "one" else 700
    pts = np.vstack([search_set(kind, rng, n), search_set("random", rng, m)])
    for targets in ((n, n + m), (0, n)):
        lo, hi = targets
        k = min(8, hi - lo)  # the one-point cloud: as many as its size
        side = np.arange(n) if lo == n else np.arange(n, n + m)
        for rows in [side[s] for s in row_sets(side.size, hi - lo, rng)]:
            before = len(grids)
            got = distances._table(pts, k, rows, targets)
            want = first_k(dense_squared(pts[rows], pts[lo:hi]), k, np.arange(lo, hi))
            assert np.array_equal(got[0], want[0])
            assert got[1].tobytes() == want[1].tobytes()
            assert (len(grids) > before) == (rows.size * rows.size * (hi - lo) > 2**25)


def test_table_with_as_many_targets_as_k_takes_the_grid(grids):
    # 1000 rows against 40 targets at k = 40: the grid runs, and every row
    # goes on to the dense pass, its block holding fewer than k targets or
    # over a quarter of them
    rng = np.random.default_rng(23)
    pts = rng.random((1040, 3))
    rows = np.arange(1000)
    nbr, length = distances._table(pts, 40, rows, (1000, 1040))
    assert len(grids) == 1
    assert np.array_equal(nbr, np.tile(np.arange(1000, 1040), (1000, 1)))
    assert length.tobytes() == dense_squared(pts[:1000], pts[1000:]).tobytes()


def test_tracker_searches_on_the_grid_and_returns_what_nearest_returns(grids):
    # 1000 + 1000 points: moves of a few hundredths leave hundreds of rows
    # uncertain, which a tracked search takes to the grid
    rng = np.random.default_rng(24)
    q = sample_shape(ShapeSpec("torus", 1000, 0.02, 5)).points
    p = q + rng.normal(scale=0.05, size=q.shape)
    track = NearestTracker()
    assert_same(track(p, q), nearest(p, q))
    first = len(grids)
    for scale in (0.02, 5e-4, 0.01, 0.0, 0.03):
        p = p + rng.normal(scale=scale, size=p.shape)
        assert_same(track(p, q), nearest(p, q))
    assert len(grids) > first
    assert track.rows_searched < track.rows_asked
