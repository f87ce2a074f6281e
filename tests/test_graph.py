import numpy as np
import pytest

from geocd import KTooLargeError, PointCloud, knn_adjacency, merge
from conftest import random_cloud


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
    assert np.allclose(adj.dist, expected, atol=1e-12)
    # directed: 1->2 is sentinel while 2->1 is a real edge
    assert adj.dist[1, 2] != adj.dist[2, 1]
    assert not adj.edge_mask[1, 2] and adj.edge_mask[2, 1]


def test_complete_graph_equals_distance_matrix(rng):
    pred, gt = random_cloud(rng, 6), random_cloud(rng, 5)
    z = merge(pred, gt)
    adj = knn_adjacency(z, k=z.size - 1)
    diffs = z.points[:, None, :] - z.points[None, :, :]
    full = np.sqrt((diffs**2).sum(-1))
    assert np.allclose(adj.dist, full, atol=1e-12)
    assert adj.edge_mask.sum() == z.size * (z.size - 1)


def test_k_too_large(rng):
    z = merge(random_cloud(rng, 3), random_cloud(rng, 3))
    with pytest.raises(KTooLargeError):
        knn_adjacency(z, k=6)
    knn_adjacency(z, k=5)  # boundary value is fine


def test_k_must_be_positive(rng):
    z = merge(random_cloud(rng, 3), random_cloud(rng, 3))
    with pytest.raises(ValueError):
        knn_adjacency(z, k=0)


def test_row_sparsity_and_diagonal(rng):
    z = merge(random_cloud(rng, 14), random_cloud(rng, 9))
    for k in (1, 3, 7):
        adj = knn_adjacency(z, k)
        off_diag = adj.edge_mask.sum(axis=1)
        assert (off_diag == k).all()
        assert not adj.edge_mask.diagonal().any()
        assert (adj.dist.diagonal() == 0).all()


def test_monotone_in_k(rng):
    z = merge(random_cloud(rng, 12), random_cloud(rng, 12))
    prev = knn_adjacency(z, 2).edge_mask
    for k in (3, 4, 6):
        cur = knn_adjacency(z, k).edge_mask
        assert (prev <= cur).all()  # edge set grows with k
        prev = cur


def test_edges_match_direct_recomputation(rng):
    z = merge(random_cloud(rng, 10), random_cloud(rng, 11))
    adj = knn_adjacency(z, 4)
    for i, j in zip(*np.nonzero(adj.edge_mask)):
        direct = float(np.linalg.norm(z.points[i] - z.points[j]))
        assert adj.dist[i, j] == pytest.approx(direct, rel=1e-12)


def test_tie_break_prefers_lower_index():
    # indices 1 and 2 are both at distance 0.5 from index 0
    z = merge(cloud([0, 0, 0]), cloud([0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.9]))
    adj = knn_adjacency(z, k=1)
    assert adj.edge_mask[0, 1] and not adj.edge_mask[0, 2]


def test_symmetrize_flag(rng):
    z = merge(random_cloud(rng, 8), random_cloud(rng, 8))
    adj = knn_adjacency(z, 2, symmetrize=True)
    assert (adj.edge_mask == adj.edge_mask.T).all()
    assert np.allclose(adj.dist, adj.dist.T)


def stable_sort_knn_mask(points, k, symmetrize):
    """Reference: the first k entries of a stable sort of each distance row."""
    diff = points[:, None, :] - points[None, :, :]
    dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
    d = np.sqrt((dx * dx + dy * dy) + dz * dz)
    np.fill_diagonal(d, np.inf)
    mask = np.zeros(d.shape, dtype=bool)
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    mask[np.arange(len(d))[:, None], order] = True
    return (mask | mask.T) if symmetrize else mask, d


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
            assert np.array_equal(adj.edge_mask, ref)
            expected = np.where(ref, d, 1.0)
            np.fill_diagonal(expected, 0.0)
            assert np.array_equal(adj.dist, expected)
