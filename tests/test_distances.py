import numpy as np
import pytest

from geocd.distances import nearest, pairwise_distances


def dense_squared(p, q):
    diff = p[:, None, :] - q[None, :, :]
    dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
    return (dx * dx + dy * dy) + dz * dz


SHAPES = [(1, 1), (1, 70), (70, 1), (10, 63), (63, 10), (65, 65), (65, 130), (130, 40), (200, 7)]


@pytest.mark.parametrize("n,m", SHAPES)
@pytest.mark.parametrize("lattice", [False, True])
def test_nearest_matches_dense_argmin(n, m, lattice):
    rng = np.random.default_rng(n * 1000 + m)
    if lattice:  # repeated points and equal distances: ties in both directions
        p, q = rng.integers(0, 3, (n, 3)) * 0.5, rng.integers(0, 3, (m, 3)) * 0.5
    else:
        p, q = rng.random((n, 3)), rng.random((m, 3))
    sq = dense_squared(p, q)
    j, sq_p, i, sq_q = nearest(p, q)
    assert np.array_equal(j, sq.argmin(axis=1))
    assert np.array_equal(i, sq.argmin(axis=0))
    assert np.array_equal(sq_p, sq.min(axis=1))
    assert np.array_equal(sq_q, sq.min(axis=0))
    assert np.array_equal(pairwise_distances(p, q), np.sqrt(sq))


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
