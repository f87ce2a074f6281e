import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geocd import (
    DegenerateCloudError,
    PointCloud,
    normalize_pair,
    normalize_unit_bbox,
)
from geocd.cloud import box_diagonal
from conftest import random_cloud


def test_cube_corners_normalization():
    corners = np.array(
        [[x, y, z] for x in (0.0, 2.0) for y in (0.0, 2.0) for z in (0.0, 2.0)]
    )
    cloud, t = normalize_unit_bbox(PointCloud(corners))
    lo, hi = cloud.bbox()
    assert cloud.bbox_diagonal() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose((lo + hi) / 2.0, 0.0, atol=1e-12)
    assert t.scale == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-15)
    assert np.allclose(t.translation, [1.0, 1.0, 1.0])


def test_normalization_idempotent(rng):
    cloud = random_cloud(rng, 40)
    once, _ = normalize_unit_bbox(cloud)
    twice, t2 = normalize_unit_bbox(once)
    assert np.abs(twice.points - once.points).max() < 1e-12
    assert abs(t2.scale - 1.0) < 1e-12
    assert np.abs(t2.translation).max() < 1e-12


def test_degenerate_cloud_rejected():
    pts = np.tile([0.3, 0.3, 0.3], (8, 1))
    with pytest.raises(DegenerateCloudError):
        normalize_unit_bbox(PointCloud(pts))


def test_transform_roundtrip(rng):
    cloud = random_cloud(rng, 25)
    normalized, t = normalize_unit_bbox(cloud)
    back = t.invert(normalized.points)
    assert np.abs(back - cloud.points).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        (12, 3),
        elements=st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
    )
)
def test_normalization_preserves_distance_ratios(pts):
    cloud = PointCloud(pts + np.arange(12)[:, None] * 1e-3)  # break exact coincidence
    normalized, t = normalize_unit_bbox(cloud)
    d_before = np.linalg.norm(cloud.points[0] - cloud.points[-1])
    d_after = np.linalg.norm(normalized.points[0] - normalized.points[-1])
    # uniform scaling: distances shrink by exactly the transform scale
    assert d_after == pytest.approx(d_before * t.scale, rel=1e-12, abs=1e-12)
    # and no pair exceeds the unit diagonal
    diffs = normalized.points[:, None, :] - normalized.points[None, :, :]
    assert np.sqrt((diffs**2).sum(-1)).max() <= 1.0 + 1e-12


def test_pair_normalization_bounds_cross_distances(rng):
    pred = PointCloud(rng.random((30, 3)) * 4.0 - 1.0)
    gt = PointCloud(rng.random((20, 3)) * 2.0 + 3.0)
    pred_n, gt_n, _ = normalize_pair(pred, gt)
    both = np.vstack([pred_n.points, gt_n.points])
    diffs = both[:, None, :] - both[None, :, :]
    assert np.sqrt((diffs**2).sum(-1)).max() <= 1.0 + 1e-12


def test_pair_normalization_shares_transform(rng):
    pred = random_cloud(rng, 10)
    gt = random_cloud(rng, 12)
    pred_n, gt_n, t = normalize_pair(pred, gt)
    assert np.allclose(pred_n.points, t.apply(pred.points))
    assert np.allclose(gt_n.points, t.apply(gt.points))


def test_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))
    bad = np.zeros((3, 3))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        PointCloud(bad)
    bad[1, 1] = np.inf
    with pytest.raises(ValueError):
        PointCloud(bad)


def scaled_pair(scale):
    """The 50 + 50 uniform pair of seed 1, scaled."""
    rng = np.random.default_rng(1)
    return PointCloud(rng.random((50, 3)) * scale), PointCloud(rng.random((50, 3)) * scale)


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_box_diagonal_at_scales_whose_squares_overflow_or_underflow(scale):
    pred, gt = scaled_pair(scale)
    unit_pred, unit_gt = scaled_pair(1.0)
    assert gt.bbox_diagonal() == pytest.approx(unit_gt.bbox_diagonal() * scale, rel=1e-14)
    pred_n, gt_n, t = normalize_pair(pred, gt)
    want_pred, want_gt, want = normalize_pair(unit_pred, unit_gt)
    assert t.scale == pytest.approx(want.scale / scale, rel=1e-14)
    assert np.abs(pred_n.points - want_pred.points).max() < 1e-14
    assert np.abs(gt_n.points - want_gt.points).max() < 1e-14


def test_box_diagonal_is_the_norm_wherever_the_squares_are_normal():
    rng = np.random.default_rng(4)
    for _ in range(2000):
        # squares of the largest extents stay normal; a zero or a far
        # smaller extent adds nothing to the sum either way
        scale = 10.0 ** rng.uniform(-140, 140)
        lo = rng.normal(size=3) * scale
        ext = rng.random(3) * scale
        ext[rng.integers(0, 3)] *= rng.choice([0.0, 1.0, 10.0 ** rng.uniform(-30, 0)])
        hi = lo + ext
        assert box_diagonal(lo, hi) == float(np.linalg.norm(hi - lo))


def test_box_diagonal_beyond_the_largest_float_is_an_input_error():
    pts = np.array([[-1e308, 0.0, 0.0], [1e308, 0.0, 0.0]])
    message = "bounding-box diagonal exceeds the largest float64"
    with pytest.raises(DegenerateCloudError, match=message):
        PointCloud(pts).bbox_diagonal()
    with pytest.raises(DegenerateCloudError, match=message):
        normalize_pair(PointCloud(pts[:1]), PointCloud(pts[1:]))
    # each extent is finite, the diagonal is not
    with pytest.raises(DegenerateCloudError, match=message):
        box_diagonal(np.zeros(3), np.full(3, 1.5e308))


@pytest.mark.parametrize(
    "lo, hi",
    [(5e-324, 2.5e-323), (1.5e-323, 5e-323), (1e308, 1.3e308), (-1.3e308, -1e308), (0.1, 0.7)],
)
def test_translation_is_the_rounded_midpoint_of_the_box(lo, hi):
    # on subnormal bounds, halving each one can round where their sum does
    # not; on large bounds of one sign, the sum overflows
    pts = np.array([[lo, 0.0, 0.0], [hi, 1.0, 1.0]])
    _, t = normalize_unit_bbox(PointCloud(pts))
    want = [float((Fraction(a) + Fraction(b)) / 2) for a, b in zip(*pts)]
    assert t.translation.tolist() == want
