import math

import numpy as np
import pytest

from geocd import DegenerateCloudError, PointCloud, chamfer, evaluate, f1_at, hausdorff
from geocd.metrics import f1_threshold, report_from_pass
from conftest import random_cloud


def cloud(*pts):
    return PointCloud(np.array(pts, dtype=np.float64))


def brute_force_hausdorff(p, q):
    """Scalar double loop; the production value must match it exactly."""

    def directed(a, b):
        worst = 0.0
        for x in a:
            best = math.inf
            for y in b:
                dx, dy, dz = x[0] - y[0], x[1] - y[1], x[2] - y[2]
                best = min(best, math.sqrt((dx * dx + dy * dy) + dz * dz))
            worst = max(worst, best)
        return worst

    return max(directed(p.points, q.points), directed(q.points, p.points))


def test_hausdorff_identical():
    c = cloud([0, 0, 0], [1, 2, 3])
    assert hausdorff(c, c) == 0.0


def test_hausdorff_hand_example():
    p = cloud([0, 0, 0])
    q = cloud([0, 0, 0], [1, 0, 0])
    assert hausdorff(p, q) == 1.0  # the q->p direction dominates


def test_hausdorff_matches_brute_force_exactly(rng):
    for _ in range(5):
        p = random_cloud(rng, int(rng.integers(2, 65)))
        q = random_cloud(rng, int(rng.integers(2, 65)))
        assert hausdorff(p, q) == brute_force_hausdorff(p, q)


def test_hausdorff_symmetry_and_directed_bound(rng):
    p, q = random_cloud(rng, 30), random_cloud(rng, 25)
    hd = hausdorff(p, q)
    assert hd == hausdorff(q, p)
    diffs = p.points[:, None, :] - q.points[None, :, :]
    d = np.sqrt((diffs**2).sum(-1))
    assert hd >= d.min(axis=1).max() and hd >= d.min(axis=0).max()


def test_f1_identical_clouds(rng):
    c = random_cloud(rng, 20)
    f = f1_at(c, c)
    assert (f.precision, f.recall, f.f1) == (1.0, 1.0, 1.0)


def test_f1_hand_fixture():
    # tau = 0.01 * sqrt(0.75); one match per side out of two
    p = cloud([0, 0, 0], [0.5, 0, 0])
    q = cloud([0, 0, 0], [0.5, 0.5, 0.5])
    f = f1_at(p, q, 0.01)
    assert f.threshold_used == pytest.approx(0.01 * math.sqrt(0.75), abs=1e-15)
    assert f.precision == 0.5
    assert f.recall == 0.5
    assert f.f1 == 0.5


def test_f1_no_matches_is_zero_not_nan():
    p = cloud([10, 10, 10], [11, 10, 10])
    q = cloud([0, 0, 0], [1, 0, 0])
    f = f1_at(p, q, 0.01)
    assert (f.precision, f.recall, f.f1) == (0.0, 0.0, 0.0)


def test_f1_monotone_in_tau(rng):
    p, q = random_cloud(rng, 40), random_cloud(rng, 40)
    taus = [0.001, 0.01, 0.05, 0.2, 1.0]
    scores = [f1_at(p, q, t).f1 for t in taus]
    assert all(a <= b + 1e-15 for a, b in zip(scores, scores[1:]))


def test_f1_degenerate_gt_bbox():
    p = cloud([0, 0, 0])
    q = cloud([1, 1, 1], [1, 1, 1])
    with pytest.raises(DegenerateCloudError):
        f1_at(p, q)


@pytest.mark.parametrize("diag_source", ["gt", "union"])
@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_f1_threshold_at_scales_whose_squares_overflow_or_underflow(scale, diag_source):
    rng = np.random.default_rng(1)
    p, q = rng.random((50, 3)), rng.random((50, 3))
    want = f1_threshold(PointCloud(p), PointCloud(q), 0.01, diag_source) * scale
    got = f1_threshold(PointCloud(p * scale), PointCloud(q * scale), 0.01, diag_source)
    assert got == pytest.approx(want, rel=1e-14)


def test_f1_threshold_beyond_the_largest_float():
    with pytest.raises(DegenerateCloudError, match="exceeds the largest float64"):
        f1_threshold(cloud([-1e308, 0, 0]), cloud([1e308, 0, 0]), 0.01, "union")


def test_f1_union_diagonal_option():
    p = cloud([0, 0, 0], [2, 0, 0])
    q = cloud([0.01, 0, 0], [1.99, 0, 0])
    by_gt = f1_at(p, q, 0.01, diag_source="gt")
    by_union = f1_at(p, q, 0.01, diag_source="union")
    assert by_union.threshold_used > by_gt.threshold_used


def test_metrics_translation_invariance(rng):
    p, q = random_cloud(rng, 25), random_cloud(rng, 30)
    shift = np.array([5.0, -2.0, 9.0])
    a = evaluate(p, q)
    b = evaluate(PointCloud(p.points + shift), PointCloud(q.points + shift))
    assert a.cd == pytest.approx(b.cd, abs=1e-9)
    assert a.hd == pytest.approx(b.hd, abs=1e-9)
    assert a.f1 == pytest.approx(b.f1, abs=1e-9)


def test_report_f1_formula(rng):
    p, q = random_cloud(rng, 15), random_cloud(rng, 18)
    r = evaluate(p, q, tau_fraction=0.3)
    if r.precision + r.recall > 0:
        assert r.f1 == pytest.approx(
            2 * r.precision * r.recall / (r.precision + r.recall), abs=1e-15
        )


@pytest.mark.parametrize("diag", ["gt", "union"])
def test_report_from_the_chamfer_pass_is_evaluate(rng, diag):
    for n, m in ((1, 2), (7, 30), (130, 65)):
        p, q = random_cloud(rng, n), random_cloud(rng, m)
        rep = chamfer(p, q, with_grad=True)
        tau = f1_threshold(p, q, 0.05, diag)
        met = report_from_pass(rep.diagnostics["sq_pred"], rep.diagnostics["sq_gt"], tau)
        assert met == evaluate(p, q, 0.05, diag)
        assert met.cd == rep.value
