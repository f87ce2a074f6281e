import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocd import (
    GeoCdConfig,
    KTooLargeError,
    MaskConfig,
    PointCloud,
    chamfer,
    finite_diff_grad,
    geocd,
    knn_adjacency,
    merge,
    normalize_pair,
    propagate,
    softmin,
)
from geocd.distances import nearest
from geocd.geodesic import NO_VIA, cross_width, unroll
from geocd.loss import DEGENERATE_EDGE, _softmin_rows
from geocd.verify import propagation_signature
from conftest import random_normalized_pair


def cloud(*pts):
    return PointCloud(np.array(pts, dtype=np.float64))


# ---------------------------------------------------------------- chamfer


def test_chamfer_identical_clouds(rng):
    c = PointCloud(rng.random((20, 3)))
    rep = chamfer(c, c, with_grad=True)
    assert rep.value == 0.0
    assert np.array_equal(rep.grad_pred, np.zeros((20, 3)))


def test_chamfer_single_pair_closed_form():
    rep = chamfer(cloud([0, 0, 0]), cloud([1, 0, 0]), with_grad=True)
    assert rep.value == pytest.approx(2.0, abs=1e-15)  # 1 + 1, squared distances
    assert np.allclose(rep.grad_pred, [[-4.0, 0.0, 0.0]])
    assert rep.grad_gt is None


def add_at_chamfer_grad(p, q):
    """Reference: the point's own term, then np.add.at over the target points."""
    j_star, _, i_star, _ = nearest(p, q)
    n, m = p.shape[0], q.shape[0]
    grad = (2.0 / n) * (p - q[j_star])
    np.add.at(grad, i_star, (2.0 / m) * (p[i_star] - q))
    return grad


def test_chamfer_grad_matches_add_at_reference():
    rng = np.random.default_rng(5)
    pairs = [
        (cloud([0.3, 0.1, 0.2]), cloud([0.5, 0.5, 0.5])),  # 1-point clouds
        (cloud([0.3, 0.1, 0.2]), PointCloud(rng.random((9, 3)))),
        (PointCloud(rng.random((9, 3))), cloud([0.3, 0.1, 0.2])),
    ]
    for _ in range(6):
        n, m = (int(v) for v in rng.integers(2, 30, 2))
        # multiples of 1/4: exact ties, duplicate points
        pairs.append(tuple(PointCloud(rng.integers(0, 3, (s, 3)) / 4.0) for s in (n, m)))
        p = rng.random((n, 3))
        p[rng.integers(0, n, n // 2)] = p[0]  # duplicate points
        pairs.append((PointCloud(p), PointCloud(rng.random((m, 3)))))
        # every target point close to one predicted point, which claims them all
        pairs.append((PointCloud(p), PointCloud(p[1] + 1e-3 * rng.random((m, 3)))))
    for pred, gt in pairs:
        rep = chamfer(pred, gt, with_grad=True)
        assert np.array_equal(rep.grad_pred, add_at_chamfer_grad(pred.points, gt.points))


def test_chamfer_hand_example():
    rep = chamfer(cloud([0, 0, 0], [2, 0, 0]), cloud([0, 0, 0]))
    assert rep.value == pytest.approx(2.0, abs=1e-15)  # (0+4)/2 + 0/1


def test_chamfer_grad_matches_finite_differences(rng):
    pred, gt = random_normalized_pair(rng, 12, 15)
    rep = chamfer(pred, gt, with_grad=True)
    fd, _ = finite_diff_grad(lambda pts: chamfer(PointCloud(pts), gt).value, pred.points)
    assert np.abs(rep.grad_pred - fd).max() < 1e-6


# ---------------------------------------------------------------- softmin


def test_softmin_singleton():
    assert softmin([0.3]) == pytest.approx(0.3, abs=1e-15)


def test_softmin_two_zeros():
    assert softmin([0.0, 0.0]) == pytest.approx(-math.log(2.0), abs=1e-15)


def test_softmin_mixed_row():
    expected = -math.log(math.exp(-0.2) + 2.0 * math.exp(-1.0))
    assert softmin([0.2, 1.0, 1.0]) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(-0.44115, abs=1e-5)


def test_softmin_shift_stability():
    # naive exp would overflow here; the max-shift keeps it finite
    assert softmin([-800.0, -799.0]) == pytest.approx(
        -800.0 - math.log(1.0 + math.exp(-1.0)), abs=1e-12
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=64)
)
def test_softmin_bounds(row):
    s = softmin(row)
    assert s <= min(row) + 1e-12
    assert s >= min(row) - math.log(len(row)) - 1e-12


# ---------------------------------------------------------------- geocd


def test_geocd_singleton_pair_closed_form():
    p, q = cloud([0.1, 0.2, 0.3]), cloud([0.4, 0.2, 0.3])
    rep = geocd(p, q, GeoCdConfig(k=1, n_hops=2), with_grad=True, with_gt_grad=True)
    d = 0.3
    assert rep.value == pytest.approx(2.0 * d, abs=1e-12)
    expected = 2.0 * (p.points - q.points) / d
    assert np.allclose(rep.grad_pred, expected, atol=1e-12)
    assert np.allclose(rep.grad_gt, -expected, atol=1e-12)


def test_geocd_l_shape_fixture():
    # hand Dijkstra gives the cross row [0.4, 0.7]; the reverse rows stay at
    # the sentinel because nothing links back to the lone predicted point
    pred = cloud([0.0, 0.0, 0.0])
    gt = cloud([0.4, 0.0, 0.0], [0.4, 0.3, 0.0])
    rep = geocd(pred, gt, GeoCdConfig(k=1, n_hops=2), with_grad=True)
    expected = -math.log(math.exp(-0.4) + math.exp(-0.7)) + 1.0
    assert rep.value == pytest.approx(expected, abs=1e-9)
    assert rep.diagnostics["sentinel_fraction"] == pytest.approx(0.5)
    assert rep.diagnostics["hops_used"] == 2
    # both walks leave the predicted point along +x, with total weight 1
    assert np.allclose(rep.grad_pred, [[-1.0, 0.0, 0.0]], atol=1e-12)


def test_geocd_hops_matter_on_l_shape():
    pred = cloud([0.0, 0.0, 0.0])
    gt = cloud([0.4, 0.0, 0.0], [0.4, 0.3, 0.0])
    one = geocd(pred, gt, GeoCdConfig(k=1, n_hops=1))
    two = geocd(pred, gt, GeoCdConfig(k=1, n_hops=2))
    assert one.value != two.value
    assert two.diagnostics["mean_cross_distance"] < one.diagnostics["mean_cross_distance"]


def test_geocd_identical_clouds(rng):
    c = PointCloud(rng.random((12, 3)) * 0.4)
    rep = chamfer(c, c)
    assert rep.value == 0.0
    geo = geocd(c, c, GeoCdConfig(k=3, n_hops=2))
    # every cross row holds a zero entry (the duplicate), so each softmin is
    # negative and the loss is strictly below zero, not zero
    assert geo.value < 0.0


def test_geocd_identical_singleton_zero_grad():
    c = cloud([0.25, 0.5, 0.75])
    rep = geocd(c, c, GeoCdConfig(k=1, n_hops=1), with_grad=True)
    assert np.array_equal(rep.grad_pred, np.zeros((1, 3)))
    assert rep.diagnostics["degenerate_edges"] == 2  # both zero-length cross edges


def test_geocd_value_matches_dense_softmin():
    # the closed-form sentinel mass equals the softmin over the full dense rows
    for seed in range(3):
        pred, gt = random_normalized_pair(np.random.default_rng(seed), 14, 11)
        z = merge(pred, gt)
        for mask in (False, True):
            for symmetrize in (False, True):
                cfg = GeoCdConfig(k=3, n_hops=3, symmetrize=symmetrize, mask=MaskConfig(mask))
                adj = knn_adjacency(z, cfg.k, symmetrize)
                geo = propagate(z, adj, cfg.n_hops, cfg.mask)
                expected = np.mean([softmin(r) for r in geo.d_xy]) + np.mean(
                    [softmin(r) for r in geo.d_yx]
                )
                assert abs(geocd(pred, gt, cfg).value - expected) <= 1e-12


def test_geocd_value_symmetry(rng):
    pred, gt = random_normalized_pair(rng, 14, 9)
    cfg = GeoCdConfig(k=4, n_hops=2)
    assert geocd(pred, gt, cfg).value == pytest.approx(
        geocd(gt, pred, cfg).value, rel=1e-12
    )


def test_geocd_translation_invariance(rng):
    base_pred = PointCloud(rng.random((10, 3)))
    base_gt = PointCloud(rng.random((10, 3)))
    cfg = GeoCdConfig(k=3, n_hops=2)
    offset = np.array([12.5, -3.0, 40.0])

    def run(shift):
        p, g, _ = normalize_pair(
            PointCloud(base_pred.points + shift), PointCloud(base_gt.points + shift)
        )
        return geocd(p, g, cfg, with_grad=True)

    a, b = run(0.0), run(offset)
    assert a.value == pytest.approx(b.value, abs=1e-9)
    assert np.abs(a.grad_pred - b.grad_pred).max() < 1e-9


def test_geocd_grad_matches_finite_differences(rng):
    skipped = 0
    total = 0
    for _ in range(2):
        pred, gt = random_normalized_pair(rng, 16, 16)
        cfg = GeoCdConfig(k=3, n_hops=2)
        rep = geocd(pred, gt, cfg, with_grad=True)
        fd, flagged = finite_diff_grad(
            lambda pts: geocd(PointCloud(pts), gt, cfg).value,
            pred.points,
            step=1e-5,
            signature_fn=lambda pts: propagation_signature(pts, gt, cfg),
        )
        rel = np.abs(rep.grad_pred - fd) / np.maximum.reduce(
            [np.abs(rep.grad_pred), np.abs(fd), np.full(fd.shape, 1e-6)]
        )
        assert (rel[~flagged] < 1e-4).all()
        skipped += flagged.sum()
        total += rel.size
    assert skipped < 0.05 * total


def test_geocd_gt_gradients_off_by_default(rng):
    pred, gt = random_normalized_pair(rng, 8, 8)
    rep = geocd(pred, gt, GeoCdConfig(k=3), with_grad=True)
    assert rep.grad_pred is not None
    assert rep.grad_gt is None
    assert rep.diagnostics["timings"]["gradient"] > 0.0


def test_geocd_k_too_large_propagates():
    with pytest.raises(KTooLargeError):
        geocd(cloud([0, 0, 0]), cloud([1, 0, 0]), GeoCdConfig(k=5))


def batched_path_gradients(geo, starts, ends, weights):
    """Reference: follow the walks one hop batch at a time, two np.add.at each."""
    z, n = geo.merged.points, geo.merged.size
    grad = np.zeros_like(z)
    degenerate = 0
    idx, cur = np.arange(starts.size), ends
    for hop in reversed(geo.hops):
        via = hop.via[hop.find(starts[idx] * n + cur)[0]]
        direct = via == NO_VIA
        a, b, w = np.where(direct, starts[idx], via), cur, weights[idx]
        d = z[a] - z[b]
        length = np.sqrt((d * d).sum(axis=1))
        ok = length > DEGENERATE_EDGE
        unit = np.zeros_like(d)
        unit[ok] = d[ok] / length[ok, None]
        contrib = w[:, None] * unit
        np.add.at(grad, a, contrib)
        np.add.at(grad, b, -contrib)
        degenerate += int((~ok).sum())
        idx, cur = idx[~direct], via[~direct]
    return grad, degenerate


def masked_bincount_path_gradients(geo, starts, ends, weights):
    """Reference: the unrolled edges, boolean-masked contributions, np.bincount."""
    z = geo.merged.points
    walk, a, b = unroll(geo, starts, ends)
    d = z[a] - z[b]
    length = np.sqrt((d * d).sum(axis=1))
    ok = length > DEGENERATE_EDGE
    contrib = np.zeros_like(d)
    contrib[ok] = weights[walk[ok], None] * (d[ok] / length[ok, None])
    n = z.shape[0]
    grad = np.column_stack([np.bincount(a, c, n) - np.bincount(b, c, n) for c in contrib.T])
    return grad, int((~ok).sum())


def test_geocd_grad_matches_batched_scatter():
    rng = np.random.default_rng(11)
    degenerate = 0
    for trial in range(36):
        n, m = (int(v) for v in rng.integers(2, 30, 2))
        kind = ("random", "lattice", "duplicate")[trial % 3]
        if kind == "lattice":  # multiples of 1/8: exact ties and coincident points
            pred, gt = (PointCloud(rng.integers(0, 5, (s, 3)) / 8.0) for s in (n, m))
        else:
            p, q = rng.random((n, 3)), rng.random((m, 3))
            if kind == "duplicate":  # zero-length edges
                p[rng.integers(0, n, n // 2)] = p[0]
                q[: m // 2] = p[rng.integers(0, n, m // 2)]
            pred, gt, _ = normalize_pair(PointCloud(p), PointCloud(q))
        cfg = GeoCdConfig(
            k=int(rng.integers(1, min(8, n + m - 1) + 1)),
            n_hops=int(rng.integers(1, 5)),
            symmetrize=bool(trial % 2),
            mask=MaskConfig(enabled=bool(trial % 4 >= 2)),
        )
        rep = geocd(pred, gt, cfg, with_grad=True, with_gt_grad=True)
        z = merge(pred, gt)
        adj = knn_adjacency(z, cfg.k, cfg.symmetrize)
        geo = propagate(z, adj, cfg.n_hops, cfg.mask)
        src, dst, d = geo.cross()
        _, w = _softmin_rows(src, d, cross_width(z))
        weights = w / np.where(src < n, n, m)
        ref, ref_degenerate = batched_path_gradients(geo, src, dst, weights)
        got = np.vstack([rep.grad_pred, rep.grad_gt])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert rep.diagnostics["degenerate_edges"] == ref_degenerate
        exact, exact_degenerate = masked_bincount_path_gradients(geo, src, dst, weights)
        assert np.array_equal(got, exact)
        assert exact_degenerate == ref_degenerate
        degenerate += ref_degenerate
    assert degenerate > 0
