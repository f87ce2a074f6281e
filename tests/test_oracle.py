import numpy as np
import pytest

from geocd import (
    PointCloud,
    chamfer,
    dijkstra_all_pairs,
    finite_diff_grad,
    geocd,
    GeoCdConfig,
    hop_bounded_shortest_paths,
    knn_adjacency,
    merge,
    propagate,
)
from geocd.verify import check_gradients, check_propagation, run_verification
from geocd.oracle import dense, stable_sort_knn_mask
from conftest import fault_the_reference, random_normalized_pair


def cloud(*pts):
    return PointCloud(np.array(pts, dtype=np.float64))


def test_knn_reference_lists_no_point_as_its_own_neighbour_when_lengths_overflow():
    # four points in the unit cube and sixteen scaled by 1e200: every length
    # to or between the far points overflows to +inf, and each row's own
    # point still ranks after those
    rng = np.random.default_rng(4)
    pts = np.vstack([rng.random((4, 3)), rng.random((16, 3)) * 1e200])
    with np.errstate(over="ignore", invalid="ignore"):
        mask, d = stable_sort_knn_mask(pts, 6, False)
    assert np.isnan(d.diagonal()).all()
    want = np.zeros((20, 20), dtype=bool)
    for r in range(20):
        # the near points first, then the far ones by index, ties to the lower
        near = [c for c in range(4) if c != r] if r < 4 else []
        far = [c for c in range(20) if c != r and c not in near and (r >= 4 or c >= 4)]
        want[r, (near + far)[:6]] = True
    assert np.array_equal(mask, want)


def test_single_hop_returns_adjacency(rng):
    pred, gt = random_normalized_pair(rng, 8, 8)
    z = merge(pred, gt)
    adj = knn_adjacency(z, 3)
    assert np.array_equal(hop_bounded_shortest_paths(adj, 1), dense(adj))


def test_l_shape_two_hops():
    z = merge(cloud([0, 0, 0]), cloud([0.4, 0, 0], [0.4, 0.3, 0]))
    adj = knn_adjacency(z, 1)
    walks = hop_bounded_shortest_paths(adj, 2)
    assert walks[0, 2] == pytest.approx(0.7, abs=1e-12)


def test_hop_bound_is_respected():
    # decreasing gaps make each point's 1-NN the next one: a forward chain
    # 0 -> 1 -> 2 -> 3 that needs three hops to link the ends
    pts = [[0.0, 0, 0], [0.3, 0, 0], [0.55, 0, 0], [0.75, 0, 0]]
    z = merge(cloud(*pts[:2]), cloud(*pts[2:]))
    adj = knn_adjacency(z, 1)
    assert hop_bounded_shortest_paths(adj, 2)[0, 3] == 1.0
    assert hop_bounded_shortest_paths(adj, 3)[0, 3] == pytest.approx(0.75, abs=1e-12)


def test_bellman_ford_converges_to_dijkstra(rng):
    for _ in range(3):
        pred, gt = random_normalized_pair(rng, 10, 9)
        z = merge(pred, gt)
        adj = knn_adjacency(z, 3)
        full = hop_bounded_shortest_paths(adj, z.size - 1)
        assert np.abs(full - dijkstra_all_pairs(adj)).max() < 1e-12


def test_oracle_matches_propagation(rng):
    for _ in range(5):
        n = int(rng.integers(8, 33))
        m = int(rng.integers(8, 33))
        pred, gt = random_normalized_pair(rng, n, m)
        z = merge(pred, gt)
        adj = knn_adjacency(z, int(rng.choice([2, 3, 5])))
        hops = int(rng.integers(1, 5))
        got = dense(propagate(z, adj, hops).hops[-1])
        assert np.abs(got - hop_bounded_shortest_paths(adj, hops)).max() < 1e-9


def test_finite_diff_on_chamfer_closed_form():
    p, q = cloud([0, 0, 0]), cloud([1, 0, 0])
    grad, flagged = finite_diff_grad(lambda pts: chamfer(PointCloud(pts), q).value, p.points)
    assert np.allclose(grad, [[-4.0, 0.0, 0.0]], atol=1e-6)
    assert not flagged.any()


def test_finite_diff_on_geocd_singleton():
    p, q = cloud([0.1, 0.2, 0.3]), cloud([0.4, 0.2, 0.3])
    cfg = GeoCdConfig(k=1, n_hops=2)
    grad, _ = finite_diff_grad(lambda pts: geocd(PointCloud(pts), q, cfg).value, p.points)
    expected = 2.0 * (p.points - q.points) / 0.3
    assert np.allclose(grad, expected, atol=1e-6)


def test_finite_diff_flags_structure_changes():
    # the two ground-truth points tie as nearest neighbour of p along x, so
    # perturbing p.x flips the kNN edge and the coordinate must be flagged
    p = cloud([0.0, 0.0, 0.0])
    q = cloud([0.5, 0.0, 0.0], [-0.5, 0.0, 0.0])
    cfg = GeoCdConfig(k=1, n_hops=1)

    def sig(pts):
        z = merge(PointCloud(pts), q)
        return knn_adjacency(z, 1).key.tobytes()

    _, flagged = finite_diff_grad(
        lambda pts: geocd(PointCloud(pts), q, cfg).value, p.points, signature_fn=sig
    )
    assert flagged[0, 0]


def test_check_propagation_clean(rng):
    out = check_propagation(trials=5, seed=11)
    assert out["mismatch_count"] == 0
    assert out["max_abs_diff"] <= 1e-9


def test_check_propagation_detects_injected_fault(monkeypatch):
    fault_the_reference(monkeypatch)
    out = check_propagation(trials=2, seed=1)
    assert out["mismatch_count"] > 0
    assert out["worst_offenders"]


def test_check_gradients_clean():
    out = check_gradients(trials=2, seed=3)
    assert out["matched"] == out["components"] - out["skipped_tie_components"]
    assert out["skipped_tie_components"] <= 0.05 * out["components"]


def test_run_verification_roundtrip(monkeypatch):
    res = run_verification(trials=3, seed=2, grad_trials=1)
    assert list(res) == ["passed", "oracle", "propagation", "gradients", "graph", "metrics"]
    assert res["passed"]
    assert res["oracle"]["mismatch_count"] == 0
    fault_the_reference(monkeypatch)
    bad = run_verification(trials=2, seed=2, grad_trials=0)
    assert not bad["passed"]
