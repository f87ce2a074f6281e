"""Acceptance gate: one test per criterion, pinned tolerances, one printed
pass/fail line each. Benchmark-scale training numbers need GPU-hours and
are out of scope; these checks are property- and oracle-based, plus one
directional two-phase fitting experiment at full default settings."""

import math
import time

import numpy as np

from geocd import (
    PointCloud,
    chamfer,
    hausdorff,
    f1_at,
    knn_adjacency,
    merge,
    normalize_pair,
    propagate,
    softmin,
)
from geocd.cli import main
from geocd.fit import FitConfig, ShapeSpec, fit, noisy_copy, sample_shape
from geocd.geodesic import MaskConfig
from geocd.oracle import d_xy, d_yx, dense
from geocd.verify import check_gradients, check_propagation
from conftest import random_cloud, random_normalized_pair


def _report(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_c01_oracle_equivalence():
    t0 = time.perf_counter()
    out = check_propagation(trials=50, seed=101, size_range=(8, 32), ks=(2, 3, 5), hops_range=(1, 4), tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = out["mismatch_count"] == 0 and out["max_abs_diff"] <= 1e-9 and elapsed < 60
    _report(1, "oracle equivalence", ok,
            f"(50 trials, max abs diff {out['max_abs_diff']:.2e}, {elapsed:.1f}s)")


def test_c02_gradient_check():
    t0 = time.perf_counter()
    out = check_gradients(trials=20, seed=202, n=16, k=3, hops=2, step=1e-5, rel_tol=1e-4)
    elapsed = time.perf_counter() - t0
    ok = (
        out["matched"] >= 0.95 * out["components"]
        and out["skipped_tie_components"] <= 0.05 * out["components"]
        and elapsed < 120
    )
    _report(2, "analytic vs finite-difference gradients", ok,
            f"({out['matched']}/{out['components']} matched, "
            f"{out['skipped_tie_components']} tie-flips skipped, "
            f"worst rel {out['worst_rel_error']:.2e}, {elapsed:.1f}s)")


def test_c03_softmin_bounds():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10_000):
        row = rng.uniform(0.0, 2.0, int(rng.integers(1, 65)))
        s = softmin(row)
        m = row.min()
        worst = max(worst, s - m, (m - math.log(row.size)) - s)
    ok = worst <= 1e-12
    _report(3, "softmin bounds on 10,000 rows", ok, f"(worst violation {worst:.2e})")


def test_c04_minplus_monotonicity():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(20):
        pred, gt = random_normalized_pair(rng, int(rng.integers(8, 25)), int(rng.integers(8, 25)))
        z = merge(pred, gt)
        geo = propagate(z, knn_adjacency(z, 3), n_hops=4)
        for h in range(1, geo.hops_used):
            ok = ok and bool((dense(geo.hops[h]) <= dense(geo.hops[h - 1])).all())
    _report(4, "elementwise monotonicity across hops", ok, "(20 instances, exact)")


def test_c05_masking_soundness():
    threshold = 0.05
    ok = True
    worst_gap = 0.0
    agreeing_entries = 0
    for trial in range(20):
        if trial % 2 == 0:
            # near-coincident twins make the mask fire heavily
            gt_raw = sample_shape(ShapeSpec("sphere", 16, seed=trial))
            pred_raw = noisy_copy(gt_raw, 0.01, seed=trial + 700)
            pred, gt, _ = normalize_pair(pred_raw, gt_raw)
        else:
            rng = np.random.default_rng(500 + trial)
            pred, gt = random_normalized_pair(rng, 16, 16)
        z = merge(pred, gt)
        adj = knn_adjacency(z, 5)
        masked = propagate(z, adj, 3, MaskConfig(enabled=True, threshold=threshold))
        plain = propagate(z, adj, 3)
        for m, p in ((d_xy(masked), d_xy(plain)), (d_yx(masked), d_yx(plain))):
            ok = ok and bool((m >= p - 1e-15).all())
            small = p <= threshold
            if small.any():
                worst_gap = max(worst_gap, float(np.abs(m[small] - p[small]).max()))
                agreeing_entries += int(small.sum())
    ok = ok and worst_gap < 1e-9
    _report(5, "masking soundness", ok,
            f"(20 instances, threshold {threshold}, {agreeing_entries} sub-threshold "
            f"entries agree, worst gap {worst_gap:.2e})")


def test_c06_metric_identities():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(10):
        c = random_cloud(rng, int(rng.integers(4, 40)))
        ok = ok and chamfer(c, c).value == 0.0
        ok = ok and hausdorff(c, c) == 0.0
        ok = ok and f1_at(c, c).f1 == 1.0
    exact = 0
    for _ in range(20):
        p = random_cloud(rng, int(rng.integers(2, 129)))
        q = random_cloud(rng, int(rng.integers(2, 129)))
        hd = hausdorff(p, q)
        ok = ok and hd == hausdorff(q, p)
        brute = 0.0
        for side_a, side_b in ((p.points, q.points), (q.points, p.points)):
            worst = 0.0
            for x in side_a:
                best = math.inf
                for y in side_b:
                    dx, dy, dz = x[0] - y[0], x[1] - y[1], x[2] - y[2]
                    best = min(best, math.sqrt((dx * dx + dy * dy) + dz * dz))
                worst = max(worst, best)
            brute = max(brute, worst)
        exact += hd == brute
        ok = ok and hd == brute
    _report(6, "metric identities and brute-force equality", ok,
            f"({exact}/20 pairs bit-exact)")


def test_c07_fixture_regression():
    pred = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    gt = PointCloud(np.array([[0.4, 0.0, 0.0], [0.4, 0.3, 0.0]]))
    z = merge(pred, gt)
    adj = knn_adjacency(z, 1)
    hop1 = propagate(z, adj, 1)
    hop2 = propagate(z, adj, 2)
    ok = (
        d_xy(hop1)[0, 1] == 1.0
        and abs(d_xy(hop2)[0, 0] - 0.4) < 1e-9
        and abs(d_xy(hop2)[0, 1] - 0.7) < 1e-9
    )
    _report(7, "L-shaped fixture", ok,
            f"(hop1 sentinel {d_xy(hop1)[0, 1]}, hop2 walk {d_xy(hop2)[0, 1]:.12f})")


def test_c08_directional_two_phase_fit():
    t0 = time.perf_counter()
    gt_raw = sample_shape(ShapeSpec("hemisphere", 512, seed=42))
    init_raw = noisy_copy(gt_raw, 0.05, seed=43)
    init, gt, _ = normalize_pair(init_raw, gt_raw)
    cfg = FitConfig(seed=42)  # all defaults: 200 CD + 20 GeoCD, lr 5e-4, k=5, 2 hops
    trace = fit(init, gt, cfg)
    elapsed = time.perf_counter() - t0

    geo_rows = [s for s in trace.steps if s.phase == "geocd"]
    loss_start = geo_rows[0].loss
    loss_end = trace.final["geocd_loss"]
    f1_after_cd = geo_rows[0].f1
    f1_final = trace.final["f1"]

    a = loss_end < loss_start
    b = f1_final >= f1_after_cd - 0.01
    c = elapsed < 600
    ok = a and b and c
    _report(8, "directional two-phase fit", ok,
            f"(a: geocd loss {loss_start:.6f} -> {loss_end:.6f} [{'ok' if a else 'violated'}], "
            f"b: F1 {f1_after_cd:.4f} -> {f1_final:.4f}, bound {f1_after_cd - 0.01:.4f} "
            f"[{'ok' if b else 'violated'}], c: {elapsed:.0f}s [{'ok' if c else 'violated'}])")


def test_c09_cli_fit_determinism(tmp_path):
    argv = [
        "fit", "--target", "hemisphere", "--n-points", "96",
        "--steps-cd", "25", "--steps-geocd", "4", "--seed", "42",
        "--deterministic", "--quiet", "--out-dir",
    ]
    assert main(argv + [str(tmp_path / "r1")]) == 0
    assert main(argv + [str(tmp_path / "r2")]) == 0
    t1 = (tmp_path / "r1" / "trace.csv").read_bytes()
    t2 = (tmp_path / "r2" / "trace.csv").read_bytes()
    ok = t1 == t2 and len(t1) > 0
    _report(9, "deterministic fit traces", ok, f"({len(t1)} bytes, bitwise equal)")


def test_c10_sweep_shapes(tmp_path, capsys):
    base = [
        "--target", "hemisphere", "--n-points", "48", "--noise", "0.05",
        "--steps-cd", "10", "--steps-geocd", "2", "--seed", "7",
    ]
    k_csv = tmp_path / "k.csv"
    assert main(["sweep", "--axis", "k", "--values", "3,5,10", *base, "--out", str(k_csv)]) == 0
    k_rows = [r.split(",") for r in k_csv.read_text().splitlines()[1:]]
    finite = all(
        np.isfinite([float(r[2]), float(r[3]), float(r[4])]).all() and r[-1] == ""
        for r in k_rows
    )

    hops_csv = tmp_path / "hops.csv"
    assert main(
        ["sweep", "--axis", "hops", "--values", "1,2,3", *base, "--no-mask", "--out", str(hops_csv)]
    ) == 0
    hops_rows = [r.split(",") for r in hops_csv.read_text().splitlines()[1:]]
    cross = [float(r[6]) for r in hops_rows]
    nonincreasing = all(a >= b - 1e-15 for a, b in zip(cross, cross[1:]))

    ok = len(k_rows) == 3 and finite and nonincreasing
    _report(10, "sweep grids", ok,
            f"(k rows finite: {finite}; mean cross distance over hops: "
            f"{', '.join(f'{c:.4f}' for c in cross)})")
