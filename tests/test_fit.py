import dataclasses
import importlib

import numpy as np
import pytest

from geocd import GeoCdConfig, chamfer, distances, graph, normalize_pair
from geocd.fit import (
    Adam,
    FitConfig,
    ShapeSpec,
    TORUS_MAJOR,
    TORUS_MINOR,
    SPHERE_RADIUS,
    fit,
    noisy_copy,
    sample_shape,
)
from conftest import record_search


def normalized_problem(kind="hemisphere", n=64, sigma=0.05, seed=3):
    gt_raw = sample_shape(ShapeSpec(kind, n, seed=seed))
    init_raw = noisy_copy(gt_raw, sigma, seed + 50)
    init, gt, _ = normalize_pair(init_raw, gt_raw)
    return init, gt


# ---------------------------------------------------------------- shapes


def test_sphere_points_on_surface():
    c = sample_shape(ShapeSpec("sphere", 200, seed=1))
    radii = np.linalg.norm(c.points, axis=1)
    assert np.abs(radii - SPHERE_RADIUS).max() < 1e-9


def test_hemisphere_upper_half():
    c = sample_shape(ShapeSpec("hemisphere", 150, seed=2))
    assert (c.points[:, 2] >= 0).all()
    assert np.abs(np.linalg.norm(c.points, axis=1) - SPHERE_RADIUS).max() < 1e-9


def test_torus_implicit_equation():
    c = sample_shape(ShapeSpec("torus", 300, seed=3))
    x, y, z = c.points.T
    residual = (np.sqrt(x * x + y * y) - TORUS_MAJOR) ** 2 + z * z - TORUS_MINOR**2
    assert np.abs(residual).max() < 1e-9


def test_bent_plane_profile():
    c = sample_shape(ShapeSpec("bent-plane", 100, seed=4))
    x = c.points[:, 0]
    assert np.abs(c.points[:, 2] - 0.3 * np.sin(np.pi * x)).max() < 1e-12


def test_sampler_determinism():
    spec = ShapeSpec("torus", 64, noise_sigma=0.02, seed=77)
    a, b = sample_shape(spec), sample_shape(spec)
    assert np.array_equal(a.points, b.points)
    c = sample_shape(dataclasses.replace(spec, seed=78))
    assert not np.array_equal(a.points, c.points)


def test_noise_moves_points_off_surface():
    clean = sample_shape(ShapeSpec("sphere", 100, seed=5))
    noisy = sample_shape(ShapeSpec("sphere", 100, noise_sigma=0.05, seed=5))
    assert not np.array_equal(clean.points, noisy.points)


def test_shape_validation():
    with pytest.raises(ValueError):
        sample_shape(ShapeSpec("cube", 10))
    with pytest.raises(ValueError):
        sample_shape(ShapeSpec("sphere", 3))
    with pytest.raises(ValueError, match="n_points must be >= 4, got 3"):
        sample_shape(ShapeSpec("sphere", 3))


@pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
def test_noise_sigma_must_be_non_negative_and_finite(sigma):
    message = f"noise sigma must be >= 0 and finite, got {sigma}"
    with pytest.raises(ValueError, match=message):
        sample_shape(ShapeSpec("sphere", 10, noise_sigma=sigma))
    with pytest.raises(ValueError, match=message):
        noisy_copy(sample_shape(ShapeSpec("sphere", 10)), sigma, seed=0)


# ---------------------------------------------------------------- adam


def test_adam_zero_gradient_is_identity():
    params = np.ones((4, 3))
    opt = Adam(params.shape, lr=0.1)
    out = opt.step(params, np.zeros_like(params))
    assert np.array_equal(out, params)


def test_adam_first_step_magnitude():
    params = np.zeros((2, 3))
    opt = Adam(params.shape, lr=0.01)
    out = opt.step(params, np.full_like(params, 7.0))
    # bias-corrected first step is lr * g/(|g| + eps), i.e. almost exactly lr
    assert np.allclose(out, -0.01, rtol=1e-6)


# ---------------------------------------------------------------- fit


def test_fit_no_steps_is_identity():
    init, gt = normalized_problem(n=32)
    cfg = FitConfig(steps_cd=0, steps_geocd=0, geo=GeoCdConfig(k=3))
    trace = fit(init, gt, cfg)
    assert trace.steps == []
    assert np.array_equal(trace.final_pred.points, init.points)
    assert trace.aborted is None


def test_fit_at_target_is_fixed_point():
    _, gt = normalized_problem(n=32)
    cfg = FitConfig(steps_cd=10, steps_geocd=0, geo=GeoCdConfig(k=3))
    trace = fit(gt, gt, cfg)
    assert all(s.loss == 0.0 for s in trace.steps)
    assert np.array_equal(trace.final_pred.points, gt.points)


def test_fit_reduces_chamfer():
    init, gt = normalized_problem(n=64, seed=9)
    cfg = FitConfig(steps_cd=60, steps_geocd=5, seed=9, geo=GeoCdConfig(k=5))
    trace = fit(init, gt, cfg)
    assert trace.final["cd"] < trace.steps[0].cd
    phases = [s.phase for s in trace.steps]
    assert phases.count("cd") == 60 and phases.count("geocd") == 5
    # step indices restart per phase and stay contiguous
    assert [s.step for s in trace.steps if s.phase == "geocd"] == list(range(5))


def test_fit_final_chamfer_loss_is_final_cd():
    init, gt = normalized_problem(n=40, seed=2)
    trace = fit(init, gt, FitConfig(steps_cd=5, steps_geocd=1, geo=GeoCdConfig(k=3)))
    assert trace.final["chamfer_loss"] == trace.final["cd"]
    assert trace.final["cd"] == chamfer(trace.final_pred, gt).value


def test_fit_makes_one_nearest_pass_per_step(monkeypatch):
    tracked, dense = [], []

    class Counting(distances.NearestTracker):
        def __call__(self, p, q):
            tracked.append(len(p))
            return super().__call__(p, q)

    def counting(*args, **kwargs):
        dense.append(args)
        return nearest(*args, **kwargs)

    nearest = distances.nearest
    monkeypatch.setattr(importlib.import_module("geocd.fit"), "NearestTracker", Counting)
    for name in ("geocd.distances", "geocd.loss", "geocd.metrics"):
        monkeypatch.setattr(importlib.import_module(name), "nearest", counting)
    init, gt = normalized_problem(n=40, seed=5)
    trace = fit(init, gt, FitConfig(steps_cd=7, steps_geocd=3, geo=GeoCdConfig(k=3)))
    assert trace.aborted is None and len(trace.steps) == 10
    # one search through the fit's tracker per Chamfer step (the loss's),
    # one per GeoCD step (its metrics) and one for the final metrics; no
    # one-pass nearest besides
    assert len(tracked) == 7 + 3 + 1
    assert dense == []


def test_fit_counts_the_rows_its_tracker_searched():
    init, gt = normalized_problem(n=48, seed=8)
    rows = init.size + gt.size
    trace = fit(init, gt, FitConfig(steps_cd=30, steps_geocd=2, geo=GeoCdConfig(k=3)))
    assert set(trace.search_rows) == {"cd", "geocd", "final"}
    assert trace.search_rows["cd"][1] == 30 * rows
    assert trace.search_rows["geocd"][1] == 2 * rows
    assert trace.search_rows["final"][1] == rows
    # the first search covers every row; most later rows keep their match
    searched, asked = trace.search_rows["cd"]
    assert rows <= searched < asked / 2
    # a phase that runs no step records nothing
    trace = fit(init, gt, FitConfig(steps_cd=3, steps_geocd=0))
    assert set(trace.search_rows) == {"cd", "final"}


def test_fit_counts_the_rows_its_graph_tracker_searched():
    init, gt = normalized_problem(n=48, seed=8)
    rows = init.size + gt.size
    trace = fit(init, gt, FitConfig(steps_cd=30, steps_geocd=10, geo=GeoCdConfig(k=3)))
    assert set(trace.graph_rows) == {"geocd", "final"}
    assert trace.graph_rows["geocd"][1] == 10 * rows
    assert trace.graph_rows["final"][1] == rows
    # the start searches every row; most later rows keep their neighbours,
    # the final report's graph among them
    searched, asked = trace.graph_rows["geocd"]
    assert rows <= searched < asked / 2
    assert trace.graph_rows["final"][0] < rows
    # without GeoCD steps, the final report's graph is the tracker's start
    trace = fit(init, gt, FitConfig(steps_cd=3, steps_geocd=0, geo=GeoCdConfig(k=3)))
    assert trace.graph_rows == {"final": (rows, rows)}


def test_fit_builds_one_graph_and_tracks_it(monkeypatch):
    calls, began = record_search(monkeypatch), []

    class Counting(graph.GraphTracker):
        def __call__(self, *args, **kwargs):
            began.append(len(calls))  # the searches made so far
            return super().__call__(*args, **kwargs)

    monkeypatch.setattr(importlib.import_module("geocd.fit"), "GraphTracker", Counting)
    init, gt = normalized_problem(n=48, seed=3)
    fit(init, gt, FitConfig(steps_cd=5, steps_geocd=6, geo=GeoCdConfig(k=3)))
    assert len(began) == 6 + 1  # 6 steps and the final report
    # one graph call per search of all 96 rows: only the tracker's start, in the first step
    spans = zip(began, began[1:] + [len(calls)])
    whole = [
        i
        for i, (lo, hi) in enumerate(spans)
        for kind, rows in calls[lo:hi]
        if kind == "graph" and rows.size == 96
    ]
    assert whole == [0]


def test_fit_determinism():
    init, gt = normalized_problem(n=48, seed=4)
    cfg = FitConfig(steps_cd=25, steps_geocd=4, seed=4)
    a, b = fit(init, gt, cfg), fit(init, gt, cfg)
    assert a.steps == b.steps
    assert np.array_equal(a.final_pred.points, b.final_pred.points)


def test_fit_never_touches_ground_truth():
    init, gt = normalized_problem(n=40, seed=6)
    before = gt.points.copy()
    fit(init, gt, FitConfig(steps_cd=15, steps_geocd=3, seed=6))
    assert np.array_equal(gt.points, before)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_fit_aborts_on_non_finite_loss():
    init, gt = normalized_problem(n=16, sigma=0.05)
    cfg = FitConfig(steps_cd=8, steps_geocd=2, lr=1e200, geo=GeoCdConfig(k=3))
    trace = fit(init, gt, cfg)
    assert trace.aborted == "cd"
    assert len(trace.steps) < 8  # phase stopped early, later phases skipped
    assert not np.isfinite(trace.steps[-1].loss)
    # the non-finite step made no update, so it has no seconds
    assert len(trace.step_seconds["cd"]) == len(trace.steps) - 1


def test_fit_aborts_when_points_leave_the_unit_box():
    # lr 2 throws the points far out of the unit box in the Chamfer phase, so
    # the first geodesic step finds kNN edges longer than the sentinel
    init, gt = normalized_problem(n=64)
    cfg = FitConfig(steps_cd=5, steps_geocd=2, lr=2.0)
    trace = fit(init, gt, cfg)
    assert trace.aborted == "geocd"
    assert [s.phase for s in trace.steps] == ["cd"] * 5
    cd_only = fit(init, gt, dataclasses.replace(cfg, steps_geocd=0))
    assert cd_only.aborted is None
    assert np.array_equal(trace.final_pred.points, cd_only.final_pred.points)
    assert trace.final["geocd_loss"] is None
    # the aborted step never reached its Adam update, so it has no seconds
    assert {phase: len(s) for phase, s in trace.step_seconds.items()} == {"cd": 5}


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
def test_fit_rejects_bad_lr(lr):
    init, gt = normalized_problem(n=16)
    with pytest.raises(ValueError, match="lr must be positive and finite"):
        fit(init, gt, FitConfig(steps_cd=1, steps_geocd=0, lr=lr))


@pytest.mark.parametrize(
    "steps_cd, steps_geocd, name", [(-2, 0, "steps_cd"), (0, -1, "steps_geocd")]
)
def test_fit_rejects_negative_steps(steps_cd, steps_geocd, name):
    init, gt = normalized_problem(n=16)
    with pytest.raises(ValueError, match=f"{name} must be >= 0"):
        fit(init, gt, FitConfig(steps_cd=steps_cd, steps_geocd=steps_geocd))
