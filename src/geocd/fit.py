"""Two-phase coordinate fitting against a target cloud.

Phase 1 runs Adam on the squared-distance Chamfer loss for coarse
alignment; phase 2 fine-tunes on the graph-geodesic softmin loss, whose
merged-set graph only makes sense once the clouds roughly overlap. The
coordinates move every step, so a fit tracks its nearest neighbours and its
kNN graph from step to step and searches in full only the rows whose answer
may have changed.

Both clouds are expected to be jointly normalized (see ``normalize_pair``);
the harness optimizes predicted coordinates only and never touches the
target.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud
from .distances import NearestTracker
from .errors import GeoCdError, NormalizationError
from .geodesic import MaskConfig
from .graph import GraphTracker
from .loss import GeoCdConfig, chamfer, geocd
from .metrics import evaluate, f1_threshold, report_from_pass

SHAPE_KINDS = ("sphere", "hemisphere", "torus", "bent-plane")
SPHERE_RADIUS = 0.5
TORUS_MAJOR = 0.4
TORUS_MINOR = 0.15
PLANE_BEND = 0.3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class ShapeSpec:
    kind: str
    n_points: int
    noise_sigma: float = 0.0
    seed: int = 0


def _training_geo_config() -> GeoCdConfig:
    # the training protocol masks matched points between hops; the bare loss
    # default leaves masking off
    return GeoCdConfig(mask=MaskConfig(enabled=True))


@dataclass
class FitConfig:
    steps_cd: int = 200
    steps_geocd: int = 20
    lr: float = 5e-4
    geo: GeoCdConfig = field(default_factory=_training_geo_config)
    seed: int = 0
    tau_fraction: float = 0.01


@dataclass
class FitStep:
    phase: str
    step: int
    loss: float
    cd: float
    hd: float
    f1: float


@dataclass
class FitTrace:
    steps: list[FitStep]
    final_pred: PointCloud
    final: dict
    aborted: str | None = None
    # phase -> seconds of each step that reached its Adam update, from the
    # loss call to the end of the update
    step_seconds: dict[str, list[float]] = field(default_factory=dict)
    # phase, or "final" for the final report -> (rows the fit's nearest-
    # neighbour tracker searched in full, rows asked for)
    search_rows: dict[str, tuple[int, int]] = field(default_factory=dict)
    # the same for the fit's kNN graph tracker, where a step or the final
    # report built a graph
    graph_rows: dict[str, tuple[int, int]] = field(default_factory=dict)


class Adam:
    """Plain Adam with bias correction; state is per-coordinate."""

    def __init__(self, shape, lr):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = self.m / (1.0 - ADAM_BETA1**self.t)
        v_hat = self.v / (1.0 - ADAM_BETA2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def check_sigma(sigma: float) -> None:
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"noise sigma must be >= 0 and finite, got {sigma}")


def sample_shape(spec: ShapeSpec) -> PointCloud:
    """Deterministic sampler for curved test surfaces, plus optional noise."""
    if spec.kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape {spec.kind!r}; expected one of {SHAPE_KINDS}")
    if spec.n_points < 4:
        raise ValueError(f"n_points must be >= 4, got {spec.n_points}")
    check_sigma(spec.noise_sigma)
    rng = np.random.default_rng(spec.seed)
    n = spec.n_points
    if spec.kind in ("sphere", "hemisphere"):
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        if spec.kind == "hemisphere":
            v[:, 2] = np.abs(v[:, 2])
        pts = SPHERE_RADIUS * v
    elif spec.kind == "torus":
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        ring = TORUS_MAJOR + TORUS_MINOR * np.cos(phi)
        pts = np.column_stack(
            [ring * np.cos(theta), ring * np.sin(theta), TORUS_MINOR * np.sin(phi)]
        )
    else:  # bent-plane
        u = rng.uniform(-0.5, 0.5, n)
        v = rng.uniform(-0.5, 0.5, n)
        pts = np.column_stack([u, v, PLANE_BEND * np.sin(np.pi * u)])
    if spec.noise_sigma > 0:
        pts = pts + spec.noise_sigma * rng.normal(size=pts.shape)
    return PointCloud(pts)


def noisy_copy(cloud: PointCloud, sigma: float, seed: int) -> PointCloud:
    check_sigma(sigma)
    rng = np.random.default_rng(seed)
    return PointCloud(cloud.points + sigma * rng.normal(size=cloud.points.shape))


# a phase that overflows is reported as aborted, so its numpy warnings say
# nothing more; each step and the final report run without them
@np.errstate(over="ignore", invalid="ignore")
def fit(pred_init: PointCloud, gt: PointCloud, cfg: FitConfig | None = None) -> FitTrace:
    """Run both phases and record per-step metrics.

    Each trace row holds the loss and metrics at the coordinates *before*
    that step's update. A phase aborts (reported, not raised) if its loss
    or gradient turns non-finite, or if its points have left the unit box
    so far that a kNN edge exceeds the sentinel; the last good coordinates
    are kept.
    """
    cfg = cfg or FitConfig()
    if not (np.isfinite(cfg.lr) and cfg.lr > 0):
        raise ValueError(f"lr must be positive and finite, got {cfg.lr}")
    for name, steps in (("steps_cd", cfg.steps_cd), ("steps_geocd", cfg.steps_geocd)):
        if steps < 0:
            raise ValueError(f"{name} must be >= 0, got {steps}")
    params = pred_init.points.copy()
    steps: list[FitStep] = []
    step_seconds: dict[str, list[float]] = {}
    aborted = None

    tau = f1_threshold(pred_init, gt, cfg.tau_fraction)  # depends on gt alone
    # every search of the fit is against gt, by points that move a little
    search, graph = NearestTracker(), GraphTracker()
    search_rows: dict[str, tuple[int, int]] = {}
    graph_rows: dict[str, tuple[int, int]] = {}

    # each step returns its loss, gradient and metrics; the loss report,
    # with the graph geocd hands back, is freed before the next step
    def cd_step(cloud):
        # the metrics come from the loss's own nearest-neighbour pass
        rep = chamfer(cloud, gt, with_grad=True, search=search)
        sq_pred, sq_gt = rep.diagnostics["sq_pred"], rep.diagnostics["sq_gt"]
        return rep.value, rep.grad_pred, report_from_pass(sq_pred, sq_gt, tau)

    def geocd_step(cloud):
        rep = geocd(cloud, gt, cfg.geo, with_grad=True, graph=graph)
        return rep.value, rep.grad_pred, evaluate(cloud, gt, cfg.tau_fraction, search=search)

    phases = (("cd", cfg.steps_cd, cd_step), ("geocd", cfg.steps_geocd, geocd_step))
    for phase, n_steps, step_fn in phases:
        if aborted:
            break
        search.rows_searched = search.rows_asked = 0
        graph.rows_searched = graph.rows_asked = 0
        adam = Adam(params.shape, cfg.lr)
        for s in range(n_steps):
            cloud = PointCloud(params)
            t0 = time.perf_counter()
            try:
                value, grad, met = step_fn(cloud)
            except NormalizationError:
                aborted = phase
                break
            steps.append(FitStep(phase, s, value, met.cd, met.hd, met.f1))
            if not (np.isfinite(value) and np.isfinite(grad).all()):
                aborted = phase
                break
            params = adam.step(params, grad)
            step_seconds.setdefault(phase, []).append(time.perf_counter() - t0)
        for tracker, rows in ((search, search_rows), (graph, graph_rows)):
            if tracker.rows_asked:
                rows[phase] = (tracker.rows_searched, tracker.rows_asked)

    final_cloud = PointCloud(params)
    search.rows_searched = search.rows_asked = 0
    met = evaluate(final_cloud, gt, cfg.tau_fraction, search=search)
    search_rows["final"] = (search.rows_searched, search.rows_asked)
    graph.rows_searched = graph.rows_asked = 0
    try:
        geocd_loss = geocd(final_cloud, gt, cfg.geo, graph=graph).value
    except GeoCdError:
        geocd_loss = None  # e.g. pair too small for cfg.geo.k
    if graph.rows_asked:
        graph_rows["final"] = (graph.rows_searched, graph.rows_asked)

    def clean(x):
        # aborted runs can leave params whose metrics overflow; keep the
        # report JSON-safe
        return float(x) if x is not None and np.isfinite(x) else None

    final = {
        "cd": clean(met.cd),
        "hd": clean(met.hd),
        "f1": clean(met.f1),
        "precision": clean(met.precision),
        "recall": clean(met.recall),
        "chamfer_loss": clean(met.cd),  # equal to chamfer(final_cloud, gt).value
        "geocd_loss": clean(geocd_loss),
    }
    return FitTrace(steps, final_cloud, final, aborted, step_seconds, search_rows, graph_rows)
