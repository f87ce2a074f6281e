"""Two-phase coordinate fitting against a target cloud.

Phase 1 runs Adam on the squared-distance Chamfer loss for coarse
alignment; phase 2 fine-tunes on the graph-geodesic softmin loss, whose
merged-set graph only makes sense once the clouds roughly overlap. The
kNN graph is rebuilt every fine-tuning step because the coordinates move.

Both clouds are expected to be jointly normalized (see ``normalize_pair``);
the harness optimizes predicted coordinates only and never touches the
target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud
from .errors import GeoCdError
from .geodesic import MaskConfig
from .loss import GeoCdConfig, chamfer, geocd
from .metrics import evaluate

SHAPE_KINDS = ("sphere", "hemisphere", "torus", "bent-plane")
SPHERE_RADIUS = 0.5
TORUS_MAJOR = 0.4
TORUS_MINOR = 0.15
PLANE_BEND = 0.3


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
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


class Adam:
    """Plain Adam with bias correction; state is per-coordinate."""

    def __init__(self, shape, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def sample_shape(spec: ShapeSpec) -> PointCloud:
    """Deterministic sampler for curved test surfaces, plus optional noise."""
    if spec.kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape {spec.kind!r}; expected one of {SHAPE_KINDS}")
    if spec.n_points < 4:
        raise ValueError("n_points must be >= 4")
    if spec.noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
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
    return PointCloud(pts, name=spec.kind)


def noisy_copy(cloud: PointCloud, sigma: float, seed: int) -> PointCloud:
    rng = np.random.default_rng(seed)
    return PointCloud(cloud.points + sigma * rng.normal(size=cloud.points.shape), name=cloud.name)


def fit(pred_init: PointCloud, gt: PointCloud, cfg: FitConfig | None = None) -> FitTrace:
    """Run both phases and record per-step metrics.

    Each trace row holds the loss and metrics at the coordinates *before*
    that step's update. A phase aborts (reported, not raised) if its loss
    or gradient turns non-finite; the last finite coordinates are kept.
    """
    cfg = cfg or FitConfig()
    params = pred_init.points.copy()
    steps: list[FitStep] = []
    aborted = None

    phases = (
        ("cd", cfg.steps_cd, lambda c: chamfer(c, gt, with_grad=True)),
        ("geocd", cfg.steps_geocd, lambda c: geocd(c, gt, cfg.geo, with_grad=True)),
    )
    for phase, n_steps, loss_fn in phases:
        if aborted:
            break
        adam = Adam(params.shape, cfg.lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
        for s in range(n_steps):
            cloud = PointCloud(params, name=pred_init.name)
            rep = loss_fn(cloud)
            met = evaluate(cloud, gt, cfg.tau_fraction)
            steps.append(FitStep(phase, s, rep.value, met.cd, met.hd, met.f1))
            if not (np.isfinite(rep.value) and np.isfinite(rep.grad_pred).all()):
                aborted = phase
                break
            params = adam.step(params, rep.grad_pred)

    final_cloud = PointCloud(params, name=pred_init.name)
    met = evaluate(final_cloud, gt, cfg.tau_fraction)
    try:
        geocd_loss = geocd(final_cloud, gt, cfg.geo).value
    except GeoCdError:
        geocd_loss = None  # e.g. pair too small for cfg.geo.k

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
    return FitTrace(steps=steps, final_pred=final_cloud, final=final, aborted=aborted)
