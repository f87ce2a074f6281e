"""Evaluation metrics: Hausdorff distance and F1 at a bbox-relative threshold.

Hausdorff uses plain (unsquared) norms while the Chamfer value in
``MetricsReport`` keeps its squared convention; the asymmetry is
intentional and documented in the README.

Every metric is read from the squared minimal distances of one
``nearest`` pass. ``sqrt`` is monotone and correctly rounded, so the sqrt
of a minimal squared distance is the minimal distance, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .distances import nearest
from .errors import DegenerateCloudError

# unused here; perfbench/spans.py traces these names through this module
from .distances import pairwise_distances  # noqa: F401
from .loss import chamfer  # noqa: F401


@dataclass
class F1Score:
    precision: float
    recall: float
    f1: float
    threshold_used: float


@dataclass
class MetricsReport:
    cd: float
    hd: float
    f1: float
    precision: float
    recall: float
    threshold_used: float


def hausdorff(p: PointCloud, q: PointCloud) -> float:
    """Largest minimal distance between the two sets (symmetric)."""
    _, sq_p, _, sq_q = nearest(p.points, q.points)
    return _hausdorff(sq_p, sq_q)


def f1_at(
    pred: PointCloud,
    gt: PointCloud,
    tau_fraction: float = 0.01,
    diag_source: str = "gt",
) -> F1Score:
    """Precision/recall/F1 with threshold tau = tau_fraction x bbox diagonal.

    The diagonal comes from the ground-truth cloud by default (the reference
    shape defines the scale); ``diag_source="union"`` uses the joint box.
    """
    tau = _threshold(pred, gt, tau_fraction, diag_source)
    _, sq_p, _, sq_q = nearest(pred.points, gt.points)
    return _f1(sq_p, sq_q, tau)


def evaluate(
    pred: PointCloud,
    gt: PointCloud,
    tau_fraction: float = 0.01,
    diag_source: str = "gt",
) -> MetricsReport:
    """Chamfer + Hausdorff + F1 in one report, from one nearest-neighbour pass."""
    tau = _threshold(pred, gt, tau_fraction, diag_source)
    _, sq_p, _, sq_q = nearest(pred.points, gt.points)
    f = _f1(sq_p, sq_q, tau)
    return MetricsReport(
        cd=float(sq_p.mean() + sq_q.mean()),  # the value of ``loss.chamfer``
        hd=_hausdorff(sq_p, sq_q),
        f1=f.f1,
        precision=f.precision,
        recall=f.recall,
        threshold_used=f.threshold_used,
    )


def _hausdorff(sq_p: np.ndarray, sq_q: np.ndarray) -> float:
    return float(np.sqrt(max(sq_p.max(), sq_q.max())))


def _f1(sq_p: np.ndarray, sq_q: np.ndarray, tau: float) -> F1Score:
    precision = float((np.sqrt(sq_p) <= tau).mean())
    recall = float((np.sqrt(sq_q) <= tau).mean())
    f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    return F1Score(precision, recall, f1, tau)


def _threshold(pred: PointCloud, gt: PointCloud, tau_fraction: float, diag_source: str) -> float:
    if tau_fraction <= 0:
        raise ValueError("tau_fraction must be positive")
    if diag_source == "gt":
        diag = gt.bbox_diagonal()
    elif diag_source == "union":
        both = np.vstack([pred.points, gt.points])
        diag = float(np.linalg.norm(both.max(axis=0) - both.min(axis=0)))
    else:
        raise ValueError(f"diag_source must be 'gt' or 'union', got {diag_source!r}")
    if diag == 0.0:
        raise DegenerateCloudError("bounding-box diagonal is zero; F1 threshold undefined")
    return tau_fraction * diag
