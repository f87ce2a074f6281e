"""Point-cloud data model and unit-bounding-box normalization.

Coordinates are float64 throughout; a cloud wraps an (N, 3) array. Point
order is significant: graph rows, predecessor records and gradients all
address points by index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCloudError


@dataclass
class PointCloud:
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("a point cloud needs at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("point coordinates must be finite")
        self.points = pts

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.points.min(axis=0), self.points.max(axis=0)

    def bbox_diagonal(self) -> float:
        return box_diagonal(*self.bbox())


def box_diagonal(lo: np.ndarray, hi: np.ndarray) -> float:
    """Length of the diagonal of the box [lo, hi], at every finite scale.

    The extents are scaled by the power of two that brings the largest into
    [0.5, 1), so their squares neither overflow nor underflow, and the norm
    is scaled back. Scaling by a power of two is exact, so wherever the
    squares of the raw extents are normal this is ``np.linalg.norm(hi - lo)``
    bit for bit. Raises DegenerateCloudError when the diagonal exceeds the
    largest float64.
    """
    with np.errstate(over="ignore"):
        ext = hi - lo
        e = np.frexp(ext.max())[1]
        diag = float(np.ldexp(np.linalg.norm(np.ldexp(ext, -e)), e))
    if not np.isfinite(diag):
        raise DegenerateCloudError(
            f"bounding-box diagonal exceeds the largest float64 ({np.finfo(np.float64).max:g}); "
            "scale the coordinates down"
        )
    return diag


@dataclass
class NormalizationTransform:
    """Affine map ``p -> (p - translation) * scale`` and its inverse.

    ``translation`` is the bounding-box center, ``scale`` the reciprocal of
    the box diagonal, so the transformed diagonal is exactly 1 and every
    pairwise distance is bounded by 1.
    """

    translation: np.ndarray
    scale: float

    def apply(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=np.float64) - self.translation) * self.scale

    def invert(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) / self.scale + self.translation


def _bbox_transform(points: np.ndarray) -> NormalizationTransform:
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    diag = box_diagonal(lo, hi)
    if diag == 0.0:
        raise DegenerateCloudError("all points coincide; bounding box has zero diagonal")
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    # lo + hi overflows only for large bounds of one sign, whose halves are
    # exact; elsewhere the halves could round where the sum does not
    mid = np.where(np.isfinite(mid), mid, lo / 2.0 + hi / 2.0)
    return NormalizationTransform(translation=mid, scale=1.0 / diag)


def normalize_unit_bbox(cloud: PointCloud) -> tuple[PointCloud, NormalizationTransform]:
    """Center the bounding box at the origin and scale its diagonal to 1."""
    t = _bbox_transform(cloud.points)
    return PointCloud(t.apply(cloud.points)), t


def normalize_pair(
    pred: PointCloud, gt: PointCloud
) -> tuple[PointCloud, PointCloud, NormalizationTransform]:
    """Normalize both clouds with one transform from their union bounding box.

    A shared transform keeps cross-set distances below 1 as well, which
    ``graph.SENTINEL`` relies on.
    """
    t = _bbox_transform(np.vstack([pred.points, gt.points]))
    return PointCloud(t.apply(pred.points)), PointCloud(t.apply(gt.points)), t
