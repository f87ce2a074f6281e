"""Topology-aware geodesic Chamfer distance for point clouds.

Distances between a predicted and a ground-truth cloud are approximated by
shortest walks in a kNN graph over the merged set, propagated with
multi-hop (min, +) updates and fed through a softmin. Squared-distance
Chamfer, Hausdorff and F1 baselines, verification oracles, and a two-phase
coordinate-fitting harness round out the package.
"""

from .cloud import (
    NormalizationTransform,
    PointCloud,
    normalize_pair,
    normalize_unit_bbox,
)
from .errors import (
    DegenerateCloudError,
    DimensionMismatchError,
    EmptyFileError,
    GeoCdError,
    KTooLargeError,
    NormalizationError,
    ParseError,
)
from .fit import Adam, FitConfig, FitTrace, ShapeSpec, fit, noisy_copy, sample_shape
from .geodesic import GeoDistances, MaskConfig, propagate, reconstruct_path
from .graph import Hop, MergedSet, knn_adjacency, merge
from .io import read_cloud, write_cloud
from .loss import GeoCdConfig, LossReport, chamfer, geocd, softmin
from .metrics import MetricsReport, evaluate, f1_at, hausdorff
from .oracle import dijkstra_all_pairs, finite_diff_grad, hop_bounded_shortest_paths

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "DegenerateCloudError",
    "DimensionMismatchError",
    "EmptyFileError",
    "FitConfig",
    "FitTrace",
    "GeoCdConfig",
    "GeoCdError",
    "GeoDistances",
    "Hop",
    "KTooLargeError",
    "LossReport",
    "MaskConfig",
    "MergedSet",
    "MetricsReport",
    "NormalizationError",
    "NormalizationTransform",
    "ParseError",
    "PointCloud",
    "ShapeSpec",
    "chamfer",
    "dijkstra_all_pairs",
    "evaluate",
    "f1_at",
    "finite_diff_grad",
    "fit",
    "geocd",
    "hausdorff",
    "hop_bounded_shortest_paths",
    "knn_adjacency",
    "merge",
    "noisy_copy",
    "normalize_pair",
    "normalize_unit_bbox",
    "propagate",
    "read_cloud",
    "reconstruct_path",
    "sample_shape",
    "softmin",
    "write_cloud",
    "__version__",
]
