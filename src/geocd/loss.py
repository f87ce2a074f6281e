"""Reconstruction losses and their analytic coordinate gradients.

Two losses with deliberately different distance conventions:

* ``chamfer`` averages *squared* nearest-neighbour distances.
* ``geocd`` replaces nearest-neighbour matching with a softmin over
  *unsquared* multi-hop graph distances.

Gradient magnitudes therefore differ between the two training phases; see
the README before mixing learning rates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud
from .distances import nearest, squared_lengths
from .geodesic import GeoDistances, MaskConfig, cross_width, propagate, row_min, unroll
from .graph import SENTINEL, Hop, knn_adjacency, merge

# unused here; perfbench/spans.py traces this name through this module
from .distances import pairwise_distances  # noqa: F401

DEGENERATE_EDGE = 1e-12  # edges shorter than this get no gradient


@dataclass
class GeoCdConfig:
    k: int = 5
    n_hops: int = 2
    symmetrize: bool = False
    mask: MaskConfig = field(default_factory=MaskConfig)


@dataclass
class LossReport:
    value: float
    grad_pred: np.ndarray | None = None
    grad_gt: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)
    graph: Hop | None = None  # the kNN graph geocd built, hop 1 of its walks


def softmin(row) -> float:
    """-log(sum_j exp(-d_j)), shifted by the row minimum for stability.

    A smooth lower bound of min(d): min(d) - log(len(d)) <= softmin(d) <= min(d).
    """
    row = np.asarray(row, dtype=np.float64)
    m = float(row.min())
    return m - float(np.log(np.exp(-(row - m)).sum()))


def _softmin_rows(rows, d, width) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise softmin values, the softmax(-d) weight of every real entry,
    and each row's weight on its sentinel entries.

    Row r has ``width[r]`` entries; the ones not listed in (``rows``, ``d``)
    hold the sentinel and join the row's sum in closed form.
    """
    m = row_min(rows, d, width)
    w = np.exp(-(d - m[rows]))
    missing = width - np.bincount(rows, minlength=width.size)
    sentinel = missing * np.exp(-(SENTINEL - m))
    s = np.bincount(rows, weights=w, minlength=width.size) + sentinel
    return m - np.log(s), w / s[rows], sentinel / s


def _scatter(index: np.ndarray, vectors: np.ndarray, size: int) -> np.ndarray:
    """(size, 3) per-point sums of the rows of ``vectors``, added in input order."""
    return np.column_stack([np.bincount(index, c, size) for c in vectors.T])


def chamfer(pred: PointCloud, gt: PointCloud, with_grad: bool = False, search=None) -> LossReport:
    """Symmetric mean of squared nearest-neighbour distances.

    Nearest-neighbour ties break toward the lower index. The ``pred``
    gradient follows the (piecewise-constant) assignment. The diagnostics
    hold the squared nearest distances of the pass, ``sq_pred`` (from each
    predicted point) and ``sq_gt`` (from each target point), from which
    ``metrics.report_from_pass`` reads the metrics without a second pass.
    ``search`` is the nearest-neighbour search, ``nearest`` by default, or a
    ``NearestTracker`` that returns the same.
    """
    p, q = pred.points, gt.points
    n, m = p.shape[0], q.shape[0]
    j_star, sq_p, i_star, sq_q = (search or nearest)(p, q)
    value = float(sq_p.mean() + sq_q.mean())

    grad_pred = None
    if with_grad:  # each point's own term, then the target points that chose it
        own, chosen = (2.0 / n) * (p - q[j_star]), (2.0 / m) * (p[i_star] - q)
        grad_pred = _scatter(np.r_[np.arange(n), i_star], np.r_[own, chosen], n)
    return LossReport(value, grad_pred, None, {"sq_pred": sq_p, "sq_gt": sq_q})


def geocd(
    pred: PointCloud,
    gt: PointCloud,
    cfg: GeoCdConfig | None = None,
    with_grad: bool = False,
    with_gt_grad: bool = False,
    graph=None,
) -> LossReport:
    """Softmin loss over multi-hop graph distances of the merged set.

    Expects jointly normalized clouds (all pairwise distances < 1, see
    ``normalize_pair``). Sentinel entries take part in every softmin sum but
    are constants: they carry no coordinate gradient. Real entries
    distribute their softmin weight along the recorded shortest walk, one
    unit-vector contribution per edge. ``graph`` builds the kNN graph,
    ``knn_adjacency`` by default, or a ``GraphTracker`` that returns the same;
    the report hands the graph back, for ``graph.GraphNearest`` to read.
    """
    cfg = cfg or GeoCdConfig()
    t0 = time.perf_counter()
    z = merge(pred, gt)
    adj = (graph or knn_adjacency)(z, cfg.k, cfg.symmetrize)
    t1 = time.perf_counter()
    geo = propagate(z, adj, cfg.n_hops, cfg.mask, cross_only=True)
    t2 = time.perf_counter()

    pos, src, d = geo.cross()
    v, w, on_sentinel = _softmin_rows(src, d, cross_width(z))
    n, m = z.n_pred, z.n_gt
    value = float(v[:n].mean() + v[n:].mean())

    total = 2 * n * m  # cross entries; the unlisted ones hold the sentinel
    diagnostics = {
        "sentinel_fraction": (total - d.size) / total,
        # the share of the loss's softmin weight, rows weighted 1/n and 1/m,
        # that sits on gradient-free sentinel entries
        "sentinel_mass": float(on_sentinel[:n].mean() + on_sentinel[n:].mean()) / 2,
        "masked_fraction": geo.masked_per_hop[-1] if geo.masked_per_hop else 0.0,
        "masked_per_hop": geo.masked_per_hop,
        "max_real_weight": float(w.max()) if w.size else 0.0,
        "cross_per_row": d.size / (n + m),
        "hops_used": geo.hops_used,
        "hop_entries": geo.hop_entries,
        "improved_per_hop": geo.improved_per_hop,
        "mean_cross_distance": float((d.sum() + (total - d.size) * SENTINEL) / total),
        "mask_threshold": geo.mask_threshold,
        "degenerate_edges": 0,
        "grad_norm": None,
    }

    t3 = time.perf_counter()
    grad_pred = grad_gt = None
    gradient_s = 0.0
    if with_grad:
        grad, degenerate = _path_gradients(geo, pos, w / np.where(src < n, n, m))
        grad_pred, grad_gt = grad[:n], (grad[n:] if with_gt_grad else None)
        diagnostics["degenerate_edges"] = degenerate
        diagnostics["grad_norm"] = float(np.linalg.norm(grad_pred))
        gradient_s = time.perf_counter() - t3
    diagnostics["timings"] = {
        "graph": t1 - t0,
        "propagation": t2 - t1,
        **{f"hop_{h}": s for h, s in enumerate(geo.hop_seconds, start=2)},
        "loss": t3 - t2,
        "gradient": gradient_s,
    }
    return LossReport(value, grad_pred, grad_gt, diagnostics, adj)


def _path_gradients(
    geo: GeoDistances, pos: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, int]:
    """Scatter softmin weights along every recorded cross-set walk.

    For a walk edge (a, b) with weight w, grad[a] += w * (z_a - z_b)/|z_a - z_b|
    and grad[b] gets the negation; a degenerate edge divides by inf and adds
    zero. Also returns the number of degenerate walk edges.
    """
    zt, n = np.ascontiguousarray(geo.merged.points.T), geo.merged.size  # rows gather contiguously
    walk, edge = unroll(geo, pos)
    key = geo.hops[0].key
    a = key // n  # scalar floor division is several times faster than divmod
    b = key - a * n
    d = zt.take(a, axis=1)  # each graph edge is measured once, then gathered per walk edge
    d -= zt.take(b, axis=1)
    length = np.sqrt(squared_lengths(d, (0.0, 0.0, 0.0), np.empty(a.size), np.empty(a.size)))
    ok = length > DEGENERATE_EDGE
    d /= np.where(ok, length, np.inf)
    contrib = d.take(edge, axis=1)
    contrib *= weights[walk]
    a, b = a.take(edge), b.take(edge)
    return _scatter(a, contrib.T, n) - _scatter(b, contrib.T, n), int((~ok).take(edge).sum())
