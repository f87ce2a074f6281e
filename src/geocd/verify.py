"""Randomized cross-checks used by tests and the ``verify`` command.

Four check families:

* propagation: fast multi-hop propagation vs hop-bounded relaxation walks,
* gradients: analytic softmin-path gradients vs central finite differences,
* graph: the grid-built kNN graph vs a stable sort of every dense row,
* metrics: the graph's nearest-neighbour read and ``nearest`` vs ``oracle.nearest``.

All draw instances from a seeded generator so failures are reproducible.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud, normalize_pair
from .distances import BLOCK, nearest
from .geodesic import propagate
from .graph import GraphNearest, knn_adjacency, merge
from .loss import GeoCdConfig, geocd
from .oracle import dense, finite_diff_grad, hop_bounded_shortest_paths, stable_sort_knn_mask
from .oracle import nearest as dense_nearest

PROPAGATION_TOL = 1e-9
GRADIENT_REL_TOL = 1e-4
GRADIENT_STEP = 1e-5
_REL_FLOOR = 1e-6  # guards the relative-error quotient for near-zero components


def random_pair(rng, n: int, m: int) -> tuple[PointCloud, PointCloud]:
    """Uniform clouds in the unit box, jointly normalized."""
    pred = PointCloud(rng.random((n, 3)))
    gt = PointCloud(rng.random((m, 3)))
    pred_n, gt_n, _ = normalize_pair(pred, gt)
    return pred_n, gt_n


def check_propagation(
    trials: int,
    seed: int,
    size_range: tuple[int, int] = (8, 32),
    ks: tuple[int, ...] = (2, 3, 5),
    hops_range: tuple[int, int] = (1, 4),
    tol: float = PROPAGATION_TOL,
) -> dict:
    """Compare the full final distance matrix against the reference walks."""
    rng = np.random.default_rng(seed)
    max_abs = 0.0
    max_rel = 0.0
    mismatches = 0
    offenders = []
    for trial in range(trials):
        n = int(rng.integers(size_range[0], size_range[1] + 1))
        m = int(rng.integers(size_range[0], size_range[1] + 1))
        k = min(int(rng.choice(ks)), n + m - 1)  # after the draw: the stream stays the same
        hops = int(rng.integers(hops_range[0], hops_range[1] + 1))
        pred, gt = random_pair(rng, n, m)
        z = merge(pred, gt)
        adj = knn_adjacency(z, k)
        got = dense(propagate(z, adj, hops).hops[-1])
        ref = hop_bounded_shortest_paths(adj, hops)
        diff = np.abs(got - ref)
        worst = float(diff.max())
        max_abs = max(max_abs, worst)
        max_rel = max(max_rel, float((diff / np.maximum(ref, 1e-30)).max()))
        bad = int((diff > tol).sum())
        mismatches += bad
        if bad:
            i, j = np.unravel_index(int(diff.argmax()), diff.shape)
            offenders.append(
                {
                    "trial": trial,
                    "n": n,
                    "m": m,
                    "k": k,
                    "hops": hops,
                    "entry": [int(i), int(j)],
                    "abs_diff": worst,
                }
            )
    return {
        "trials": trials,
        "tolerance": tol,
        "max_abs_diff": max_abs,
        "max_rel_diff": max_rel,
        "mismatch_count": mismatches,
        "worst_offenders": offenders[:5],
    }


def _graph_instance(rng, trial: int, smallest: int):
    """Merged points, the predicted count, k and ``symmetrize`` of one graph check.

    The merged size runs from ``smallest`` to 600 and k from 1 to 8. Even
    trials are uniform, odd ones a coarse lattice with exact ties and
    repeated points; all lie in a box of edge 0.5, so that no length
    reaches the sentinel.
    """
    size = int(rng.integers(smallest, 601))
    pts = rng.integers(0, 7, (size, 3)) / 12.0 if trial % 2 else rng.random((size, 3)) / 2
    n = int(rng.integers(1, size))
    k = int(rng.integers(1, min(8, size - 1) + 1))
    return pts, n, k, bool(rng.integers(2))


def check_graph(trials: int, seed: int) -> dict:
    """Compare ``knn_adjacency`` with the dense reference, edge for edge.

    The merged sizes run from BLOCK + 1 to 600, so the grid passes run (see
    ``_graph_instance``). A mismatch is an edge that only one side has, or a
    shared edge whose lengths differ in any bit.
    """
    rng = np.random.default_rng(seed)
    mismatches = 0
    offenders = []
    for trial in range(trials):
        pts, n, k, symmetrize = _graph_instance(rng, trial, BLOCK + 1)
        size = len(pts)
        z = merge(PointCloud(pts[:n]), PointCloud(pts[n:]))
        adj = knn_adjacency(z, k, symmetrize)
        ref, d = stable_sort_knn_mask(z.points, k, symmetrize)
        want = np.flatnonzero(ref)
        shared, here, there = np.intersect1d(adj.key, want, return_indices=True)
        bad = adj.key.size + want.size - 2 * shared.size
        bad += int((adj.dist[here] != d.flat[want[there]]).sum())
        mismatches += bad
        if bad:
            offenders.append(
                {"trial": trial, "size": size, "k": k, "symmetrize": symmetrize, "edges": bad}
            )
    return {"trials": trials, "mismatch_count": mismatches, "worst_offenders": offenders[:5]}


def check_metrics(trials: int, seed: int) -> dict:
    """Compare the graph's nearest-neighbour read, and ``nearest``, with ``oracle.nearest``.

    The merged sizes run from 2 to 600, so both the dense block and the
    grid passes build the graph (see ``_graph_instance``). A mismatch is an
    index or a squared length of either, in either direction, that differs.
    """
    rng = np.random.default_rng(seed)
    mismatches = 0
    offenders = []
    for trial in range(trials):
        pts, n, k, symmetrize = _graph_instance(rng, trial, 2)
        size = len(pts)
        p, q = pts[:n], pts[n:]
        adj = knn_adjacency(merge(PointCloud(p), PointCloud(q)), k, symmetrize)
        got, want = GraphNearest(adj, k)(p, q) + nearest(p, q), dense_nearest(p, q)
        bad = sum(int((g != w).sum()) for g, w in zip(got, want + want))
        mismatches += bad
        if bad:
            offenders.append(
                {"trial": trial, "size": size, "k": k, "symmetrize": symmetrize, "entries": bad}
            )
    return {"trials": trials, "mismatch_count": mismatches, "worst_offenders": offenders[:5]}


def propagation_signature(pred_points: np.ndarray, gt: PointCloud, cfg: GeoCdConfig):
    """Discrete structure of one evaluation: every hop's keys and last edges, hop 1 the graph."""
    z = merge(PointCloud(pred_points), gt)
    adj = knn_adjacency(z, cfg.k, cfg.symmetrize)
    geo = propagate(z, adj, cfg.n_hops, cfg.mask)
    return tuple(h.key.tobytes() + h.edge.tobytes() for h in geo.hops)


def check_gradients(
    trials: int,
    seed: int,
    n: int = 16,
    k: int = 3,
    hops: int = 2,
    step: float = GRADIENT_STEP,
    rel_tol: float = GRADIENT_REL_TOL,
) -> dict:
    """Analytic gradient vs central differences on random instances.

    Components whose perturbed evaluations change the discrete structure
    are skipped (the loss is non-differentiable there) and counted.
    """
    rng = np.random.default_rng(seed)
    cfg = GeoCdConfig(k=k, n_hops=hops)
    total = 0
    skipped = 0
    matched = 0
    worst_rel = 0.0
    offenders = []
    for trial in range(trials):
        pred, gt = random_pair(rng, n, n)
        analytic = geocd(pred, gt, cfg, with_grad=True).grad_pred

        def loss_fn(pts):
            return geocd(PointCloud(pts), gt, cfg).value

        def sig_fn(pts):
            return propagation_signature(pts, gt, cfg)

        fd, flagged = finite_diff_grad(loss_fn, pred.points, step, sig_fn)
        rel = np.abs(analytic - fd) / np.maximum.reduce(
            [np.abs(analytic), np.abs(fd), np.full(fd.shape, _REL_FLOOR)]
        )
        ok = rel < rel_tol
        total += rel.size
        skipped += int(flagged.sum())
        matched += int((ok & ~flagged).sum())
        free = rel[~flagged]
        if free.size:
            worst_rel = max(worst_rel, float(free.max()))
        for i, c in zip(*np.nonzero(~ok & ~flagged)):
            offenders.append(
                {
                    "trial": trial,
                    "component": [int(i), int(c)],
                    "analytic": float(analytic[i, c]),
                    "finite_diff": float(fd[i, c]),
                    "rel_error": float(rel[i, c]),
                }
            )
    return {
        "trials": trials,
        "step": step,
        "rel_tolerance": rel_tol,
        "components": total,
        "matched": matched,
        "skipped_tie_components": skipped,
        "worst_rel_error": worst_rel,
        "worst_offenders": offenders[:5],
    }


def run_verification(
    trials: int = 10,
    seed: int = 0,
    size_range: tuple[int, int] = (16, 32),
    grad_trials: int | None = None,
) -> dict:
    """Full check battery: the verify report's ``passed``, ``oracle``,
    ``propagation``, ``gradients``, ``graph`` and ``metrics`` blocks.

    ``passed`` mirrors the verify exit status; bad counts or sizes raise ValueError.
    """
    for name, count in (("trials", trials), ("grad_trials", grad_trials)):
        if count is not None and count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    if not 1 <= size_range[0] <= size_range[1]:
        raise ValueError(f"size range needs 1 <= min_points <= max_points, got {size_range}")
    if grad_trials is None:
        grad_trials = max(1, trials // 5) if trials else 0
    prop = check_propagation(trials, seed, size_range=size_range)
    grad = check_gradients(grad_trials, seed + 1)
    graph = check_graph(trials, seed + 2)
    metrics = check_metrics(trials, seed + 3)
    oracle = {
        "max_abs_diff": prop["max_abs_diff"],
        "max_rel_diff": prop["max_rel_diff"],
        "mismatch_count": prop["mismatch_count"],
        "skipped_tie_components": grad["skipped_tie_components"],
    }
    checked = grad["components"] - grad["skipped_tie_components"]
    grads_ok = grad["components"] == 0 or (
        grad["matched"] == checked
        and grad["skipped_tie_components"] <= 0.05 * grad["components"]
    )
    exact = prop["mismatch_count"] + graph["mismatch_count"] + metrics["mismatch_count"] == 0
    passed = exact and grads_ok
    return {
        "passed": passed,
        "oracle": oracle,
        "propagation": prop,
        "gradients": grad,
        "graph": graph,
        "metrics": metrics,
    }
