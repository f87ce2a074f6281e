"""Randomized cross-checks used by tests and the ``verify`` command.

Two check families:

* propagation: fast multi-hop propagation vs hop-bounded relaxation walks,
* gradients: analytic softmin-path gradients vs central finite differences.

Both draw instances from a seeded generator so failures are reproducible.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud, normalize_pair
from .geodesic import propagate
from .graph import knn_adjacency, merge
from .loss import GeoCdConfig, geocd
from .oracle import finite_diff_grad, hop_bounded_shortest_paths

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
        got = propagate(z, adj, hops).dense()
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


def propagation_signature(pred_points: np.ndarray, gt: PointCloud, cfg: GeoCdConfig):
    """Discrete structure of one evaluation: graph topology + argmin records."""
    z = merge(PointCloud(pred_points), gt)
    adj = knn_adjacency(z, cfg.k, cfg.symmetrize)
    geo = propagate(z, adj, cfg.n_hops, cfg.mask)
    hops = tuple(h.key.tobytes() + h.via.tobytes() for h in geo.hops)
    return (adj.src.tobytes(), adj.dst.tobytes(), hops)


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
    ``propagation`` and ``gradients`` blocks.

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
    passed = prop["mismatch_count"] == 0 and grads_ok
    return {"passed": passed, "oracle": oracle, "propagation": prop, "gradients": grad}
