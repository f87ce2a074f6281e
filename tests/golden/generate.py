"""Record the golden equivalence file ``geocd_golden.json`` from the current tree.

Run from the repository root:

    PYTHONPATH=src python tests/golden/generate.py

Each instance is drawn from its seed alone. Seeds 0-199 give a random,
lattice-tie, duplicate-point or raw-scale pair of 1-40 points per cloud
with k in 1..8, 1..4 hops, the mask and ``symmetrize`` on or off. Seeds
200-211 give ``sample_shape`` surfaces at 300-2500 points per cloud, large
enough to spread the kNN graph over many grid cells: one of them adds a far
outlier cluster, whose sparse rows the grid cannot certify, and one is
left at raw scale with a large offset. Arrays built by exact arithmetic (the graph edges,
every hop record, ``masked_per_hop`` and the ``evaluate`` fields) are stored
as sha256 digests of their raw bytes, cut to 16 hex digits, and an error as
its text. A hop record is digested as its keys, its lengths and each entry's
last intermediate, -1 for a single edge: the source of the entry's last
edge (``Hop.edge``) where that differs from the entry's own source. For a
fixed graph the intermediates and the edges determine each other, so this
digest pins the edges too. The loss and the gradients are sums whose last
digits move whenever a change reorders their terms, so they are stored as
values, compared at a relative tolerance: the loss, and for each gradient
its 2-norm and its projection on fixed weights. One such change, the
gradient scatter's move from ``np.add.at`` to ``np.bincount`` (``7673cad``),
moved 165 of the instances' gradient summaries by at most 4.7e-16 of the
norm; the file was re-recorded after it, moving those lines and no other.
The file also records the numpy version it was made with.

Fits 0-15 each run ``fit`` from their seed alone: a ``sample_shape`` target
of 16-512 points of every kind, an initial guess that is either a noisy
copy of the target or a separate sample of another size, 1-8 Chamfer steps
and 0-3 GeoCD steps, the mask on or off. Fit 12 has 512 points per cloud,
the default fit's size. Fit 13 overflows in the Chamfer phase and aborts
there, fit 14 throws its points out of the unit box so that the first GeoCD
step raises ``NormalizationError``, and fit 15 runs no Chamfer step. Fit 16
is the default fit, ``FitConfig()`` on a 512-point hemisphere and its noisy
copy: 200 Chamfer steps and 20 GeoCD steps, each Chamfer step moving the
prediction a little against the same target. Fit 17 runs a long GeoCD phase
on a symmetrized graph: a 400-point torus and its noisy copy, 50 Chamfer
steps, then 60 GeoCD steps at k = 8 with ``symmetrize`` and the mask on, so
that every step's graph differs from the last in a few rows and their
reverse edges. Fit 18 is large enough for the trackers' full-row searches
to take the grid: a 2048-point hemisphere and its noisy copy, 10 Chamfer
steps and 4 GeoCD steps at the default settings. A fit record holds sha256 digests of every ``FitStep`` field,
of the final points' bytes and of the ``final`` dict, and the aborted phase.
A fit that takes a GeoCD step passes its gradients through ``np.exp`` into
the points, so its digests also pin the CPU's ``exp`` and ``log``.

A change that means to move a value re-records this file and says which
digests moved and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from geocd import (
    GeoCdConfig,
    GeoCdError,
    MaskConfig,
    PointCloud,
    evaluate,
    geocd,
    knn_adjacency,
    merge,
    normalize_pair,
    propagate,
)
from geocd.fit import SHAPE_KINDS, FitConfig, ShapeSpec, fit, noisy_copy, sample_shape

GOLDEN = Path(__file__).with_name("geocd_golden.json")
SEEDS = range(212)
KINDS = ("random", "lattice", "duplicate", "raw")
SURFACES = range(200, 212)
OUTLIER_SEED, OFFSET_SEED = 210, 211
FIT_SEEDS = range(19)
FIT_LARGE, FIT_OVERFLOW, FIT_UNIT_BOX, FIT_NO_CD, FIT_DEFAULT, FIT_SYMMETRIC, FIT_GRID = range(
    12, 19
)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _text_digest(obj) -> str:
    """Digest of ``obj`` as JSON: floats print as their shortest exact repr."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _pair(kind: str, rng, n: int, m: int) -> tuple[PointCloud, PointCloud]:
    if kind == "random":
        pred, gt, _ = normalize_pair(PointCloud(rng.random((n, 3))), PointCloud(rng.random((m, 3))))
        return pred, gt
    if kind == "lattice":
        # multiples of 1/8 in [0, 0.5]^3: exact ties, every distance below 1
        return (
            PointCloud(rng.integers(0, 5, (n, 3)) / 8.0),
            PointCloud(rng.integers(0, 5, (m, 3)) / 8.0),
        )
    if kind == "duplicate":
        p = rng.random((n, 3))
        p[rng.integers(0, n, n // 3)] = p[0]
        q = np.vstack([p[rng.integers(0, n, m // 2)], rng.random((m - m // 2, 3))])
        pred, gt, _ = normalize_pair(PointCloud(p), PointCloud(q))
        return pred, gt
    scale = float(rng.choice([0.25, 0.5, 1.0, 4.0]))  # raw: not normalized
    return PointCloud(scale * rng.random((n, 3))), PointCloud(scale * rng.random((m, 3)))


def intermediates(hop, adj) -> np.ndarray:
    """Each entry's last intermediate, -1 where its walk is a single edge."""
    src = adj.key[hop.edge] // hop.size
    return np.where(src == hop.key // hop.size, -1, src)


def _gradient_summary(g: np.ndarray) -> list[float]:
    w = np.random.default_rng(0).random(g.shape) - 0.5
    return [float(np.sqrt((g * g).sum())), float((g * w).sum())]


def _surface_instance(seed: int) -> tuple[dict, PointCloud, PointCloud]:
    rng = np.random.default_rng(seed)
    shape = SHAPE_KINDS[seed % len(SHAPE_KINDS)]
    n, m = (int(v) for v in rng.integers(300, 2501, 2))
    kind = {OUTLIER_SEED: "outlier", OFFSET_SEED: "offset"}.get(seed, "surface")
    spec = {
        "kind": f"{kind}:{shape}",
        "n": n,
        "m": m,
        "k": 1 + seed % 8,
        "hops": int(rng.integers(1, 3)),
        "mask": bool(rng.random() < 0.5),
        "threshold": None,
        "symmetrize": seed % 2 == 1,
        "tau": 0.01,
        "diag": "gt",
    }
    p = sample_shape(ShapeSpec(shape, n, 0.02, seed)).points
    q = sample_shape(ShapeSpec(shape, m, 0.02, seed + 1000)).points
    if kind == "outlier":
        # a sparse cluster far from the surface, its own kNN lengths far
        # above the surface's
        q = np.vstack([q, 4.0 + 0.5 * rng.random((40, 3))])
        spec["m"] += 40
    if kind == "offset":
        # raw scale: every kNN edge stays below the sentinel 1 without
        # normalizing, at coordinates around 1e6
        offset = np.array([1.0e6, -2.5e6, 3.0e5])
        return spec, PointCloud(p + offset), PointCloud(q + offset)
    pred, gt, _ = normalize_pair(PointCloud(p), PointCloud(q))
    return spec, pred, gt


def instance(seed: int) -> tuple[dict, PointCloud, PointCloud]:
    """The spec and the pair of one seed."""
    if seed in SURFACES:
        return _surface_instance(seed)
    rng = np.random.default_rng(seed)
    kind = KINDS[seed % len(KINDS)]
    n, m = (int(v) for v in rng.integers(1, 41, 2))
    spec = {
        "kind": kind,
        "n": n,
        "m": m,
        "k": int(rng.integers(1, 9)),
        "hops": int(rng.integers(1, 5)),
        "mask": bool(rng.random() < 0.5),
        "threshold": None,
        "symmetrize": bool(rng.random() < 0.5),
        "tau": float(rng.choice([0.01, 0.05, 0.2])),
        "diag": str(rng.choice(["gt", "union"])),
    }
    if spec["mask"] and rng.random() < 0.5:
        spec["threshold"] = float(rng.uniform(0.01, 0.5))
    pred, gt = _pair(kind, rng, n, m)
    return spec, pred, gt


def record(seed: int) -> dict:
    """Everything the golden file holds for one seed."""
    spec, pred, gt = instance(seed)
    out = {"seed": seed}
    try:
        met = evaluate(pred, gt, spec["tau"], spec["diag"])
        out["evaluate"] = _digest(
            np.array([met.cd, met.hd, met.f1, met.precision, met.recall, met.threshold_used])
        )
    except (GeoCdError, ValueError) as exc:
        out["evaluate_error"] = f"{type(exc).__name__}: {exc}"
    mask = MaskConfig(enabled=spec["mask"], threshold=spec["threshold"])
    cfg = GeoCdConfig(k=spec["k"], n_hops=spec["hops"], symmetrize=spec["symmetrize"], mask=mask)
    try:
        z = merge(pred, gt)
        adj = knn_adjacency(z, cfg.k, cfg.symmetrize)
        out["graph"] = _digest(*np.divmod(adj.key, z.size), adj.dist)
        geo = propagate(z, adj, cfg.n_hops, cfg.mask)
        out["hops"] = _digest(
            np.array(geo.masked_per_hop, dtype=np.float64),
            *(a for h in geo.hops for a in (h.key, h.dist, intermediates(h, adj))),
        )
        rep = geocd(pred, gt, cfg, with_grad=True, with_gt_grad=True)
        out["loss"] = rep.value
        out["grad_pred"] = _gradient_summary(rep.grad_pred)
        out["grad_gt"] = _gradient_summary(rep.grad_gt)
    except (GeoCdError, ValueError) as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def _default_fit_instance(
    seed: int, n: int = 512, cfg: FitConfig | None = None
) -> tuple[dict, PointCloud, PointCloud, FitConfig]:
    cfg = cfg or FitConfig()
    spec = {
        "shape": "hemisphere",
        "n": n,
        "m": n,
        "steps_cd": cfg.steps_cd,
        "steps_geocd": cfg.steps_geocd,
        "lr": cfg.lr,
        "k": cfg.geo.k,
        "hops": cfg.geo.n_hops,
        "mask": cfg.geo.mask.enabled,
        "tau": cfg.tau_fraction,
    }
    gt = sample_shape(ShapeSpec("hemisphere", n, seed=seed))
    init, gt, _ = normalize_pair(noisy_copy(gt, 0.05, seed + 1), gt)
    return spec, init, gt, cfg


def _symmetric_fit_instance(seed: int) -> tuple[dict, PointCloud, PointCloud, FitConfig]:
    spec = {
        "shape": "torus",
        "n": 400,
        "m": 400,
        "steps_cd": 50,
        "steps_geocd": 60,
        "lr": 5e-4,
        "k": 8,
        "hops": 2,
        "mask": True,
        "symmetrize": True,
        "tau": 0.01,
    }
    gt = sample_shape(ShapeSpec("torus", 400, seed=seed))
    init, gt, _ = normalize_pair(noisy_copy(gt, 0.05, seed + 1), gt)
    geo = GeoCdConfig(k=8, n_hops=2, symmetrize=True, mask=MaskConfig(enabled=True))
    return spec, init, gt, FitConfig(steps_cd=50, steps_geocd=60, lr=5e-4, geo=geo)


def fit_instance(seed: int) -> tuple[dict, PointCloud, PointCloud, FitConfig]:
    """The spec, the initial guess, the target and the config of one fit."""
    if seed == FIT_DEFAULT:
        return _default_fit_instance(seed)
    if seed == FIT_SYMMETRIC:
        return _symmetric_fit_instance(seed)
    if seed == FIT_GRID:
        return _default_fit_instance(seed, 2048, FitConfig(steps_cd=10, steps_geocd=4))
    rng = np.random.default_rng(10_000 + seed)
    shape = SHAPE_KINDS[seed % len(SHAPE_KINDS)]
    n, m = (int(2.0**v) for v in rng.uniform(4.0, 9.0, 2))  # log-uniform, 16-511
    if seed == FIT_LARGE:
        n = m = 512  # the default fit's size
    spec = {
        "shape": shape,
        "n": n,
        "m": m if seed % 2 else n,
        "steps_cd": 0 if seed == FIT_NO_CD else int(rng.integers(1, 9)),
        "steps_geocd": int(rng.integers(1 if seed in (FIT_UNIT_BOX, FIT_NO_CD) else 0, 4)),
        "lr": {FIT_OVERFLOW: 1e200, FIT_UNIT_BOX: 2.0}.get(seed, float(rng.choice([5e-4, 5e-3]))),
        "k": int(rng.integers(3, 7)),
        "hops": int(rng.integers(1, 4)),
        "mask": seed % 4 < 2,
        "tau": float(rng.choice([0.01, 0.05])),
    }
    gt = sample_shape(ShapeSpec(shape, n, seed=seed))
    if seed % 2:
        init = sample_shape(ShapeSpec(shape, spec["m"], noise_sigma=0.03, seed=seed + 500))
    else:
        init = noisy_copy(gt, 0.05, seed + 1)
    init, gt, _ = normalize_pair(init, gt)
    geo = GeoCdConfig(k=spec["k"], n_hops=spec["hops"], mask=MaskConfig(enabled=spec["mask"]))
    cfg = FitConfig(
        steps_cd=spec["steps_cd"],
        steps_geocd=spec["steps_geocd"],
        lr=spec["lr"],
        geo=geo,
        tau_fraction=spec["tau"],
    )
    return spec, init, gt, cfg


def fit_record(seed: int) -> dict:
    """Everything the golden file holds for one fit."""
    _, init, gt, cfg = fit_instance(seed)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflowing fit
        trace = fit(init, gt, cfg)
    return {
        "seed": seed,
        "steps": _text_digest([dataclasses.astuple(s) for s in trace.steps]),
        "final_pred": _digest(trace.final_pred.points),
        "final": _text_digest(trace.final),
        "aborted": trace.aborted,
    }


def main() -> None:
    # one record per line, so that a re-recording diffs by seed
    lines = ",\n".join(json.dumps(record(s), separators=(",", ":")) for s in SEEDS)
    fits = ",\n".join(json.dumps(fit_record(s), separators=(",", ":")) for s in FIT_SEEDS)
    numpy = json.dumps(np.__version__)
    GOLDEN.write_text(
        f'{{"numpy":{numpy},"instances":[\n{lines}\n],"fits":[\n{fits}\n]}}\n',
        encoding="utf-8",
    )
    print(f"wrote {len(SEEDS)} instances and {len(FIT_SEEDS)} fits to {GOLDEN}")


if __name__ == "__main__":
    main()
