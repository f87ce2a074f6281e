"""The three benchmark workloads: inputs from a seed, one op, and its output check.

Every op gets inputs of its own, derived from (seed, op index), so a cache
of results across calls cannot show a fake gain. Ops call geocd through
module attributes looked up at call time, so the tracer's wrappers apply.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import importlib
import json
import math
from pathlib import Path

import numpy as np

import geocd

gcli = importlib.import_module("geocd.cli")
gfit = importlib.import_module("geocd.fit")
gloss = importlib.import_module("geocd.loss")

KINDS = gfit.SHAPE_KINDS
# the warm-up op of worker process w uses index WARMUP_INDEX + w
WARMUP_INDEX = 1000
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def derive(seed: int, index: int, stream: int) -> int:
    """Independent generator seed for one input stream of one op."""
    return int(np.random.SeedSequence([seed, index, stream]).generate_state(1)[0])


def _pair(seed: int, index: int, kind: str, n: int, sigma: float):
    gt = geocd.sample_shape(geocd.ShapeSpec(kind, n, seed=derive(seed, index, 0)))
    return geocd.noisy_copy(gt, sigma, derive(seed, index, 1)), gt


def compare(fields: dict, ref: dict | None, tol: dict) -> list[str]:
    """Problems with one op's output fields: non-finite, or off the reference.

    ``tol`` maps a field to (rtol, atol); a field passes when
    |value - ref| <= atol + rtol * |ref|. Without a reference only
    finiteness is checked.
    """
    problems = [
        f"{k}={v!r} is not finite" for k, v in fields.items() if v is None or not math.isfinite(v)
    ]
    if ref is None or problems:
        return problems
    for k, (rtol, atol) in tol.items():
        if k not in fields:
            problems.append(f"{k} missing")
        elif not abs(fields[k] - ref[k]) <= atol + rtol * abs(ref[k]):
            problems.append(f"{k}={fields[k]!r} differs from reference {ref[k]!r}")
    return problems


class TrainStep:
    """One fine-tuning step: ``geocd`` with gradient on a normalized pair."""

    name = "train-step"
    warm = True
    cfg = geocd.GeoCdConfig(k=5, n_hops=2, mask=geocd.MaskConfig(enabled=True))
    # a pure speed change may reorder sums, nothing more
    tol = {"value": (1e-9, 0.0), "grad_norm": (1e-9, 0.0)}

    def __init__(self, smoke: bool, workdir: Path):
        self.n = 64 if smoke else 2048

    def inputs(self, seed: int, index: int):
        pred, gt = _pair(seed, index, KINDS[index % len(KINDS)], self.n, 0.02)
        pred, gt, _ = geocd.normalize_pair(pred, gt)
        return pred, gt

    def op(self, inputs):
        pred, gt = inputs
        return gloss.geocd(pred, gt, self.cfg, with_grad=True)

    def outputs(self, inputs, rep) -> tuple[dict, list[str]]:
        pred, _ = inputs
        problems = []
        if rep.grad_pred is None or rep.grad_pred.shape != pred.points.shape:
            problems.append("gradient missing or of the wrong shape")
            return {"value": rep.value}, problems
        if rep.grad_gt is not None:
            problems.append("ground-truth gradient returned without being asked for")
        return {"value": rep.value, "grad_norm": float(np.linalg.norm(rep.grad_pred))}, problems


class DeepWalks:
    """The ``compute`` command on raw xyz files, with deep walks and no gradient."""

    name = "deep-walks"
    warm = True
    hops = 3
    args = ("--k", "8", "--hops", str(hops))
    tol = {
        "geocd.value": (1e-9, 0.0),
        "cd": (1e-9, 0.0),
        "hd": (1e-9, 0.0),
        "f1.fraction": (0.0, 1e-12),
    }

    def __init__(self, smoke: bool, workdir: Path):
        self.n = 64 if smoke else 1024
        self.workdir = workdir

    def inputs(self, seed: int, index: int):
        pred, gt = _pair(seed, index, KINDS[index % len(KINDS)], self.n, 0.02)
        # raw coordinates: compute must normalize them itself
        rng = np.random.default_rng(derive(seed, index, 2))
        scale, shift = rng.uniform(2.0, 20.0), rng.uniform(-50.0, 50.0, size=3)
        paths = [self.workdir / f"{stem}-{index}.xyz" for stem in ("pred", "gt")]
        for cloud, path in zip((pred, gt), paths):
            geocd.write_cloud(geocd.PointCloud(cloud.points * scale + shift), path)
        return paths + [self.workdir / f"report-{index}.json"]

    def op(self, paths):
        pred, gt, report = map(str, paths)
        return gcli.main(["compute", pred, gt, *self.args, "--json", report])

    def outputs(self, paths, code) -> tuple[dict, list[str]]:
        if code != 0:
            return {}, [f"compute exited with {code}"]
        rep = json.loads(paths[2].read_text(encoding="utf-8"))
        problems = []
        if rep["geocd"]["diagnostics"]["hops_used"] != self.hops:
            problems.append(f"hops_used {rep['geocd']['diagnostics']['hops_used']} != {self.hops}")
        fields = {
            "geocd.value": rep["geocd"]["value"],
            "cd": rep["cd"],
            "hd": rep["hd"],
            "f1.fraction": rep["f1"]["fraction"],
        }
        return fields, problems


class ColdFit:
    """One default two-phase ``fit`` (hemisphere, 512 points, noise 0.05)."""

    name = "cold-fit"
    warm = False
    # 220 Adam steps may amplify a reordered sum; F1 counts points, so it
    # must not move
    tol = {"cd": (1e-6, 0.0), "f1": (0.0, 1e-9)}

    def __init__(self, smoke: bool, workdir: Path):
        self.n = 64 if smoke else 512
        self.cfg = gfit.FitConfig(steps_cd=4, steps_geocd=2) if smoke else gfit.FitConfig()

    def inputs(self, seed: int, index: int):
        init, gt = _pair(seed, index, "hemisphere", self.n, 0.05)
        init, gt, _ = geocd.normalize_pair(init, gt)
        return init, gt

    def op(self, inputs):
        init, gt = inputs
        return gfit.fit(init, gt, self.cfg)

    def outputs(self, inputs, trace) -> tuple[dict, list[str]]:
        init, _ = inputs
        problems = []
        if trace.aborted is not None:
            problems.append(f"fit aborted in phase {trace.aborted}")
        if len(trace.steps) != self.cfg.steps_cd + self.cfg.steps_geocd:
            problems.append(f"{len(trace.steps)} steps recorded")
        if trace.final_pred.points.shape != init.points.shape:
            problems.append("final prediction has the wrong shape")
        return {"cd": trace.final["cd"], "f1": trace.final["f1"]}, problems


WORKLOADS = {w.name: w for w in (TrainStep, DeepWalks, ColdFit)}


def load_reference(workload: str, seed: int) -> dict:
    """Recorded output fields of this seed, by op index (as a string)."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed), {})
