"""Spans recorded from outside the program, and the per-layer metrics built from them.

The benchmark never edits geocd. In a traced worker it replaces module
attributes (``geocd.loss.knn_adjacency``, ``geocd.fit.Adam.step``, ...) with
wrappers for the life of that process. A wrapper records the span's name,
start, end, parent id and a few attributes of the call, in memory; the
worker hands the list to the orchestrator, which writes it out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

# (module, attribute path, span name). One function imported into several
# modules is wrapped in each of them, under one span name.
HOOKS = (
    ("geocd.fit", "fit", "fit.fit"),
    ("geocd.fit", "Adam.step", "fit.adam_step"),
    ("geocd.loss", "geocd", "loss.geocd"),
    ("geocd.fit", "geocd", "loss.geocd"),
    ("geocd.cli", "geocd", "loss.geocd"),
    ("geocd.loss", "knn_adjacency", "graph.knn_adjacency"),
    ("geocd.loss", "propagate", "geodesic.propagate"),
    ("geocd.fit", "chamfer", "loss.chamfer"),
    ("geocd.metrics", "chamfer", "loss.chamfer"),
    ("geocd.fit", "evaluate", "metrics.evaluate"),
    ("geocd.cli", "evaluate", "metrics.evaluate"),
    ("geocd.metrics", "hausdorff", "metrics.hausdorff"),
    ("geocd.metrics", "f1_at", "metrics.f1_at"),
    ("geocd.graph", "pairwise_distances", "distances.pairwise_distances"),
    ("geocd.loss", "pairwise_distances", "distances.pairwise_distances"),
    ("geocd.metrics", "pairwise_distances", "distances.pairwise_distances"),
    ("geocd.cli", "read_cloud", "io.read_cloud"),
    ("geocd.cli", "normalize_pair", "cloud.normalize_pair"),
    ("geocd.cli", "cmd_compute", "cli.compute"),
)


def _call_attrs(name, args, out) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if name == "distances.pairwise_distances":
        return {"entries": len(args[0]) * len(args[1])}
    if name == "graph.knn_adjacency":
        return {"n": args[0].size}
    if name == "geodesic.propagate":
        return {"n": args[0].size, "hops": out.hops_used}
    if name == "loss.geocd":
        d = out.diagnostics
        return {"sentinel_fraction": d["sentinel_fraction"], "masked_fraction": d["masked_fraction"]}
    return {}


class Tracer:
    """Records nested spans while ``enabled``; costs one flag test otherwise."""

    def __init__(self, id_base: int = 0):
        self.spans: list[dict] = []
        self.missing: set[str] = set()
        self.enabled = False
        self._stack: list[dict] = []
        self._next_id = id_base
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str, **attrs) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": self._next_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else self._next_id,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self._next_id += 1
        self._stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            span["attrs"].update(_call_attrs(name, args, out))
            return out

        return wrapper

    def install(self, hooks=HOOKS) -> None:
        """Wrap every hook target that exists; remember the names that do not."""
        for module_name, path, name in hooks:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            setattr(owner, attr, self.wrap(original, name))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def tail_percentile(samples: list[float], beyond: int = 10):
    """Highest whole percentile with at least ``beyond`` samples above it.

    Returns (percentile, value, samples beyond) or None when there are too
    few samples for any percentile to qualify.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return None
    for p in range(99, -1, -1):
        rank = max(0, -(-p * n // 100) - 1)  # nearest-rank: ceil(p*n/100)-th sample
        if n - 1 - rank >= beyond:
            return p, xs[rank], n - 1 - rank
    return None


def fit_steps(spans: list[dict]) -> dict[str, list[float]]:
    """Seconds per fit step and phase, from the direct children of ``fit.fit``.

    A step runs from the start of its loss call to the end of its Adam step.
    """
    steps: dict[str, list[float]] = {"loss.chamfer": [], "loss.geocd": []}
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    for fit_span in (s for s in spans if s["name"] == "fit.fit"):
        loss = None
        for s in sorted(kids[fit_span["id"]], key=lambda s: s["start"]):
            if s["name"] in steps:
                loss = s
            elif s["name"] == "fit.adam_step" and loss is not None:
                steps[loss["name"]].append(s["end"] - loss["start"])
                loss = None
    return steps


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


# metric -> span names it is built from; any of them missing makes it None
SOURCES = {
    "graph.knn_adjacency.self_s": ("graph.knn_adjacency",),
    "graph.knn_adjacency.calls": ("graph.knn_adjacency",),
    "graph.bytes": ("graph.knn_adjacency",),
    "geodesic.propagate.self_s": ("geodesic.propagate",),
    "geodesic.propagate.calls": ("geodesic.propagate",),
    "geodesic.hop_s": ("geodesic.propagate",),
    "geodesic.state_bytes": ("geodesic.propagate",),
    "geodesic.reachable_cross_frac": ("loss.geocd",),
    "geodesic.active_row_frac": ("loss.geocd",),
    "loss.geocd.self_s": ("loss.geocd",),
    "loss.chamfer.self_s": ("loss.chamfer",),
    "loss.chamfer.calls": ("loss.chamfer",),
    "metrics.evaluate.self_s": ("metrics.evaluate",),
    "metrics.evaluate.calls": ("metrics.evaluate",),
    "metrics.hausdorff.self_s": ("metrics.hausdorff",),
    "metrics.f1_at.self_s": ("metrics.f1_at",),
    "distances.pairwise_distances.self_s": ("distances.pairwise_distances",),
    "distances.pairwise_distances.calls": ("distances.pairwise_distances",),
    "distances.pairwise_entries": ("distances.pairwise_distances",),
    "fit.step_cd_s": ("fit.fit", "fit.adam_step", "loss.chamfer"),
    "fit.step_geocd_s": ("fit.fit", "fit.adam_step", "loss.geocd"),
    "fit.adam_step.self_s": ("fit.adam_step",),
    "io.read_cloud.self_s": ("io.read_cloud",),
    "cloud.normalize_pair.self_s": ("cloud.normalize_pair",),
    "cli.compute.self_s": ("cli.compute",),
}

# bytes of the dense arrays that stay alive, computed from N and the dtypes:
# Adjacency holds float64 lengths and a bool edge mask; each hop state holds
# float64 distances and int32 predecessors.
ADJ_BYTES_PER_ENTRY = 8 + 1
STATE_BYTES_PER_ENTRY = 8 + 4


def layer_metrics(spans: list[dict], n_ops: int, missing=frozenset()) -> dict:
    """Per-layer metrics of traced ops. Times and counts are per op.

    A layer the workload never reached reads 0; a layer whose hook target
    no longer exists reads None.
    """
    st = self_times(spans)
    by: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    per_op = 1.0 / max(n_ops, 1)

    def self_s(name):
        return sum(st[s["id"]] for s in by[name]) * per_op

    def calls(name):
        return len(by[name]) * per_op

    prop = by["geodesic.propagate"]
    extra_hops = sum(s["attrs"]["hops"] - 1 for s in prop)
    steps = fit_steps(spans)
    m = {
        "graph.knn_adjacency.self_s": self_s("graph.knn_adjacency"),
        "graph.knn_adjacency.calls": calls("graph.knn_adjacency"),
        "graph.bytes": max(
            (s["attrs"]["n"] ** 2 * ADJ_BYTES_PER_ENTRY for s in by["graph.knn_adjacency"]),
            default=0,
        ),
        "geodesic.propagate.self_s": self_s("geodesic.propagate"),
        "geodesic.propagate.calls": calls("geodesic.propagate"),
        "geodesic.hop_s": (
            sum(st[s["id"]] for s in prop if s["attrs"]["hops"] > 1) / extra_hops
            if extra_hops
            else 0.0
        ),
        "geodesic.state_bytes": max(
            (s["attrs"]["hops"] * s["attrs"]["n"] ** 2 * STATE_BYTES_PER_ENTRY for s in prop),
            default=0,
        ),
        "geodesic.reachable_cross_frac": _mean(
            [1.0 - s["attrs"]["sentinel_fraction"] for s in by["loss.geocd"]]
        ),
        "geodesic.active_row_frac": _mean(
            [1.0 - s["attrs"]["masked_fraction"] for s in by["loss.geocd"]]
        ),
        "loss.geocd.self_s": self_s("loss.geocd"),
        "loss.chamfer.self_s": self_s("loss.chamfer"),
        "loss.chamfer.calls": calls("loss.chamfer"),
        "metrics.evaluate.self_s": self_s("metrics.evaluate"),
        "metrics.evaluate.calls": calls("metrics.evaluate"),
        "metrics.hausdorff.self_s": self_s("metrics.hausdorff"),
        "metrics.f1_at.self_s": self_s("metrics.f1_at"),
        "distances.pairwise_distances.self_s": self_s("distances.pairwise_distances"),
        "distances.pairwise_distances.calls": calls("distances.pairwise_distances"),
        "distances.pairwise_entries": sum(
            s["attrs"]["entries"] for s in by["distances.pairwise_distances"]
        )
        * per_op,
        "fit.step_cd_s": _median(steps["loss.chamfer"]),
        "fit.step_geocd_s": _median(steps["loss.geocd"]),
        "fit.adam_step.self_s": self_s("fit.adam_step"),
        "io.read_cloud.self_s": self_s("io.read_cloud"),
        "cloud.normalize_pair.self_s": self_s("cloud.normalize_pair"),
        "cli.compute.self_s": self_s("cli.compute"),
    }
    for metric, names in SOURCES.items():
        if any(n in missing for n in names):
            m[metric] = None
    return m
