"""Print one sha256 digest per fixed-seed instance, to compare two trees' outputs.

Run from the repository root on each tree, then ``diff`` the two files:

    PYTHONPATH=src:tests python -m golden.digests > digests.txt

Each line reads ``family seed digest``, the digest taken over the outputs'
raw bytes, or over an error's text. The families:

* ``records``: every hop record (keys, lengths, last edges), the masked
  shares and the per-hop counts of a full ``propagate`` on the pair of
  ``golden.generate.instance(seed)``;
* ``records-span``: the same with ``geodesic.SPAN`` forced to 7, so that
  nearly every row is a range of its own;
* ``loss``: ``geocd``'s value, both gradients and every diagnostic but the
  timings and the per-hop counts, on the same pair;
* ``counts``: ``geocd``'s ``hop_entries`` and ``improved_per_hop``, which
  count the last hop's cross walks only;
* ``fit``: a default ``fit`` run from the CLI at ``--seed seed``, its
  ``trace.csv`` and final points;
* ``graph``: the ``knn_adjacency`` record (keys, lengths, edges) of the
  same pair, at its ``k`` and ``symmetrize``;
* ``nearest``: the outputs of ``nearest`` and of ``graph.GraphNearest``
  reading that graph, with the read's ``rows_asked`` and ``rows_searched``;
* ``xyz``: ``read_cloud``'s points, or its error's text, on an xyz file
  that ``xyz_text(seed)`` writes: UTF-8 records in one of several number
  formats, with exotic spaces, comments, blank lines, a byte-order mark or
  ``\r`` newlines, and on about a third of the seeds a fault.

Every instance is drawn from its seed alone, so two trees that compute the
same outputs print the same lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from geocd import GeoCdConfig, GeoCdError, MaskConfig, geocd, geodesic, knn_adjacency, merge
from geocd import propagate, read_cloud
from geocd.cli import main as cli_main
from geocd.distances import nearest
from geocd.graph import GraphNearest
from golden.generate import SEEDS, instance

FIT_SEEDS = range(8)
XYZ_SEEDS = range(64)
COUNTS = ("hop_entries", "improved_per_hop")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part)
            h.update(f"{part.dtype.str}{part.shape}".encode())
            part = part.tobytes()
        elif isinstance(part, str):
            part = part.encode()
        h.update(part)
    return h.hexdigest()


def _config(spec: dict) -> GeoCdConfig:
    mask = MaskConfig(enabled=spec["mask"], threshold=spec["threshold"])
    return GeoCdConfig(k=spec["k"], n_hops=spec["hops"], symmetrize=spec["symmetrize"], mask=mask)


def _guarded(fn):
    """``fn``'s digest, or the digest of the error it raises."""
    try:
        return fn()
    except (GeoCdError, ValueError) as exc:
        return _digest(f"{type(exc).__name__}: {exc}")


def graph(seed: int) -> str:
    spec, pred, gt = instance(seed)

    def run():
        adj = knn_adjacency(merge(pred, gt), spec["k"], spec["symmetrize"])
        return _digest(adj.key, adj.dist, adj.edge, str(adj.size))

    return _guarded(run)


def nearest_reads(seed: int) -> str:
    spec, pred, gt = instance(seed)

    def run():
        adj = knn_adjacency(merge(pred, gt), spec["k"], spec["symmetrize"])
        read = GraphNearest(adj, spec["k"])
        p, q = pred.points, gt.points
        got = read(p, q)
        counts = json.dumps([read.rows_asked, read.rows_searched])
        return _digest(*nearest(p, q), *got, counts)

    return _guarded(run)


def records(seed: int) -> str:
    spec, pred, gt = instance(seed)
    cfg = _config(spec)

    def run():
        z = merge(pred, gt)
        geo = propagate(z, knn_adjacency(z, cfg.k, cfg.symmetrize), cfg.n_hops, cfg.mask)
        counts = json.dumps([geo.masked_per_hop, geo.hop_entries, geo.improved_per_hop])
        return _digest(*(a for hop in geo.hops for a in (hop.key, hop.dist, hop.edge)), counts)

    return _guarded(run)


def records_span(seed: int) -> str:
    span = geodesic.SPAN
    geodesic.SPAN = 7
    try:
        return records(seed)
    finally:
        geodesic.SPAN = span


def _loss(seed: int):
    spec, pred, gt = instance(seed)
    return geocd(pred, gt, _config(spec), with_grad=True, with_gt_grad=True)


def loss(seed: int) -> str:
    def run():
        rep = _loss(seed)
        rest = {k: v for k, v in rep.diagnostics.items() if k not in ("timings", *COUNTS)}
        value = np.array([rep.value])
        return _digest(value, rep.grad_pred, rep.grad_gt, json.dumps(rest, sort_keys=True))

    return _guarded(run)


def counts(seed: int) -> str:
    return _guarded(lambda: _digest(json.dumps([_loss(seed).diagnostics[k] for k in COUNTS])))


def fit(seed: int) -> str:
    with tempfile.TemporaryDirectory() as out:
        argv = ["fit", "--seed", str(seed), "--out-dir", out, "--quiet"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        files = [Path(out, name) for name in ("trace.csv", "final_pred.xyz")]
        return _digest(str(code), *(f.read_bytes() for f in files if f.exists()))


SPACES = (" ", " ", " ", "  ", "\t", "\x0b", "\x0c", "\x1f", "\xa0", "\u2003", "\x85")
FORMATS = ("{!r}", "{:.9g}", "{:.3e}", "{:+.6f}", "{:.17g}")
FAULTS = ("2 tokens", "4 tokens", "x", "nan", "-inf", "1e999", "# inline", "no records")


def xyz_text(seed: int) -> str:
    """The text of the ``xyz`` family's file for ``seed``."""
    rng = np.random.default_rng([seed, 7])
    n = int(rng.integers(1, 40))
    scale = 10.0 ** float(rng.choice([0, 0, -3, 5, -300, 300, -318]))
    fmt = FORMATS[rng.integers(len(FORMATS))]
    rows = [[fmt.format(float(v)) for v in xyz] for xyz in rng.normal(size=(n, 3)) * scale]
    if rng.random() < 0.2:  # a token that only Python's float reads
        rows[rng.integers(n)][rng.integers(3)] = rng.choice(["1_000.25", "-\u0661\u0662.5e-1"])
    fault = FAULTS[rng.integers(len(FAULTS))] if rng.random() < 0.35 else None
    row = rows[rng.integers(n)]
    if fault == "2 tokens":
        row.pop()
    elif fault == "4 tokens":
        row.append("1")
    elif fault == "# inline":
        row.append("# note")
    elif fault is not None:
        row[rng.integers(3)] = fault
    lines = ["".join(t + str(rng.choice(SPACES)) for t in r).rstrip(" ") for r in rows]
    if fault == "no records":
        lines = ["# " + line for line in lines]
    for _ in range(int(rng.integers(0, 4))):  # comments and blank lines
        at = int(rng.integers(len(lines) + 1))
        lines.insert(at, str(rng.choice(["# header", "", " ", "\xa0"])))
    end = str(rng.choice(["\n", "\n", "\r\n", "\r"]))
    mark = "\ufeff" if rng.random() < 0.2 else ""
    return mark + end.join(lines) + end * int(rng.integers(2))


def xyz(seed: int) -> str:
    with tempfile.TemporaryDirectory() as out:
        path = Path(out, "cloud.xyz")
        path.write_text(xyz_text(seed), encoding="utf-8", newline="")
        try:
            return _digest(read_cloud(path).points)
        except GeoCdError as exc:
            return _digest(f"{type(exc).__name__}: {str(exc).replace(out, '')}")


FAMILIES = {
    "records": (records, SEEDS),
    "records-span": (records_span, SEEDS),
    "loss": (loss, SEEDS),
    "counts": (counts, SEEDS),
    "fit": (fit, FIT_SEEDS),
    "graph": (graph, SEEDS),
    "nearest": (nearest_reads, SEEDS),
    "xyz": (xyz, XYZ_SEEDS),
}


def lines(family: str, seeds) -> list[str]:
    fn = FAMILIES[family][0]
    return [f"{family} {seed} {fn(seed)}" for seed in seeds]


def main() -> int:
    for family, (_, seeds) in FAMILIES.items():
        for line in lines(family, seeds):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
