"""Command-line interface.

Subcommands: compute, fit, verify, sweep, convert. Reports are JSON
(validating against ``schemas/report.schema.json``) and fit/sweep traces
are CSV, so external plotters can pick them up directly.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 config
error (including a pair whose kNN edges exceed the sentinel, and a merged
set beyond ``geodesic.MAX_POINTS`` with more than one hop).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from . import __version__
from .cloud import PointCloud, normalize_pair
from .errors import (
    DegenerateCloudError,
    DimensionMismatchError,
    EmptyFileError,
    GeoCdError,
    KTooLargeError,
    NormalizationError,
    ParseError,
)
from .fit import FitConfig, ShapeSpec, fit, noisy_copy, sample_shape, SHAPE_KINDS
from .geodesic import MaskConfig
from .io import FORMAT_BINARY, FORMAT_XYZ, read_cloud, write_cloud
from .loss import GeoCdConfig, geocd
from .metrics import evaluate
from .verify import run_verification

SWEEP_AXES = ("k", "hops", "mask-threshold", "steps-geocd")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _manifest(subcommand: str, args, config: dict, timings: dict, seed=None) -> dict:
    return {
        "subcommand": subcommand,
        "version": __version__,
        "seed": seed,
        "deterministic": bool(getattr(args, "deterministic", False)),
        "config": config,
        "timings": timings,
    }


def _emit_json(obj: dict, path: str | Path | None) -> None:
    text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _mask_config(args) -> MaskConfig:
    if args.mask_threshold is not None:
        return MaskConfig(enabled=True, threshold=args.mask_threshold)
    return MaskConfig(enabled=args.mask)


def _geo_config(args) -> GeoCdConfig:
    return GeoCdConfig(
        k=args.k,
        n_hops=args.hops,
        symmetrize=args.symmetrize,
        mask=_mask_config(args),
    )


def _geo_echo(args, geo: GeoCdConfig) -> dict:
    """The geodesic settings a report echoes into its ``config``."""
    return {
        "k": geo.k,
        "hops": geo.n_hops,
        "symmetrize": geo.symmetrize,
        "mask": geo.mask.enabled,
        "mask_threshold": geo.mask.threshold,
        "tau_fraction": args.tau,
    }


def _add_geo_flags(p: argparse.ArgumentParser, geo: GeoCdConfig) -> None:
    """Geodesic flags, with ``geo``'s fields as their defaults."""
    p.add_argument("--k", type=int, default=geo.k, help="neighbours per point (default %(default)s)")
    p.add_argument("--hops", type=int, default=geo.n_hops, help="propagation hops (default %(default)s)")
    p.add_argument("--symmetrize", action="store_true", help="add reverse edges to the kNN graph")
    p.add_argument(
        "--mask",
        action=argparse.BooleanOptionalAction,
        default=geo.mask.enabled,
        help="freeze points once matched across sets",
    )
    p.add_argument(
        "--mask-threshold",
        type=float,
        default=geo.mask.threshold,
        help="explicit mask threshold (implies --mask; default 2x mean edge length)",
    )


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    cfg = FitConfig()
    p.add_argument("--target", choices=SHAPE_KINDS, default="hemisphere")
    p.add_argument("--target-file", default=None, help="fit against this cloud instead of a shape")
    p.add_argument("--init-file", default=None, help="initial guess (default: noisy target copy)")
    p.add_argument("--n-points", type=int, default=512)
    p.add_argument("--noise", type=float, default=0.05, help="sigma of the initial perturbation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps-cd", type=int, default=cfg.steps_cd)
    p.add_argument("--steps-geocd", type=int, default=cfg.steps_geocd)
    p.add_argument("--lr", type=float, default=cfg.lr)
    _add_geo_flags(p, cfg.geo)
    p.add_argument("--tau", type=float, default=cfg.tau_fraction)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--deterministic", action="store_true", help="mark the run bitwise-reproducible in the manifest"
    )


def cmd_compute(args) -> int:
    t_start = time.perf_counter()
    pred = read_cloud(args.pred, args.format)
    gt = read_cloud(args.gt, args.format)
    if args.no_normalize:
        # caller asserts the inputs already satisfy the <1 pairwise bound
        pred_n, gt_n, transform = pred, gt, None
    else:
        pred_n, gt_n, transform = normalize_pair(pred, gt)

    cfg = _geo_config(args)
    rep = geocd(pred_n, gt_n, cfg)
    try:
        met = evaluate(pred_n, gt_n, args.tau, args.f1_diag)
    except DegenerateCloudError as exc:
        if args.f1_diag != "gt":
            raise
        raise DegenerateCloudError(
            f"{exc}; a target whose points all coincide has no box of its own, "
            "so pass --f1-diag union to use the box of both clouds"
        ) from exc

    diagnostics = dict(rep.diagnostics)
    stage_timings = diagnostics.pop("timings", {})
    timings = {**stage_timings, "total": time.perf_counter() - t_start}
    config = {
        "pred": str(args.pred),
        "gt": str(args.gt),
        "format": args.format,
        **_geo_echo(args, cfg),
        "f1_diag": args.f1_diag,
        "normalize": not args.no_normalize,
    }
    out = {
        "manifest": _manifest("compute", args, config, timings),
        "cd": met.cd,
        "geocd": {"value": rep.value, "diagnostics": diagnostics},
        "hd": met.hd,
        "f1": {
            "fraction": met.f1,
            "percent": 100.0 * met.f1,
            "precision": met.precision,
            "recall": met.recall,
            "threshold": met.threshold_used,
        },
    }
    if transform is not None:
        out["normalization"] = {
            "translation": [float(v) for v in transform.translation],
            "scale": transform.scale,
        }
    _emit_json(out, args.json)
    return 0


def _build_fit_pair(args) -> tuple[PointCloud, PointCloud]:
    """Target plus initial guess, in raw coordinates."""
    if args.target_file:
        gt = read_cloud(args.target_file)
    else:
        gt = sample_shape(ShapeSpec(args.target, args.n_points, seed=args.seed))
    if args.init_file:
        init = read_cloud(args.init_file)
    else:
        init = noisy_copy(gt, args.noise, args.seed + 1)
    return init, gt


def _fit_config(args) -> FitConfig:
    return FitConfig(
        steps_cd=args.steps_cd,
        steps_geocd=args.steps_geocd,
        lr=args.lr,
        geo=_geo_config(args),
        seed=args.seed,
        tau_fraction=args.tau,
    )


def _write_trace(path: Path, steps) -> None:
    lines = ["phase,step,loss,cd,hd,f1"]
    for s in steps:
        lines.append(
            f"{s.phase},{s.step},{_fmt(s.loss)},{_fmt(s.cd)},{_fmt(s.hd)},{_fmt(s.f1)}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_fit(args) -> int:
    t_start = time.perf_counter()
    init_raw, gt_raw = _build_fit_pair(args)
    init, gt, transform = normalize_pair(init_raw, gt_raw)
    cfg = _fit_config(args)
    trace = fit(init, gt, cfg)
    elapsed = time.perf_counter() - t_start

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_trace(out_dir / "trace.csv", trace.steps)
    write_cloud(init, out_dir / "initial_pred.xyz", FORMAT_XYZ)
    write_cloud(trace.final_pred, out_dir / "final_pred.xyz", FORMAT_XYZ)
    write_cloud(gt, out_dir / "target.xyz", FORMAT_XYZ)

    config = {
        "target": args.target if not args.target_file else str(args.target_file),
        "n_points": args.n_points,
        "noise": args.noise,
        "steps_cd": args.steps_cd,
        "steps_geocd": args.steps_geocd,
        "lr": args.lr,
        **_geo_echo(args, cfg.geo),
        "normalization": {
            "translation": [float(v) for v in transform.translation],
            "scale": transform.scale,
        },
    }
    timings = {"total": elapsed}
    for phase, seconds in trace.step_seconds.items():
        timings[f"{phase}_step_s"] = statistics.median(seconds)
    manifest = {
        "manifest": _manifest("fit", args, config, timings, seed=args.seed),
        "final": trace.final,
        "aborted": trace.aborted,
        "outputs": {
            "trace": str(out_dir / "trace.csv"),
            "initial_pred": str(out_dir / "initial_pred.xyz"),
            "final_pred": str(out_dir / "final_pred.xyz"),
            "target": str(out_dir / "target.xyz"),
        },
    }
    _emit_json(manifest, out_dir / "manifest.json")
    if not args.quiet:
        _emit_json(manifest["final"], None)
    return 0


def cmd_verify(args) -> int:
    t_start = time.perf_counter()
    report = run_verification(
        trials=args.trials,
        seed=args.seed,
        size_range=(args.min_points, args.max_points),
        grad_trials=args.grad_trials,
    )
    config = {
        "trials": args.trials,
        "grad_trials": args.grad_trials,
        "min_points": args.min_points,
        "max_points": args.max_points,
    }
    out = {
        "manifest": _manifest(
            "verify", args, config, {"total": time.perf_counter() - t_start}, seed=args.seed
        ),
        **report,
    }
    _emit_json(out, args.json)
    return 0 if report["passed"] else 1


def _sweep_value(axis: str, raw: str):
    return float(raw) if axis == "mask-threshold" else int(raw)


def cmd_sweep(args) -> int:
    values = [_sweep_value(args.axis, v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("sweep needs at least one value")
    init_raw, gt_raw = _build_fit_pair(args)
    init, gt, _ = normalize_pair(init_raw, gt_raw)

    attr = args.axis.replace("-", "_")  # the parsed flag that the axis sets
    rows = ["axis,value,cd,hd,f1,geocd_loss,mean_geo_cross,seconds,error"]
    for value in values:
        t0 = time.perf_counter()
        try:
            # row v runs what ``geocd fit ... --<axis> v`` runs
            cfg = _fit_config(argparse.Namespace(**{**vars(args), attr: value}))
            # graph statistics on the shared initial pair: rows are comparable
            mean_cross = geocd(init, gt, cfg.geo).diagnostics["mean_cross_distance"]
            trace = fit(init, gt, cfg)
            f = trace.final
            geocd_loss = f["geocd_loss"]
            rows.append(
                f"{args.axis},{value},{_fmt(f['cd'])},{_fmt(f['hd'])},{_fmt(f['f1'])},"
                f"{_fmt(geocd_loss) if geocd_loss is not None else ''},"
                f"{_fmt(mean_cross)},{_fmt(time.perf_counter() - t0)},"
            )
        except (GeoCdError, ValueError) as exc:
            rows.append(
                f"{args.axis},{value},,,,,,{_fmt(time.perf_counter() - t0)},"
                f"{type(exc).__name__}: {exc}"
            )
    text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_convert(args) -> int:
    cloud = read_cloud(args.input, "auto")
    write_cloud(cloud, args.output, args.to)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geocd",
        description="Topology-aware geodesic Chamfer distance over point clouds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="losses and metrics for one cloud pair")
    p.add_argument("pred", help="predicted cloud file")
    p.add_argument("gt", help="ground-truth cloud file")
    p.add_argument("--format", choices=("auto", FORMAT_XYZ, FORMAT_BINARY), default="auto")
    _add_geo_flags(p, GeoCdConfig())
    p.add_argument(
        "--no-normalize",
        action="store_true",
        help="skip joint normalization; inputs must already keep all pairwise distances below 1",
    )
    p.add_argument(
        "--tau", type=float, default=0.01, help="F1 threshold fraction (default %(default)s)"
    )
    p.add_argument("--f1-diag", choices=("gt", "union"), default="gt")
    p.add_argument("--json", default=None, help="write the report here instead of stdout")
    _add_common_flags(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("fit", help="two-phase coordinate fit against a target")
    _add_fit_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--quiet", action="store_true")
    _add_common_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify", help="randomized oracle and gradient checks")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--grad-trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-points", type=int, default=16)
    p.add_argument("--max-points", type=int, default=32)
    p.add_argument("--json", default=None)
    _add_common_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="repeat fit across one parameter axis")
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    _add_fit_flags(p)
    p.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    _add_common_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("convert", help="convert between xyz text and binary")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--to", choices=(FORMAT_XYZ, FORMAT_BINARY), required=True)
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, EmptyFileError, DegenerateCloudError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KTooLargeError, DimensionMismatchError, NormalizationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
