"""geocd benchmark: run one workload in fresh processes, check it, report metrics.

    python3 perfbench/run.py --workload train-step --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Each workload runs in fresh worker
processes (``worker.py``), one after another, never two at once. The
metric names and units come from ``BENCHMARK.json``; ``perfbench/README.md``
explains each workload and metric. Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything else, the spans of a traced run included, is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

COLD_WORKLOADS = ("cold-fit",)  # every op is the first in a fresh process
# every run starts at least three fresh processes, and setup_s is the
# median of their set-up times
WARM_WORKERS = 3
MIN_COLD_PROCESSES = 3
DEADLINE_S = 170  # a run must end within 180 s


class WorkerError(RuntimeError):
    pass


def spawn(job: dict, deadline: float) -> dict:
    job = {**job, "spawned": time.monotonic()}
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"worker passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(args, warm: bool) -> list[dict]:
    """All worker results of one run, in the order they ran."""
    deadline = time.monotonic() + DEADLINE_S
    base = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
    }
    results: list[dict] = []

    def job(**kw):
        w = len(results)
        return {**base, "worker": w, "workdir": str(OUT / f"work-{os.getpid()}-{w}"), **kw}

    index = 0
    if warm:
        share = args.seconds / WARM_WORKERS
        for _ in range(WARM_WORKERS):
            r = spawn(
                job(start=index, seconds=share, max_ops=10**9, trace=args.trace, twins=args.trace),
                deadline,
            )
            results.append(r)
            index = max(op["index"] for op in r["ops"] if op["phase"] == "timed") + 1
    else:
        # every fit in its own fresh process; a traced run pairs an untraced
        # and a traced process on the same inputs. After the minimum, stop
        # before a fit that would likely end past --seconds.
        t0 = time.monotonic()
        while len(results) < MIN_COLD_PROCESSES or (time.monotonic() - t0) * (index + 1) / index <= args.seconds:
            order = [False]
            if args.trace:
                order = [False, True] if index % 2 == 0 else [True, False]
            for traced in order:
                r = spawn(job(start=index, seconds=0, max_ops=1, trace=traced, twins=False), deadline)
                results.append(r)
            index += 1
    return results


def _median(xs):
    return statistics.median(xs) if xs else None


def _proc_metrics(ops: list[dict]) -> dict:
    n = max(len(ops), 1)
    return {
        "proc.minor_faults": sum(op["minor_faults"] for op in ops) / n,
        "proc.sys_s": sum(op["sys_s"] for op in ops) / n,
        "proc.user_s": sum(op["user_s"] for op in ops) / n,
    }


def summarize(results: list[dict], workload: str) -> dict:
    ops = [op for r in results for op in r["ops"]]
    timed = [op for op in ops if op["phase"] == "timed"]
    plain = [op for op in timed if not op["traced"]]
    traced = [op for op in timed if op["traced"]]
    seconds = [op["seconds"] for op in plain]

    end_to_end = {
        "setup_s": _median([r["setup_s"] for r in results]),
        "op_s_p50": _median(seconds),
        "ops_per_s": len(seconds) / sum(seconds) if seconds else None,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
    }
    per_layer = {}
    if traced:
        spans = [s for r in results for s in r["spans"]]
        missing = {m for r in results for m in r["missing"]}
        per_layer = layer_metrics(spans, len(traced), missing)
        per_layer.update(_proc_metrics(traced))
        by_index = {op["index"]: op["seconds"] for op in plain}
        per_layer["trace.overhead_s"] = _median(
            [op["seconds"] - by_index[op["index"]] for op in traced if op["index"] in by_index]
        )
        f1 = [op["fields"]["f1"] for op in traced if "f1" in op["fields"]]
        per_layer["fit.final_f1"] = statistics.fmean(f1) if f1 else 0.0

    tail = tail_percentile(seconds)
    return {
        "workload": workload,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["error"] or op["problems"]),
        "unchecked": sum(1 for op in ops if not op["checked"]),
        "timed_ops": len(seconds),
        "op_s_tail": None if tail is None else dict(zip(("percentile", "value", "beyond"), tail)),
        "end_to_end": end_to_end,
        "proc_untraced": _proc_metrics(plain),
        "per_layer": per_layer,
        "numpy": results[0]["numpy"],
        "ops": ops,
    }


def metadata() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = {
        k: v
        for k, v in sorted(os.environ.items())
        if k.startswith("MALLOC_") or k in ("GLIBC_TUNABLES", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
    }
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "env": env,
    }


def _fmt(v) -> str:
    return "missing" if v is None else repr(v)


def report(summary: dict, spec: dict, trace: bool) -> dict:
    """Print the human-readable lines and return the final result object."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    meta = summary["meta"]
    print(f"# geocd benchmark: workload={summary['workload']} seed={summary['seed']} trace={int(trace)}")
    print(f"# meta: {json.dumps(meta)}")
    values = {**summary["end_to_end"], **summary["proc_untraced"], **summary["per_layer"]}
    shown = "per_layer" if trace else "end_to_end"
    for name, value in values.items():
        print(f"{name} = {_fmt(value)} {units.get(name, '')}".rstrip())
    fail_frac = summary["failed"] / summary["attempted"]
    print(f"fail_frac = {fail_frac!r} ({summary['failed']} of {summary['attempted']} ops)")
    print(f"unchecked_ops = {summary['unchecked']} (no reference recorded for this seed and op)")
    tail = summary["op_s_tail"]
    if tail is None:
        print(f"op_s_tail = n/a: {summary['timed_ops']} timed ops; a tail needs more than 10")
    else:
        print(f"op_s_tail = p{tail['percentile']} {tail['value']!r} s ({tail['beyond']} ops beyond)")
    for op in summary["ops"]:
        if op["error"] or op["problems"]:
            print(f"FAILED op {op['index']} traced={op['traced']}: {op['problems']} {op['error'] or ''}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[shown]
    }
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, no reference check (self-test)")
    args = p.parse_args(argv)
    args.trace = bool(args.trace)

    if not (ROOT / "src" / "geocd" / "__init__.py").is_file():
        print(f"error: no geocd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    try:
        results = run_workload(args, warm=args.workload not in COLD_WORKLOADS)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(results, args.workload)
    summary["seed"] = args.seed
    summary["meta"] = {**metadata(), "numpy": summary.pop("numpy")}
    final = report(summary, spec, args.trace)

    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for r in results:
                for s in r["spans"]:
                    fh.write(json.dumps(s) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
