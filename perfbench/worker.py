"""One fresh benchmark process: set up, run ops, check each output, report.

Run by ``run.py`` as ``python3 perfbench/worker.py '<job json>'``. The last
line of standard output is the result JSON. Set-up time runs from the
moment ``run.py`` starts this process (``job["spawned"]``, on the shared
monotonic clock) to the end of the warm-up op, so it includes interpreter
start, importing geocd and making the first inputs. Inputs of later ops
and every output check are made outside the timed region.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _usage() -> tuple[int, float, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, ru.ru_stime, ru.ru_utime


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    workdir = Path(job["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(job, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(job: dict, workdir: Path) -> int:
    wl = workloads.WORKLOADS[job["workload"]](job["smoke"], workdir)
    seed = job["seed"]
    reference = {} if job["smoke"] else workloads.load_reference(wl.name, seed)
    tracer = Tracer(id_base=job["worker"] * 10**7)
    if job["trace"]:
        tracer.install()
    records = []

    def run_op(index, inputs, phase, traced):
        before = _usage()
        result, error = None, None
        tracer.enabled = traced
        root = tracer.open("op", index=index) if traced else None
        t0 = time.perf_counter()
        try:
            result = wl.op(inputs)
        except Exception:  # an op that raises counts as failed; the run goes on
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        if root is not None:
            tracer.close(root)
        tracer.enabled = False
        after = _usage()
        fields, problems = {}, []
        if error is None:
            try:
                fields, problems = wl.outputs(inputs, result)
            except Exception:  # a malformed output is a failed op, not a crash
                error = traceback.format_exc()
        ref = reference.get(str(index))
        problems += workloads.compare(fields, ref, wl.tol)
        records.append(
            {
                "index": index,
                "phase": phase,
                "traced": traced,
                "seconds": seconds,
                "minor_faults": after[0] - before[0],
                "sys_s": after[1] - before[1],
                "user_s": after[2] - before[2],
                "fields": fields,
                "checked": ref is not None,
                "problems": problems,
                "error": error,
            }
        )

    if wl.warm:
        index = workloads.WARMUP_INDEX + job["worker"]
        run_op(index, wl.inputs(seed, index), "warmup", False)
    index = job["start"]
    inputs = wl.inputs(seed, index)
    setup_s = time.monotonic() - job["spawned"]

    t_loop = time.perf_counter()
    while True:
        if job["twins"]:  # same inputs untraced and traced, order alternating
            for traced in (False, True) if index % 2 == 0 else (True, False):
                run_op(index, inputs, "timed", traced)
        else:
            run_op(index, inputs, "timed", job["trace"])
        index += 1
        done = index - job["start"]
        elapsed = time.perf_counter() - t_loop
        # stop before an op that would likely end past the time share
        if done >= job["max_ops"] or elapsed * (done + 1) / done > job["seconds"]:
            break
        inputs = wl.inputs(seed, index)

    result = {
        "setup_s": setup_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": workloads.np.__version__,
        "ops": records,
        "spans": tracer.spans,
        "missing": sorted(tracer.missing),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
