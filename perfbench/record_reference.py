"""Record the reference outputs that the benchmark's output check compares against.

    python3 perfbench/record_reference.py --workload train-step

Runs every op a benchmark run of the default seeds can reach, in this
process, and writes its output fields to ``perfbench/reference/<workload>.json``
as {seed: {op index: fields}}. Re-record only at a commit whose outputs are
known to be right, and say so in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SEEDS = range(11)
# warm workloads: three warm-ups and the timed ops of a run whose ops take
# about half as long as at this commit; cold-fit: three fits per run, and
# a fourth when fits get faster
INDICES = {
    "train-step": [*range(24), *(workloads.WARMUP_INDEX + w for w in range(3))],
    "deep-walks": [*range(24), *(workloads.WARMUP_INDEX + w for w in range(3))],
    "cold-fit": list(range(4)),
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(INDICES))
    args = p.parse_args(argv)
    table: dict[str, dict[str, dict]] = {}
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        wl = workloads.WORKLOADS[args.workload](False, Path(tmp))
        for seed in SEEDS:
            for index in INDICES[args.workload]:
                inputs = wl.inputs(seed, index)
                fields, problems = wl.outputs(inputs, wl.op(inputs))
                problems += workloads.compare(fields, None, wl.tol)
                if problems:
                    print(f"seed {seed} op {index}: {problems}", file=sys.stderr)
                    return 1
                table.setdefault(str(seed), {})[str(index)] = fields
                print(f"seed {seed} op {index}: {fields}", flush=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
