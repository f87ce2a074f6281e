"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Covers the span and percentile arithmetic on synthetic spans, the output
check rejecting a perturbed result, BENCHMARK.json against the rules it
must follow, a tiny smoke run of every workload in both modes, and the
refusal to run without the program's sources. Takes about a minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def span(id, name, parent, start, end, **attrs):
    return {"id": id, "name": name, "parent": parent, "op": 0, "start": start, "end": end, "attrs": attrs}


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent(self):
        s = [
            span(0, "op", None, 0.0, 10.0),
            span(1, "a", 0, 1.0, 3.0),
            span(2, "b", 0, 2.0, 5.0),  # overlaps a
            span(3, "c", 0, 9.0, 12.0),  # runs past the parent's end
            span(4, "d", 1, 1.5, 2.5),  # grandchild: only a loses it
        ]
        st = spans.self_times(s)
        self.assertAlmostEqual(st[0], 10.0 - (4.0 + 1.0))
        self.assertAlmostEqual(st[1], 2.0 - 1.0)
        self.assertAlmostEqual(st[3], 3.0)

    def test_layer_metrics_are_per_op_and_missing_hooks_read_none(self):
        s = [
            span(0, "op", None, 0.0, 4.0),
            span(1, "loss.geocd", 0, 0.0, 4.0, sentinel_fraction=0.75, masked_fraction=0.5),
            span(2, "graph.knn_adjacency", 1, 0.0, 2.0, n=10),
            span(3, "distances.pairwise_distances", 2, 0.0, 0.5, entries=100),
            span(4, "geodesic.propagate", 1, 2.0, 3.5, n=10, hops=3),
            span(10, "op", None, 10.0, 11.0),
            span(11, "distances.pairwise_distances", 10, 10.0, 10.5, entries=20),
        ]
        m = spans.layer_metrics(s, n_ops=2)
        self.assertAlmostEqual(m["graph.knn_adjacency.self_s"], 1.5 / 2)
        self.assertAlmostEqual(m["distances.pairwise_distances.calls"], 1.0)
        self.assertAlmostEqual(m["distances.pairwise_entries"], 60.0)
        self.assertAlmostEqual(m["loss.geocd.self_s"], 0.5 / 2)
        self.assertAlmostEqual(m["geodesic.hop_s"], 1.5 / 2)
        self.assertEqual(m["geodesic.state_bytes"], 3 * 100 * 12)
        self.assertEqual(m["graph.bytes"], 100 * 9)
        self.assertAlmostEqual(m["geodesic.reachable_cross_frac"], 0.25)
        self.assertAlmostEqual(m["geodesic.active_row_frac"], 0.5)
        self.assertEqual(m["metrics.evaluate.calls"], 0)  # not reached: zero
        self.assertEqual(set(m), set(spans.SOURCES))
        gone = spans.layer_metrics(s, 2, missing={"geodesic.propagate"})
        self.assertIsNone(gone["geodesic.hop_s"])
        self.assertIsNotNone(gone["graph.knn_adjacency.self_s"])

    def test_fit_steps_run_from_loss_start_to_adam_end(self):
        s = [
            span(0, "fit.fit", None, 0.0, 10.0),
            span(1, "loss.chamfer", 0, 0.0, 1.0),
            span(2, "metrics.evaluate", 0, 1.0, 2.0),
            span(3, "fit.adam_step", 0, 2.0, 2.5),
            span(4, "loss.geocd", 0, 3.0, 5.0),
            span(5, "loss.chamfer", 2, 5.0, 5.5),  # inside evaluate: not a step
            span(6, "fit.adam_step", 0, 6.0, 7.0),
            span(7, "loss.chamfer", 0, 8.0, 9.0),  # final report, no Adam step
        ]
        self.assertEqual(spans.fit_steps(s), {"loss.chamfer": [2.5], "loss.geocd": [4.0]})

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(spans.tail_percentile([1.0] * 10))
        # nearest rank: p1..p9 of 11 samples all pick the smallest one
        self.assertEqual(spans.tail_percentile([float(i) for i in range(11)]), (9, 0.0, 10))
        p, value, beyond = spans.tail_percentile([float(i) for i in range(1, 101)])
        self.assertEqual((p, value, beyond), (90, 90.0, 10))

    def test_a_missing_hook_target_is_recorded_not_fatal(self):
        tracer = spans.Tracer()
        tracer.install([("geocd.loss", "no_such_function", "loss.gone"), ("geocd.fit", "Adam.step", "fit.adam_step")])
        try:
            self.assertEqual(tracer.missing, {"loss.gone"})
            adam = workloads.gfit.Adam((1, 3), 0.1)
            tracer.enabled = True
            adam.step(workloads.np.zeros((1, 3)), workloads.np.ones((1, 3)))
            self.assertEqual([s["name"] for s in tracer.spans], ["fit.adam_step"])
        finally:
            tracer.uninstall()
        self.assertFalse(hasattr(workloads.gfit.Adam.step, "__wrapped__"))


class OutputCheck(unittest.TestCase):
    def test_a_recorded_op_passes_and_a_perturbed_result_is_rejected(self):
        wl = workloads.TrainStep(False, HERE)
        ref = workloads.load_reference(wl.name, 0)["0"]
        inputs = wl.inputs(0, 0)
        fields, problems = wl.outputs(inputs, wl.op(inputs))
        self.assertEqual(problems + workloads.compare(fields, ref, wl.tol), [])
        for key in fields:
            bad = {**fields, key: fields[key] * (1 + 1e-7)}
            self.assertEqual(len(workloads.compare(bad, ref, wl.tol)), 1, key)

    def test_every_reference_field_has_a_tolerance(self):
        for name, cls in workloads.WORKLOADS.items():
            table = json.loads((workloads.REFERENCE_DIR / f"{name}.json").read_text())
            for by_index in table.values():
                for fields in by_index.values():
                    self.assertEqual(set(fields), set(cls.tol), name)

    def test_non_finite_and_out_of_tolerance_values_fail(self):
        tol = {"cd": (1e-6, 0.0), "f1": (0.0, 1e-9)}
        ref = {"cd": 1e-4, "f1": 0.75}
        self.assertEqual(workloads.compare(dict(ref), ref, tol), [])
        self.assertEqual(len(workloads.compare({"cd": math.nan, "f1": 0.75}, None, tol)), 1)
        self.assertEqual(len(workloads.compare({"cd": 1e-4, "f1": None}, ref, tol)), 1)
        self.assertEqual(len(workloads.compare({"cd": 1e-4, "f1": 0.75 + 1 / 512}, ref, tol)), 1)
        self.assertEqual(workloads.compare({"cd": 2e-4, "f1": 0.5}, None, tol), [])


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Spec(unittest.TestCase):
    def test_benchmark_json_follows_its_rules(self):
        self.assertEqual(
            set(SPEC), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(NAME.match(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(NAME.match(m["name"]) and UNIT.match(m["unit"]), m)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))
        self.assertTrue(all((ROOT / p).is_dir() for p in SPEC["paths"]))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["python3", "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


class Smoke(unittest.TestCase):
    def test_every_workload_reports_every_metric_in_both_modes(self):
        for w in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run_bench(
                        ROOT, "--workload", w["name"], "--seed", "3", "--seconds", "0.5",
                        "--trace", str(trace), "--smoke",
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    out = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    self.assertEqual(list(out["metrics"]), [m["name"] for m in SPEC[kind]])
                    for m in SPEC[kind]:
                        value = out["metrics"][m["name"]]
                        self.assertEqual(value["unit"], m["unit"])
                        self.assertIsInstance(value["value"], (int, float), m["name"])

    def test_refuses_to_run_without_the_program(self):
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench(bare, "--workload", "train-step", "--seed", "0", "--seconds", "1")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
