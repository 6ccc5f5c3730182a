#!/usr/bin/env python3
"""The benchmark's own tests, on the smoke-sized plan (plans/smoke.plan).

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that every metric named
in BENCHMARK.json is printed with its unit, that a perturbed reference
digest is reported as failed points, that the traced spans nest so their
self times sum to the parent span, and that a directory holding only the
benchmark (no simulator sources) fails without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCH_DIR = run.BENCH_DIR
ROOT = run.ROOT
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
SCRATCH = BUILD_DIR / "test"
SMOKE_PLAN = BENCH_DIR / "plans" / "smoke.plan"
SMOKE_REFERENCE = BENCH_DIR / "reference" / "smoke.digest"
LAYER_SPANS = {"machine.build", "rt.build", "apps.init", "sim.run",
               "apps.verify", "mem.check"}


def perfbench(*args, reference=SMOKE_REFERENCE, seed=0):
    """Runs the binary on the smoke plan; returns (stdout lines, result)."""
    out = subprocess.run(
        [str(BUILD_DIR / "perfbench"), "--plan", str(SMOKE_PLAN),
         "--reference", str(reference), "--seed", str(seed),
         "--seconds", "0.2", *args],
        check=True, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    return lines, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(BUILD_DIR)
        SCRATCH.mkdir(parents=True, exist_ok=True)
        with open(ROOT / "BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(metrics[m["name"]]["value"]), m["name"])

    def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(self):
        _, result = perfbench("--trace", "0")
        self.check_metrics(result, self.spec["end_to_end"])
        for m in self.spec["end_to_end"]:
            self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_run_prints_every_per_layer_metric_with_its_unit(self):
        _, result = perfbench("--trace", "1")
        self.check_metrics(result, self.spec["per_layer"])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(m["slip.forwarded_chunks"], 0)
        self.assertAlmostEqual(
            m["other.residual_s"], m["sim.run_s"] - m["sim.model_s"] - m["mem.model_s"])

    def test_perturbed_reference_trips_the_digest_check(self):
        lines = SMOKE_REFERENCE.read_text().splitlines()
        label, cycles, rest = lines[0].split(" ", 2)
        value = int(cycles.split("=")[1])
        lines[0] = f"{label} cycles={value + 1} {rest}"
        perturbed = SCRATCH / "perturbed.digest"
        perturbed.write_text("\n".join(lines) + "\n")
        _, result = perfbench("--trace", "0", reference=perturbed)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["failed"], result["attempted"])

    def test_nonzero_seed_prints_a_digest_of_other_data(self):
        lines0, _ = perfbench("--trace", "0")
        lines7, result = perfbench("--trace", "0", seed=7)
        self.assertTrue(result["correct"])
        digest = [l for l in lines7 if l.startswith("digest ")]
        self.assertEqual(len(digest), len(SMOKE_REFERENCE.read_text().splitlines()))
        hash0 = [l for l in lines0 if l.startswith("digest_fnv1a ")]
        hash7 = [l for l in lines7 if l.startswith("digest_fnv1a ")]
        self.assertEqual(len(hash0), 1)
        self.assertNotEqual(hash0, hash7)

    def test_span_self_times_sum_to_the_parent_span(self):
        path = SCRATCH / "spans.json"
        perfbench("--trace", "1", "--spans", str(path))
        spans = json.loads(path.read_text())["spans"]
        by_id = {s["id"]: s for s in spans}
        children = {}
        for s in spans:
            children.setdefault(s["parent"], []).append(s)
        roots = children[0]
        self.assertGreaterEqual(len(roots), 1)

        def self_time(span):
            kids = sorted(children.get(span["id"], []), key=lambda c: c["start_ns"])
            for a, b in zip(kids, kids[1:]):
                self.assertLessEqual(a["end_ns"], b["start_ns"])  # no overlap
            for k in kids:
                self.assertGreaterEqual(k["start_ns"], span["start_ns"])
                self.assertLessEqual(k["end_ns"], span["end_ns"])
            own = (span["end_ns"] - span["start_ns"]) - sum(
                k["end_ns"] - k["start_ns"] for k in kids)
            self.assertGreaterEqual(own, 0)
            return own + sum(self_time(k) for k in kids)

        points = SMOKE_REFERENCE.read_text().splitlines()
        for root in roots:
            self.assertEqual(root["name"], "sweep")
            self.assertEqual(self_time(root), root["end_ns"] - root["start_ns"])
            names = [c["name"] for c in children[root["id"]]]
            self.assertEqual(names, ["core.plan"] + ["point"] * len(points) + ["core.emit"])
            for point in children[root["id"]][1:-1]:
                layers = children[point["id"]]
                self.assertEqual({c["name"] for c in layers}, LAYER_SPANS)
                self.assertTrue(all(c["point"] == point["point"] for c in layers))
        self.assertTrue(all(s["parent"] == 0 or s["parent"] in by_id for s in spans))

    def test_benchmark_alone_fails_without_a_result(self):
        alone = SCRATCH / "alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        shutil.copytree(BENCH_DIR, alone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "smoke",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=alone, env=env, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)
        shutil.rmtree(alone)


if __name__ == "__main__":
    unittest.main()
