#!/usr/bin/env python3
"""Smoke test of the benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json once on a tiny population (20
simulated matchers, one-epoch networks), untraced and traced. Each run must
print exactly the end-to-end (untraced) or per-layer (traced) metrics that
BENCHMARK.json names, each with its unit, and pass every output check. A
copy of the benchmark without the repository's sources must fail without
printing a result. Takes a few minutes.
"""
import json
import pathlib
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):

    def test_every_metric_is_printed_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    out = run(ROOT, w["name"], trace)
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    result = json.loads(out.stdout.splitlines()[-1])
                    self.assertTrue(result["correct"], out.stderr[-2000:])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in SPEC[group]})
                    if trace:
                        self.assertEqual(result["metrics"]["check_fail_frac"]["value"], 0)

    def test_fails_without_the_repository(self):
        bare = ROOT / ".bench_build" / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("target"))
        out = run(bare, SPEC["workloads"][0]["name"], 0)
        shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
