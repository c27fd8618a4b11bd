#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced.

    python3 perfbench/test_smoke.py

Runs perfbench/run.py in its short smoke mode and asserts that each run
passes the correctness gate, prints every metric BENCHMARK.json names with
its unit (as a "# name = value unit" line and in the result JSON), and that
fault_sweep's accuracies repeat exactly for the same seed.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = 4


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=3):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SMOKE_SECONDS), "--trace",
         str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(
            f"{workload} trace={trace} exited {out.returncode}\n"
            f"{out.stdout[-3000:]}\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def check(self, workload, trace):
        lines, result = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines[-20:]))
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            printed = re.compile(r"^# %s\s+= \S+ %s$" % (
                re.escape(m["name"]), re.escape(m["unit"])))
            self.assertTrue(any(printed.match(line) for line in lines),
                            f"{m['name']} not printed with its unit")
        if not trace:
            for m in expected:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                   m["name"])
        return lines

    def test_edge_forecast(self):
        self.check("edge_forecast", 0)
        self.check("edge_forecast", 1)

    def test_vision_mixed(self):
        self.check("vision_mixed", 0)
        self.check("vision_mixed", 1)

    def test_fault_sweep(self):
        digest = re.compile(r"accuracy digest ([0-9a-f]+)")
        first = [m.group(1) for line in self.check("fault_sweep", 0)
                 if (m := digest.search(line))]
        second = [m.group(1) for line in self.check("fault_sweep", 1)
                  if (m := digest.search(line))]
        self.assertEqual(len(first), 1)
        self.assertEqual(first, second, "fault_sweep accuracies changed")


if __name__ == "__main__":
    unittest.main()
