#!/usr/bin/env python3
"""Tests of the benchmark's own correctness checks.

Each injected case breaks one check on purpose through --inject and asserts
that the command fails: exit status 1, a result line reading "correct": false
with no metrics, and the failed check named on stderr. A clean serve_routed
run, untraced and traced, must print exactly the metrics BENCHMARK.json
lists, with the same units. Run from the repository root:

    python3 perfbench/test_checks.py

Takes about three minutes (each case runs its workload's minimum work).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def run(workload, inject, trace="0"):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", trace, "--inject", inject],
        capture_output=True, text=True, timeout=600)


class CleanRun(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            done = run("serve_routed", "none", trace=trace)
            self.assertEqual(done.returncode, 0, done.stderr[-2000:])
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            listed = {m["name"]: m["unit"] for m in spec[kind]}
            self.assertEqual(printed, listed)


class InjectedFailures(unittest.TestCase):
    def assert_fails(self, done, needle):
        self.assertEqual(done.returncode, 1, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"], {})
        self.assertIn("CHECK FAILED", done.stderr)
        self.assertIn(needle, done.stderr)

    def test_tampered_rerun_digest_fails_tuner(self):
        self.assert_fails(run("tune_fit", "tamper-digest"), "same-seed rerun")

    def test_tampered_traced_digest_fails_tuner(self):
        self.assert_fails(run("tune_fit", "tamper-digest", trace="1"),
                          "diverge from ActiveLearner::run")

    def test_tampered_session_digest_fails_serve(self):
        self.assert_fails(run("serve_routed", "tamper-digest"),
                          "digest differs")

    def test_ok_false_response_fails_serve(self):
        done = run("serve_routed", "ok-false")
        self.assert_fails(done, '"ok":false')
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(result["failed"], 1)

    def test_short_step_percentile_is_refused(self):
        self.assert_fails(run("tune_fit", "short-percentile"),
                          "step_ms.p50: percentile refused")

    def test_short_window_percentile_is_refused(self):
        self.assert_fails(run("serve_routed", "short-percentile", trace="1"),
                          "router.window.ms.p50: percentile refused")


if __name__ == "__main__":
    unittest.main(verbosity=2)
