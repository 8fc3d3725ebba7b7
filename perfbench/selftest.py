"""Tiny-scale self-test of the benchmark.

Runs every workload at a few injections or incidents (the daemon
workloads also on a 13-state tiered model) and checks that

* every metric ``BENCHMARK.json`` names is emitted, with its unit, by the
  untraced run (end-to-end metrics) and the traced run (per-layer metrics);
* in the traced runs, layer self times plus the unattributed remainder add
  up to the wall time;
* a wrong pinned fingerprint or a wrong replay digest is reported as a
  failed operation, not silently accepted;
* ``run.py`` prints its result as the last line, and exits non-zero with no
  result where the program's sources are missing.

Usage, from the repository root (takes about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import campaign, serve  # noqa: E402
from perfbench.common import WORK_DIR  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}

SEED = 3
INJECTIONS = 4
INCIDENTS = 3

TINY_TIERED = serve.ServeWorkload(
    build=lambda: serve.build_tiered(replicas=(2, 2, 2)),
    daemon_args=("--no-refine",),
    incidents_per_second=1.0,
    replay=True,
    recertify=False,
)


def _units(outcome) -> dict[str, str]:
    return {name: unit for name, (_, unit) in outcome.metrics.items()}


class _Checks(unittest.TestCase):
    def assert_metrics(self, outcome, expected: dict[str, str]) -> None:
        self.assertEqual(_units(outcome), expected)
        line = outcome.result_line()
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        for name, value in line["metrics"].items():
            self.assertTrue(math.isfinite(value["value"]), name)

    def assert_closure(self, details: dict) -> None:
        closure = details["closure"]
        layer_sum = sum(layer["self_ms"] for layer in closure["layers"].values())
        self.assertGreaterEqual(closure["unattributed_ms"], 0.0)
        self.assertTrue(
            math.isclose(
                layer_sum + closure["unattributed_ms"], closure["wall_ms"], rel_tol=1e-9
            ),
            closure,
        )
        self.assertTrue(all(layer["self_ms"] >= 0.0 for layer in closure["layers"].values()))


class Table1Bounded(_Checks):
    @classmethod
    def setUpClass(cls):
        cls.seed = campaign.campaign_seed(SEED)
        probe = campaign.run(SEED, INJECTIONS, trace=True, pins={})
        cls.fingerprint = probe.details["fingerprint"]
        cls.pins = {str(INJECTIONS): {str(cls.seed): cls.fingerprint}}
        cls.traced = campaign.run(SEED, INJECTIONS, trace=True, pins=cls.pins)

    def test_untraced_emits_every_end_to_end_metric(self):
        outcome = campaign.run(SEED, INJECTIONS, trace=False, pins=self.pins)
        self.assert_metrics(outcome, END_TO_END)
        self.assertEqual(outcome.failed, 0, outcome.failures)
        self.assertEqual(outcome.details["fingerprint"], self.fingerprint)

    def test_traced_emits_every_per_layer_metric(self):
        self.assert_metrics(self.traced, PER_LAYER)
        self.assertEqual(self.traced.failed, 0, self.traced.failures)

    def test_traced_self_times_add_up_to_the_wall(self):
        self.assert_closure(self.traced.details)

    def test_wrong_fingerprint_is_a_failure(self):
        wrong = {str(INJECTIONS): {str(self.seed): "0" * 64}}
        outcome = campaign.run(SEED, INJECTIONS, trace=True, pins=wrong)
        self.assertEqual(outcome.failed, 1)
        self.assertFalse(outcome.result_line()["correct"])

    def test_missing_pin_is_a_failure(self):
        outcome = campaign.run(SEED, INJECTIONS, trace=True, pins={})
        self.assertEqual(outcome.failed, 1)


class ServeWorkloads(_Checks):
    def test_emn_untraced_and_traced(self):
        workload = serve.WORKLOADS["serve_emn"]
        untraced = serve.run(workload, SEED, INCIDENTS, trace=False)
        self.assert_metrics(untraced, END_TO_END)
        self.assertEqual(untraced.failed, 0, untraced.failures)
        traced = serve.run(workload, SEED, INCIDENTS, trace=True)
        self.assert_metrics(traced, PER_LAYER)
        self.assertEqual(traced.failed, 0, traced.failures)
        self.assert_closure(traced.details)
        requests = traced.details["requests"]
        self.assertEqual(requests["client"], requests["daemon"])

    def test_tiered_untraced_and_traced(self):
        untraced = serve.run(TINY_TIERED, SEED, INCIDENTS, trace=False)
        self.assert_metrics(untraced, END_TO_END)
        self.assertEqual(untraced.failed, 0, untraced.failures)
        traced = serve.run(TINY_TIERED, SEED, INCIDENTS, trace=True)
        self.assert_metrics(traced, PER_LAYER)
        self.assertEqual(traced.failed, 0, traced.failures)
        self.assert_closure(traced.details)

    def test_wrong_replay_digest_is_a_failure(self):
        original = serve.replay

        def corrupted(model, plans, monitor_tail):
            digests = original(model, plans, monitor_tail)
            first = plans[0][0].session_id
            digests[first] = "0" * 64
            return digests

        serve.replay = corrupted
        try:
            outcome = serve.run(TINY_TIERED, SEED, INCIDENTS, trace=False)
        finally:
            serve.replay = original
        self.assertEqual(outcome.failed, 1)
        self.assertFalse(outcome.result_line()["correct"])


class CommandLine(unittest.TestCase):
    def run_cli(self, root: Path, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"), *args],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=180,
        )

    def test_last_line_is_the_result(self):
        done = self.run_cli(
            ROOT, "--workload", "serve_emn", "--seed", "1", "--seconds", "0.1", "--trace", "0"
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], done.stderr)
        self.assertEqual(set(result["metrics"]), set(END_TO_END))

    def test_fails_without_the_program(self):
        bare = ROOT / WORK_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(
                ROOT / "perfbench",
                bare / "perfbench",
                ignore=shutil.ignore_patterns(".work", "__pycache__"),
            )
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            done = self.run_cli(
                bare, "--workload", "table1_bounded", "--seed", "1", "--seconds", "1", "--trace", "0"
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    os.chdir(ROOT)  # the daemon workloads use paths relative to the repository root
    unittest.main(verbosity=2)
