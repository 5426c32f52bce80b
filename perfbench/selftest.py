"""Self-test of the benchmark: every workload at a tiny size, and the checks.

    python3 perfbench/selftest.py

It asserts that each workload reports every metric of BENCHMARK.json with
its unit, that traced counts repeat exactly, and that a corrupted
expected digest or an agent choosing an illegal action shows up as a
failed check or a counted failure. It also runs the command where the
sources are missing and expects a non-zero exit without a result line.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

TINY_S = 0.05  # every part still plays its first round


class IllegalAgent:
    """Chooses an action id no game has."""

    def eval_step(self, obs, rng) -> int:
        return 10**6

    sample_step = eval_step


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.use_sources():
            raise unittest.SkipTest("cardtable sources not found")
        cls.definition = run.load_definition()
        cls.expected = run.load_expected()

    def test_every_workload_reports_every_metric_with_its_unit(self):
        wanted = {m["name"]: m["unit"] for m in self.definition["end_to_end"]}
        self.assertEqual([w["name"] for w in self.definition["workloads"]], list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = run.run_untraced(workload, 1, TINY_S, self.expected)
                self.assertEqual(result["units"], wanted)
                self.assertEqual(set(result["metrics"]), set(wanted))
                self.assertTrue(all(v > 0 for v in result["metrics"].values()), result["metrics"])
                self.assertEqual(result["problems"], [])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_traced_counts_repeat_and_cover_every_layer_metric(self):
        wanted = {m["name"] for m in self.definition["per_layer"]}
        first = run.run_traced("selfplay", 1, self.expected)
        second = run.run_traced("selfplay", 1, self.expected)
        self.assertEqual(set(first["metrics"]), wanted)
        self.assertEqual(first["problems"], [])
        counts = [name for name in wanted if ".calls_per_" in name]
        self.assertEqual(
            {n: first["metrics"][n] for n in counts}, {n: second["metrics"][n] for n in counts}
        )
        self.assertAlmostEqual(
            first["metrics"]["games.doudizhu_patterns.matching_abstract_ids.calls_per_step"], 2.0
        )

    def test_corrupted_expected_digest_fails_a_check(self):
        corrupt = {"leduc_solve": {"1": "0" * 64}}
        result = run.run_untraced("leduc_solve", 1, TINY_S, corrupt)
        self.assertTrue(any("digest" in p for p in result["problems"]), result["problems"])

    def test_illegal_action_counts_as_failure(self):
        from parts import SelfPlay

        def make_part(cls, seed, focus):
            if cls is SelfPlay:
                return SelfPlay(seed, focus, agent=IllegalAgent)
            return cls(seed, focus)

        result = run.run_untraced("selfplay", 1, TINY_S, self.expected, make_part=make_part)
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("digest" in p for p in result["problems"]), result["problems"])

    def test_command_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "selfplay", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(out.returncode, 0)
        for line in out.stdout.splitlines():
            self.assertFalse(line.startswith("{"), out.stdout)


if __name__ == "__main__":
    unittest.main()
