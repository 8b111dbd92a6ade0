"""Self-tests of the benchmark at tiny sizes (a few seconds):

    python3 perfbench/selftest.py

They check BENCHMARK.json against the benchmark's contract, the class-count
oracle, that tracing wrappers exist only while a traced pass runs, that
every named metric is emitted with its unit, that a run's operation counts
do not depend on how many passes fitted into it, and that the benchmark
fails cleanly in a directory without the speclab sources.
"""

from __future__ import annotations

import json
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

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SpecTest(unittest.TestCase):
    def test_contract_shape(self):
        self.assertEqual(
            set(SPEC), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        self.assertEqual(sorted(names), sorted(run.RATE_NAMES))
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class OracleTest(unittest.TestCase):
    def test_known_counts(self):
        for (m, maxlen), count in {(2, 8): 1386, (2, 9): 3582, (3, 6): 3506, (3, 7): 14672}.items():
            self.assertEqual(workloads.class_count(m, maxlen), count)

    def test_matches_enumeration(self):
        import speclab

        for m, maxlen in ((2, 5), (3, 4)):
            classes = speclab.enumerate_classes(speclab.Presentation(1, m - 1), maxlen)
            self.assertIsNone(workloads.check_class_count(m, maxlen, len(classes)))

    def test_rejects_off_by_one(self):
        exact = workloads.class_count(2, 8)
        self.assertIsNone(workloads.check_class_count(2, 8, exact))
        for wrong in (exact - 1, exact + 1):
            self.assertIsNotNone(workloads.check_class_count(2, 8, wrong))


class TracerTest(unittest.TestCase):
    def test_install_reaches_every_bound_copy_and_uninstall_restores(self):
        import importlib

        spectrum_mod = importlib.import_module("speclab.spectrum")
        cli_mod = importlib.import_module("speclab.cli")
        originals = (spectrum_mod.classify, cli_mod.length_spectrum)
        self.assertEqual(tracing.count_wrapped(), 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertTrue(hasattr(spectrum_mod.classify, tracing.MARK))
            self.assertTrue(hasattr(cli_mod.length_spectrum, tracing.MARK))
            self.assertGreater(tracing.count_wrapped(), len(tracing.SPANS))
        finally:
            tracer.uninstall()
        self.assertEqual(tracing.count_wrapped(), 0)
        self.assertEqual((spectrum_mod.classify, cli_mod.length_spectrum), originals)


class RunTest(unittest.TestCase):
    def measure(self, workload, trace):
        result, lines = run.measure(workload, seed=3, seconds=0, trace=trace, size="tiny")
        self.assertTrue(result["correct"], lines)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_every_metric_with_its_unit(self):
        for workload in run.RATE_NAMES:
            for trace, wanted in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    metrics = self.measure(workload, trace)["metrics"]
                    self.assertEqual(
                        {k: v["unit"] for k, v in metrics.items()},
                        {m["name"]: m["unit"] for m in wanted},
                    )
                    for v in metrics.values():
                        self.assertIsInstance(v["value"], (int, float))
                    if not trace:
                        self.assertTrue(all(v["value"] > 0 for v in metrics.values()))

    def test_counts_do_not_depend_on_the_number_of_passes(self):
        short = self.measure("cocycle", False)
        result, lines = run.measure("cocycle", seed=3, seconds=8, trace=False, size="tiny")
        passes = int(re.search(r"(\d+) untraced pass", lines[0]).group(1))
        self.assertGreater(passes, run.MIN_PASSES, lines)
        self.assertEqual((result["attempted"], result["failed"]), (short["attempted"], short["failed"]))

    def test_untraced_pass_is_unwrapped(self):
        tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            deadline = run._clock() + 60
            plain = run.run_child("spectrum_cli", 1, "tiny", tmp, deadline)
            traced = run.run_child("spectrum_cli", 1, "tiny", tmp, deadline, trace=True)
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(plain["wrapped"], 0)
        self.assertGreater(traced["wrapped"], 0)
        self.assertEqual(len(plain["refs"]), len(plain["steps"]) + 1)
        self.assertEqual(plain["digest"], traced["digest"])

    def test_scan_enumerates_once_per_trial_plus_two(self):
        layers = self.measure("scan", True)["metrics"]
        trials = workloads.SIZES["tiny"]["scan_trials"]
        self.assertEqual(layers["surface_group.enumerate_calls"]["value"], trials + 2)
        self.assertEqual(layers["spectrum.spectrum_calls"]["value"], trials + 1)

    def test_fails_without_sources(self):
        bare = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
