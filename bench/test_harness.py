"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench -p 'test_*.py'

They use small tables, so the whole file runs in well under a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

from check import (
    check_analysis,
    check_pin,
    check_structure,
    expected_analysis,
    expected_structure,
    sha256,
)
from gen import Shape, make_table
from run import BENCH, OUT, ROOT, SRC, WORKLOADS, Launcher, Workload, measure

sys.path.insert(0, str(SRC))
from surmise.io import analyze, emit_report, parse_csv, structure_report  # noqa: E402
from surmise.kst import structure_from_table  # noqa: E402
from surmise.table import Flexibility  # noqa: E402

SHAPE = Shape(targets=14, models=30, noise=0.6)
TINY = Workload("tiny", "small analyze table", SHAPE, tables=2, command="analyze",
                flexibility="10", fmt="text", counts=True)
TINY_STRUCTURE = Workload("tiny-structure", "small structure table", SHAPE, tables=2,
                          command="structure")


def _report(table, fmt: str, counts: bool = False) -> bytes:
    parsed = parse_csv(table.csv_bytes())
    return emit_report(analyze(parsed, Flexibility.parse("10"), counts), fmt).encode()


class GeneratorTest(unittest.TestCase):
    def test_same_key_gives_identical_bytes(self):
        first = make_table(SHAPE, "w:7:0").csv_bytes()
        self.assertEqual(first, make_table(SHAPE, "w:7:0").csv_bytes())
        self.assertNotEqual(first, make_table(SHAPE, "w:8:0").csv_bytes())


class CheckerTest(unittest.TestCase):
    def setUp(self):
        # Pick a table whose order has covering edges and at least two classes.
        self.table = make_table(SHAPE, "check:1:0")
        self.want = expected_analysis(self.table, "10", counts=True)
        self.assertGreater(len(self.want.hasse), 0)
        self.assertGreater(len(self.want.classes), 1)

    def test_correct_outputs_pass(self):
        self.assertEqual(check_analysis(_report(self.table, "json", True), "json", self.want), [])
        self.assertEqual(check_analysis(_report(self.table, "text", True), "text", self.want), [])
        text = structure_report(structure_from_table(parse_csv(self.table.csv_bytes())))
        self.assertEqual(check_structure(text.encode(), expected_structure(self.table)), [])

    def test_dropped_covering_edge_is_flagged(self):
        obj = json.loads(_report(self.table, "json", True))
        obj["hasse"].pop()
        output = (json.dumps(obj, indent=2) + "\n").encode()
        self.assertTrue(any(p.startswith("hasse") for p in
                            check_analysis(output, "json", self.want)))
        lines = _report(self.table, "text", True).decode().split("\n")
        edge = lines.index(next(line for line in lines if line.startswith("hasse ("))) + 1
        del lines[edge]
        self.assertNotEqual(check_analysis("\n".join(lines).encode(), "text", self.want), [])

    def test_merged_class_is_flagged(self):
        obj = json.loads(_report(self.table, "json", True))
        first, second = obj["classes"][:2]
        second["members"] = sorted(first["members"] + second["members"])
        del obj["classes"][0]
        output = (json.dumps(obj, indent=2) + "\n").encode()
        self.assertTrue(any(p.startswith("classes") for p in
                            check_analysis(output, "json", self.want)))

    def test_wrong_state_count_is_flagged(self):
        want = expected_structure(self.table)
        text = structure_report(structure_from_table(parse_csv(self.table.csv_bytes())))
        wrong = text.replace(f"states ({want.states}):", f"states ({want.states + 1}):", 1)
        self.assertNotEqual(check_structure(wrong.encode(), want), [])
        dropped = text.replace("  {}\n", "", 1).replace(
            f"states ({want.states}):", f"states ({want.states - 1}):", 1)
        self.assertNotEqual(check_structure(dropped.encode(), want), [])

    def test_changed_byte_is_flagged_by_the_pin(self):
        output = _report(self.table, "json", True)
        pin = sha256(output)
        self.assertEqual(check_pin(output, pin), [])
        drifted = output.replace(b'{\n  "targets"', b'{\n   "targets"', 1)
        self.assertNotEqual(drifted, output)
        self.assertEqual(check_analysis(drifted, "json", self.want), [])
        self.assertNotEqual(check_pin(drifted, pin), [])


class RunTest(unittest.TestCase):
    def test_child_peak_rss_excludes_the_harness(self):
        ballast = bytearray(96 * 1024 * 1024)
        ballast[:: 4096] = b"x" * len(ballast[:: 4096])
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as work, Launcher() as launcher:
            child = launcher.spawn([sys.executable, "-c", "pass"], Path(work) / "out",
                                   time.monotonic() + 60)
        self.assertEqual(child.code, 0)
        self.assertLess(child.rss_kb, 64 * 1024)
        del ballast

    def test_benchmark_json_lists_the_workloads(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["workloads"],
                         [{"name": w.name, "why": w.why} for w in WORKLOADS.values()])

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            for workload in (TINY, TINY_STRUCTURE):
                result, _ = measure(workload, seed=3, seconds=0.1, trace=trace)
                self.assertEqual(result["problems"], [])
                self.assertTrue(result["correct"])
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, want)

    def test_size_counters_repeat_for_a_seed(self):
        counters = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                    ["per_layer"] if m["unit"] in ("count", "bytes")]
        runs = [measure(TINY, seed=5, seconds=0.1, trace=True)[0]["metrics"] for _ in range(2)]
        self.assertEqual([runs[0][c] for c in counters], [runs[1][c] for c in counters])

    def test_fails_without_the_package_source(self):
        OUT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
        try:
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "items-wide", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
