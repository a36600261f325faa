"""Self-check of the benchmark's own correctness checks.

    python3 perfbench/test_selfcheck.py

Runs every workload at tiny orders and confirms that every metric
BENCHMARK.json names is emitted with its unit. Then plants defects in the
benchmark's copy of an output (a flipped bit in a rebuilt .inc, a wrong
violation count, a wrong w, a broken witness, an input gone missing) and
confirms that each makes the operation count as failed. Finally checks
that the benchmark refuses to report from a directory without the program.
Nothing under src/ or tests/ is touched.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

TINY = {
    "roundtrip": {"small": {"q": 3, "rounds": 2}, "large": {"q": 4, "rounds": 1}},
    "plane-matching": {"small": {"matching_q": 2, "decompose_q": 3, "rounds": 2},
                       "large": {"matching_q": 3, "decompose_q": 4, "rounds": 1}},
    "survey": {"small": {"count": 12, "sides": [2, 5], "densities": [0.3, 0.7], "rounds": 2},
               "large": {"per_density": 2, "sides": [6, 9], "densities": [0.1, 0.5], "rounds": 1}},
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tamper(ops: list, label: str, spoil) -> None:
    """Make the op's check see spoil(outcome) instead of its real outcome."""
    op = next(op for op in ops if op.label == label)
    check = op.check
    op.check = lambda outcome: check(spoil(outcome))


def edit_report(proc, edit):
    payload = json.loads(proc.stdout)
    edit(payload)
    proc.stdout = json.dumps(payload)
    return proc


def flip_first_bit(path: Path) -> None:
    header, body = path.read_text().split("\n", 1)
    path.write_text(header + "\n" + ("1" if body[0] == "0" else "0") + body[1:])


class MetricsEmitted(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([(w["name"], w["why"]) for w in SPEC["workloads"]],
                         [(name, w.why) for name, w in run.WORKLOADS.items()])

    def test_every_named_metric_on_every_workload(self):
        for name in run.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    report = run.measure(name, 0, 0, trace, TINY[name])["report"]
                    self.assertEqual(report["failed"], 0)
                    self.assertTrue(report["correct"])
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in report["metrics"].items()}
                    self.assertEqual(got, want)


class PassOrder(unittest.TestCase):
    def test_small_rounds_spread_between_large_ops(self):
        order: list[str] = []

        def op(label: str):
            return run.Op(label, lambda launcher: order.append(label), lambda outcome: None)

        tiers = {"small": [op("s1"), op("s2")], "large": [op("L1"), op("L2")]}
        result = run.run_pass(tiers, {"small": 4, "large": 2}, traced=False)
        self.assertEqual(order, ["L1", "s1", "s2", "L2", "s1", "s2", "L1", "s1", "s2", "L2", "s1", "s2"])
        self.assertEqual([len(r) for r in result.op_times["large"]], [2, 2])
        self.assertEqual([len(r) for r in result.op_times["small"]], [2, 2, 2, 2])
        self.assertEqual(result.attempted, 12)


class PlantedDefects(unittest.TestCase):
    def setUp(self):
        self.pglatin = run.load_pglatin()
        run.WORK.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=run.WORK))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def problems(self, ops: list) -> list[str]:
        result = run.run_pass({"large": ops}, {"large": 1}, traced=False)
        self.assertEqual(result.failed, len(result.problems))
        return result.problems

    def roundtrip(self) -> list:
        return run.roundtrip_tier(self.workdir / "rt", 4, random.Random(0))

    def test_clean_roundtrip_passes(self):
        self.assertEqual(self.problems(self.roundtrip()), [])

    def test_flipped_bit_in_rebuilt_matrix(self):
        ops = self.roundtrip()
        rebuilt = self.workdir / "rt" / "r.inc"
        tamper(ops, "reconstruct", lambda proc: (flip_first_bit(rebuilt), proc)[1])
        problems = self.problems(ops)
        self.assertEqual(len(problems), 2)
        self.assertIn("reconstruct: rebuilt matrix differs", problems[0])
        self.assertIn("verify-plane: exit 1, expected 0", problems[1])

    def test_wrong_violation_count(self):
        ops = self.roundtrip()
        tamper(ops, "verify-mpls-bad", lambda proc: edit_report(proc, lambda p: p["violations"].pop()))
        problems = self.problems(ops)
        self.assertEqual(len(problems), 1)
        self.assertIn("verify-mpls-bad: 15 violations, expected 16", problems[0])

    def test_missing_input_is_an_unexpected_exit(self):
        ops = self.roundtrip()
        extract = next(op for op in ops if op.label == "extract")
        extract.prepare = lambda: (self.workdir / "rt" / "c.inc").unlink()
        problems = self.problems(ops)
        self.assertIn("extract: exit 2, expected 0", problems[0])

    def test_broken_zero_block_witness(self):
        d = self.workdir
        ones = run.plane_file(self.pglatin, d, 3, random.Random(0))
        op = run.matching_op(d, 3, ones)
        col = min(ones[0])

        def break_witness(p):  # put the one at (0, col) inside the block
            p["w_witness"]["rows"][0] = 0
            p["w_witness"]["cols"][0] = col

        tamper([op], "matching", lambda proc: edit_report(proc, break_witness))
        problems = self.problems([op])
        self.assertEqual(len(problems), 1)
        self.assertIn("matching: w witness", problems[0])

    def test_flipped_bit_in_decomposed_part(self):
        d = self.workdir
        ones = run.plane_file(self.pglatin, d, 3, random.Random(0))
        op = run.decompose_op(d, 3, ones)
        tamper([op], "decompose", lambda proc: (flip_first_bit(d / "parts3" / "P1.inc"), proc)[1])
        problems = self.problems([op])
        self.assertEqual(len(problems), 1)
        self.assertIn("decompose:", problems[0])

    def test_wrong_w_against_the_oracle(self):
        matrix = run.survey_matrix(random.Random(0), random.Random(1), [5, 6], 0.5)
        op = run.survey_op(self.pglatin, *matrix, run.load_oracles())
        self.assertEqual(self.problems([op]), [])
        tamper([op], "duality_report", lambda report: dataclasses.replace(report, w=report.w - 1))
        problems = self.problems([op])
        self.assertEqual(len(problems), 1)
        self.assertIn("duality_report: w witness", problems[0])


class BareDirectory(unittest.TestCase):
    def test_refuses_to_report_without_the_program(self):
        run.WORK.mkdir(parents=True, exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=run.WORK))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
