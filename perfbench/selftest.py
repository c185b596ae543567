#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and tracer.

Run from the repository root:  python3 perfbench/selftest.py

Doctored outputs (an inconclusive report, a decay rate 10 % off, a short
sweep) must fail their check, and the untouched ones must pass, so that
``fail_ratio`` cannot read 0 by accident. The tracer test runs one small
verify through the wrappers and checks the span accounting.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracing import ROOT_SPAN, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    EVOLVE_PERTURBATION_SEED,
    VERIFY_S1_MAX,
    WORKLOADS,
    check_evolve,
    check_sweep,
    check_verify,
    evolve_amplitude,
    s1_of,
    verify_params,
)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        runs = ROOT / ".perfbench_runs"
        runs.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=runs)
        self.out = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def _report(self, **changes):
        report = {"verdict": "stable", "cause": None, "max_rel_mismatch": 3e-13,
                  "mismatch_threshold": 1e-8}
        report.update(changes)
        _write_json(self.out / "report.json", report)

    def _decay(self, rate_factor: float, r_squared: float = 0.99991):
        mu1 = 0.661528554983144
        _write_json(self.out / "decay.json",
                    {"rate": -rate_factor * mu1, "mu1_predicted": mu1, "r_squared": r_squared})

    def _sweep(self, records: list[dict]):
        with open(self.out / "results.jsonl", "w") as fh:
            for r in records:
                fh.write(json.dumps(r) + "\n")
        with open(self.out / "timing.jsonl", "w") as fh:
            for _ in records:
                fh.write(json.dumps({"job": [], "wall_time_ms": 40.0}) + "\n")

    def _stable_records(self):
        return [{"b": 0.1 * (1 + i // 4), "c": 1.0, "verdict": "stable", "mu1": 0.5,
                 "max_rel_mismatch": 1e-13, "cause": None} for i in range(36)]

    def test_verify(self):
        self._report()
        self.assertIsNone(check_verify(0, self.out)[0])
        self.assertIsNotNone(check_verify(1, self.out)[0])
        self._report(verdict="inconclusive", cause="spectral mismatch")
        self.assertIn("inconclusive", check_verify(0, self.out)[0])
        failure, diag = check_verify(1, self.out)
        self.assertIn("inconclusive", failure)
        self.assertEqual(diag["max_rel_mismatch"], 3e-13)
        (self.out / "report.json").unlink()
        self.assertIn("no report.json", check_verify(1, self.out)[0])
        self._report(max_rel_mismatch=2e-8)
        self.assertIn("exceeds", check_verify(0, self.out)[0])

    def test_evolve(self):
        self._decay(1.01)
        self.assertIsNone(check_evolve(0, self.out)[0])
        self._decay(1.10)
        self.assertIn("off", check_evolve(0, self.out)[0])
        self._decay(0.90)
        self.assertIn("off", check_evolve(0, self.out)[0])
        self._decay(1.01, r_squared=0.998)
        self.assertIn("r_squared", check_evolve(0, self.out)[0])
        _write_json(self.out / "decay.json", {"error": "too few samples", "mu1_predicted": 0.6})
        self.assertIn("no decay fit", check_evolve(0, self.out)[0])

    def test_sweep(self):
        records = self._stable_records()
        self._sweep(records)
        failure, diag = check_sweep(0, self.out)
        self.assertIsNone(failure)
        self.assertEqual(len(diag["job_ms"]), 36)
        self._sweep(records[:-1])
        self.assertIn("35 records", check_sweep(0, self.out)[0])
        self._sweep(records[:-1] + [{**records[-1], "verdict": "inconclusive"}])
        self.assertIn("inconclusive", check_sweep(0, self.out)[0])
        self._sweep(records[:-1] + [{**records[-1], "mu1": -0.1}])
        self.assertIn("mu1", check_sweep(0, self.out)[0])


class DrawTest(unittest.TestCase):
    def test_verify_draws(self):
        for seed in (0, 4, 531548666):
            b0, c0 = verify_params(seed, 0)
            self.assertAlmostEqual(s1_of(b0, c0), 2.0, places=12)  # degenerate locus
            for index in range(200):
                b, c = verify_params(seed, index)
                self.assertTrue(0.05 <= b <= 0.95 and 0.25 <= c <= 4.0)
                self.assertLess(s1_of(b, c), VERIFY_S1_MAX)
        self.assertEqual(verify_params(7, 3), verify_params(7, 3))

    def test_evolve_draws(self):
        amplitudes = [evolve_amplitude(11, i) for i in range(100)]
        self.assertTrue(all(2.5e-4 <= a <= 1e-3 for a in amplitudes))
        self.assertEqual(len(set(amplitudes)), 100)
        argv = WORKLOADS["evolve-1d"].argv(11, 5, Path("out"), 1)
        self.assertEqual(argv[argv.index("--seed") + 1], str(EVOLVE_PERTURBATION_SEED))
        self.assertEqual(float(argv[argv.index("--amplitude") + 1]), amplitudes[5])


class TracerTest(unittest.TestCase):
    def test_small_verify_spans(self):
        import lvsync.cli
        import lvsync.linstab

        original = lvsync.linstab.eigenpairs
        tracer = Tracer()
        runs = ROOT / ".perfbench_runs"
        runs.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=runs) as out:
            with contextlib.redirect_stdout(io.StringIO()), tracer.traced_op(7):
                code = lvsync.cli.main(["verify", "--domain", "interval:0:pi", "--n", "24",
                                        "--a", "2", "--b", "0.5", "--c", "1", "--k", "2",
                                        "--out", out])
        self.assertEqual(code, 0)
        self.assertIs(lvsync.linstab.eigenpairs, original, "wrappers must be removed")
        row = tracer.per_op()[7]
        for name in WORKLOADS["verify-2d"].expected_spans:
            self.assertGreater(row.get(name, (0.0, 0))[1], 0, name)
        self.assertEqual(row["spectral.eigenpairs"][1], 2)  # one per family
        root = next(s for s in tracer.spans if s.name == ROOT_SPAN)
        self.assertAlmostEqual(sum(s for s, _ in row.values()), root.end - root.start,
                               delta=1e-9)
        self.assertEqual(tracer.counters[7]["linstab.coupled_eigenpairs.unknowns"], 48)


if __name__ == "__main__":
    unittest.main()
