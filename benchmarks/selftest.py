"""Self-tests of the benchmark itself (not of qiradar).

    PYTHONPATH=src python3 benchmarks/selftest.py

Run from the root of a checkout. Kept out of pytest's default discovery so
the repository's own test run is unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import measure  # noqa: E402

import qiradar as q  # noqa: E402


class GeneratedInputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = workloads.fingerprint(workloads.generate(workload, 5))
                self.assertEqual(first, workloads.fingerprint(workloads.generate(workload, 5)))
                self.assertNotEqual(first, workloads.fingerprint(workloads.generate(workload, 6)))

    def test_shapes(self):
        analytic = workloads.analytic_sweep(1)
        self.assertEqual(len(analytic), workloads.ANALYTIC_DOCUMENTS)
        self.assertEqual(sum(i["expect_error"] is not None for i in analytic),
                         3 * workloads.ANALYTIC_DOCUMENTS // 100)
        for item in workloads.roc_dense(1):
            t = item["values"]["roc_thresholds"]
            self.assertEqual(len(t), workloads.ROC_THRESHOLDS)
            self.assertEqual(t, sorted(t))
            self.assertIn(0.0, t)
            self.assertIn(1.0, t)


class Gate(unittest.TestCase):
    def test_correct_outputs_pass(self):
        for workload, items in (("analytic_sweep", workloads.analytic_sweep(3)[:200]),
                                ("roc_dense", workloads.roc_dense(3)[:2])):
            check = gate.CHECKS[workload]
            for item in items:
                with self.subTest(workload=workload, item=item["id"]):
                    self.assertIsNone(check(q, item, measure.run_one(q, item)))

    def _valid(self, items):
        item = next(i for i in items if i["expect_error"] is None)
        return item, measure.run_one(q, item)

    def test_corrupted_report_is_flagged(self):
        for fmt in ("structured", "table"):
            items = [i for i in workloads.analytic_sweep(3) if i["format"] == fmt]
            item, outcome = self._valid(items)
            bad = dataclasses.replace(outcome.report, trace_distance=outcome.report.trace_distance + 0.3)
            corrupted = gate.Outcome(report=bad, text=outcome.text)
            self.assertIsNotNone(gate.check_analytic(q, item, corrupted))

    def test_corrupted_document_is_flagged(self):
        items = [i for i in workloads.analytic_sweep(3) if i["format"] == "structured"]
        item, outcome = self._valid(items)
        doc = json.loads(outcome.text)
        doc["metrics"]["fidelity"] = doc["metrics"]["fidelity"] / 2
        corrupted = gate.Outcome(report=outcome.report, text=json.dumps(doc))
        self.assertIsNotNone(gate.check_analytic(q, item, corrupted))

    def test_malformed_document_must_raise(self):
        item = next(i for i in workloads.analytic_sweep(3) if i["expect_error"] is not None)
        _, valid = self._valid(workloads.analytic_sweep(3))
        self.assertIsNotNone(gate.check_analytic(q, item, valid))
        self.assertIsNotNone(gate.check_analytic(q, item, gate.Outcome(error=RuntimeError())))

    def test_increasing_roc_is_flagged(self):
        item, outcome = self._valid(workloads.roc_dense(3)[:1])
        doc = json.loads(outcome.text)
        k = len(doc["roc"]) // 2
        doc["roc"][k]["p_detection"] = doc["roc"][k - 1]["p_detection"] + 0.01
        corrupted = gate.Outcome(report=outcome.report, text=json.dumps(doc), csv=outcome.csv)
        self.assertIsNotNone(gate.check_roc(q, item, corrupted))


class Tracer(unittest.TestCase):
    def test_removed_target_is_absent_not_fatal(self):
        targets = dict(tracing.TARGETS)
        targets["detector"] = targets["detector"] + ("_removed_by_a_refactor",)
        targets["gone"] = ("anything",)
        tr = tracing.Tracer()
        tr.install(targets)
        try:
            q.roc_sweep(q.hypothesis_h0(0.2), q.hypothesis_h0(0.2), [0.0, 1.0])
        finally:
            tr.uninstall()
        self.assertIn("detector._removed_by_a_refactor", tr.absent)
        self.assertIn("gone.anything", tr.absent)
        self.assertTrue(any(tr.names[s[0]] == "detector.roc_sweep" for s in tr.spans))

    def test_uninstall_restores_functions(self):
        before = q.detector.roc_sweep, q.qstate.DensityOperator.__post_init__
        tr = tracing.Tracer()
        tr.install()
        self.assertIsNot(q.detector.roc_sweep, before[0])
        tr.uninstall()
        self.assertEqual((q.detector.roc_sweep, q.qstate.DensityOperator.__post_init__), before)

    def test_self_times_sum_to_traced_wall(self):
        items = workloads.analytic_sweep(4)[:50] + workloads.roc_dense(4)[:1]
        tr = tracing.Tracer()
        tr.install()
        try:
            for item in items:
                tr.scenario = item["id"]
                with tr.span("bench.scenario"):
                    measure.run_one(q, item)
        finally:
            tr.uninstall()
        spans = tracing.resolve(tr)
        totals, wall = tracing.layer_self_ns(spans)
        self.assertEqual(sum(totals.values()), wall)
        self.assertTrue(all(v >= 0 for v in tracing.self_times(spans)))
        self.assertGreater(1.0 - totals["bench"] / wall, 0.9)

    def test_self_time_arithmetic(self):
        spans = [("bench.root", -1, 0, 100, 0), ("cli.a", 0, 10, 60, 0),
                 ("qstate.b", 1, 20, 30, 0), ("qstate.b", 1, 40, 45, 0), ("report.c", 0, 70, 90, 0)]
        self.assertEqual(tracing.self_times(spans), [30, 35, 10, 5, 20])
        totals, wall = tracing.layer_self_ns(spans)
        self.assertEqual(totals, {"bench": 30, "cli": 35, "qstate": 15, "report": 20})
        self.assertEqual(wall, 100)


if __name__ == "__main__":
    unittest.main()
