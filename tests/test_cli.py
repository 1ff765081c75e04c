import json
import math
import os
import subprocess
import sys
from pathlib import Path
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import python_m_qiradar

from qiradar import channel, cli, closed_form, detector, errors, linkbudget, metrics, qstate
from qiradar import scenario as scenario_module
from qiradar import report as report_module
from qiradar.cli import main, run_scenario
from qiradar.closed_form import born_pair
from qiradar.errors import MAX_TRIALS, DegenerateInput, NumericalDomain, ValidationError
from qiradar.linkbudget import LinkBudgetInputs
from qiradar.montecarlo import TrialOutcome, draw_counts, outcome_error, split_trials
from qiradar.report import (ROC_CSV_HEADER, DetectionReport, RocPoint, emit_report,
                            report_to_dict, roc_csv)
from qiradar.scenario import Scenario, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

ANCHOR_DOC = (
    "phase_rad = 3.141592653589793\n"
    "reflectivity = 1\n"
    "noise_excitation = 0.5\n"
)

FULL_DOC = ANCHOR_DOC + (
    "trials = 20000\n"
    "seed = 99\n"
    "roc_thresholds = 0, 1, 4\n"
    "link_budget.power_w = 1e-16\n"
    "link_budget.noise_power_w = 1e-15\n"
)


NO_TRIALS = (TrialOutcome(0, 0, 0, "H0", 0), TrialOutcome(0, 0, 0, "H1", 0))

EDGE_ETA_P = (0.48785665652414756, 0.20995480637147712)
EDGE_ROC_DOC = (  # a signed zero, a repeated threshold, probabilities of 0 and 1, and 1e308
    "phase_rad = 1\nreflectivity = {!r}\nnoise_excitation = {!r}\n".format(*EDGE_ETA_P)
    + "roc_thresholds = -0, 0, 0, 1, 1e308\n"
)


def run_doc(doc: str):
    return run_scenario(parse_scenario(doc))


def assert_one_rendering(report):
    """The structured line is json.dumps of the document, and the CSV is each point's
    floats by repr under the header; the report rebuilt by replace emits the same line."""
    text = emit_report(report, "structured")
    assert text == json.dumps(report_to_dict(report), sort_keys=True) + "\n"
    rows = [",".join(map(repr, point)) for point in report.roc]
    assert roc_csv(report.roc) == "\n".join([ROC_CSV_HEADER, *rows]) + "\n"
    assert emit_report(replace(report), "structured") == text


class TestRunScenario:
    def test_anchor_metrics(self):
        report = run_doc(ANCHOR_DOC)
        assert abs(report.trace_distance - 0.75) <= 1e-9
        assert abs(report.fidelity - 0.25) <= 1e-9
        assert abs(report.helstrom_error - 0.125) <= 1e-9
        assert report.monte_carlo is None
        assert report.roc is None
        assert report.link_budget is None

    @pytest.mark.parametrize("scenario, kind", [("x", "str"), (None, "NoneType"),
                                                (ANCHOR_DOC, "str"), ({"phase_rad": 1.0}, "dict")])
    def test_what_is_not_a_scenario_raises_a_typed_error(self, scenario, kind):
        with pytest.raises(DegenerateInput, match=f"^scenario must be a Scenario, got {kind}$"):
            run_scenario(scenario)

    def test_detector_half_runs_on_the_closed_form(self, monkeypatch):
        # F, P_e, the ROC and the Monte Carlo Born probabilities come from
        # closed_form: no generic Born probabilities and no ROC eigensolve.
        # The one eigensolve left is D's.
        def forbidden(*args, **kwargs):
            raise AssertionError("the pipeline ran the generic detector")

        for name in ("born_pair", "roc_sweep"):
            monkeypatch.setattr(detector, name, forbidden)
        calls = []
        original = qstate.eigendecompose_hermitian

        def counted(m):
            calls.append(m.shape)
            return original(m)

        for module in (qstate, metrics, detector):
            monkeypatch.setattr(module, "eigendecompose_hermitian", counted)
        report = run_doc(FULL_DOC)
        assert len(report.roc) == 3 and sum(o.trials for o in report.monte_carlo) == 20000
        assert calls == [(4, 4)]

    def test_closed_form_roundoff_past_one_is_clamped(self):
        # For these (η, p) the closed form's P_D at t = 0 and at the priors is 1 + 2^-52.
        eta, p = 0.48785665652414756, 0.20995480637147712
        assert born_pair(eta, p, 0.0, 1.0)[1] > 1.0 and born_pair(eta, p, 0.2, 0.8)[1] > 1.0
        report = run_doc(f"phase_rad = 1\nreflectivity = {eta!r}\nnoise_excitation = {p!r}\n"
                         "prior_h0 = 0.2\nprior_h1 = 0.8\ntrials = 1000\nseed = 3\n"
                         "roc_thresholds = 0\n")
        assert report.roc[0].p_detection == 1.0
        assert report.monte_carlo[1].decide_h1_count == report.monte_carlo[1].trials == 800

    def test_a_fidelity_past_its_window_raises(self, monkeypatch):
        # F leaves [0, 1] by at most 1 ulp (measured: once in 10⁵ random (η, p)); the report
        # snaps it within CURVE_WINDOW, 4 ulp, and no further. At η = 0, D = 0 and F = 1, so
        # the Fuchs-van de Graaff check passes on a snapped F.
        doc = "phase_rad = 1\nreflectivity = 0\nnoise_excitation = 0.2\n"
        monkeypatch.setattr(closed_form, "fidelity", lambda eta, p: 1.0 + 2**-50)
        assert run_doc(doc).fidelity == 1.0
        monkeypatch.setattr(closed_form, "fidelity", lambda eta, p: 1.0 + 1e-12)
        with pytest.raises(NumericalDomain, match="fidelity = 1 lies outside"):
            run_doc(doc)

    def test_vanished_target_is_undetectable(self):
        report = run_doc("phase_rad = 1.0\nreflectivity = 0\nnoise_excitation = 0.3\n")
        assert report.trace_distance == 0.0
        assert abs(report.fidelity - 1.0) <= 1e-9
        assert abs(report.helstrom_error - 0.5) <= 1e-9

    def test_environmental_phase_is_subtracted(self):
        doc = (
            f"phase_rad = {3 * math.pi / 2}\n"
            "reflectivity = 1\n"
            "noise_excitation = 0.5\n"
            f"env_phase_rad = {math.pi / 2}\n"
        )
        report = run_doc(doc)
        assert abs(report.phase_effective_rad - math.pi) <= 1e-12
        assert abs(report.trace_distance - 0.75) <= 1e-9

    def test_effective_phase_is_reduced_to_principal_range(self):
        doc = (
            "phase_rad = 0.5\n"
            "reflectivity = 1\n"
            "noise_excitation = 0.5\n"
            "env_phase_rad = 1.5\n"
        )
        report = run_doc(doc)
        assert abs(report.phase_effective_rad - (2 * math.pi - 1.0)) <= 1e-12

    def test_monte_carlo_block(self):
        report = run_doc(ANCHOR_DOC + "trials = 1000\nseed = 7\n")
        h0, h1 = report.monte_carlo
        assert h0.seed == h1.seed == 7
        assert (h0.trials, h1.trials) == (500, 500)
        assert h0.true_hypothesis == "H0"
        assert h1.true_hypothesis == "H1"
        mc = report_to_dict(report)["monte_carlo"]
        assert mc["seed"] == 7
        assert mc["empirical_error"] == (h0.decide_h1_count + h1.decide_h0_count) / 1000
        assert 0.0 <= mc["empirical_error"] <= 1.0

    def test_monte_carlo_at_max_trials_agrees_with_helstrom_error(self):
        report = run_scenario(Scenario(phase_rad=1.0, reflectivity=0.6, noise_excitation=0.3,
                                       trials=MAX_TRIALS, seed=20240817))
        analytic = report.helstrom_error
        sigma = math.sqrt(analytic * (1.0 - analytic) / MAX_TRIALS)
        empirical = report_to_dict(report)["monte_carlo"]["empirical_error"]
        assert abs(empirical - analytic) <= 4.0 * sigma

    def test_roc_points(self):
        report = run_doc(ANCHOR_DOC + "roc_thresholds = 0, 1, 4\n")
        assert [p.threshold for p in report.roc] == [0.0, 1.0, 4.0]
        head = report.roc[0]
        assert abs(head.p_false_alarm - 0.25) <= 1e-9
        assert abs(head.p_detection - 1.0) <= 1e-9
        tail = report.roc[-1]
        assert tail.p_false_alarm == 0.0
        assert tail.p_detection == 0.0

    def test_link_budget_passthrough(self):
        report = run_doc(FULL_DOC)
        assert report.link_budget.power_dbm == -130.0
        assert report.link_budget.snr == pytest.approx(0.1, rel=1e-12)
        assert report.link_budget.thermal_occupancy is None

    def test_thermal_derivation_warns_when_saturated(self):
        doc = (
            "phase_rad = 1.0\n"
            "reflectivity = 0.6\n"
            "frequency_hz = 1e10\n"
            "temperature_k = 290\n"
        )
        report = run_doc(doc)
        assert abs(report.scenario.noise_excitation - 0.9983464572061889) <= 1e-9
        assert any("saturates" in warning for warning in report.warnings)

    def test_contradicting_noise_is_rejected_not_reported(self):
        with pytest.raises(ValidationError) as err:
            run_scenario(Scenario(phase_rad=1.0, reflectivity=0.6, noise_excitation=0.3,
                                  frequency_hz=1e10, temperature_k=290.0))
        assert err.value.field == "noise_excitation"

    def test_cold_thermal_derivation_does_not_warn(self):
        doc = (
            "phase_rad = 1.0\n"
            "reflectivity = 0.6\n"
            "frequency_hz = 1e12\n"
            "temperature_k = 4\n"
        )
        report = run_doc(doc)
        assert report.warnings == ()


class TestMetricChecks:
    """run_scenario's checks of the report's D, F and P_e, on values patched into the
    pipeline. Each failure is a NumericalDomain naming its check."""

    @staticmethod
    def run_with(monkeypatch, d=None, f=None, pe=None):
        """run_doc(ANCHOR_DOC) (D = 0.75, F = 0.25, P_e = 0.125) with the given metrics."""
        if d is not None:
            monkeypatch.setattr(metrics, "trace_distance", lambda a, b: d)
        if f is not None:
            monkeypatch.setattr(closed_form, "fidelity", lambda eta, p: f)
        if pe is not None:
            monkeypatch.setattr(closed_form, "helstrom_error", lambda eta, p, priors: pe)
        return run_doc(ANCHOR_DOC)

    # D = 0.9 with F = 0.9 breaks D <= √(1 − F) ~ 0.316. The slack is FVG_ATOL = 1e-7:
    # D = 0.5 ± 5e-7 lies past √(1 − 0.75) = 0.5 or below 1 − √0.25 = 0.5, ± 5e-8 does not.
    @pytest.mark.parametrize("d, f", [(0.9, 0.9), (0.5 + 5e-7, 0.75), (0.5 - 5e-7, 0.25)])
    def test_a_sandwich_violation_raises(self, monkeypatch, d, f):
        with pytest.raises(NumericalDomain, match="^while running scenario: Fuchs-van de "
                                                  "Graaff sandwich violated: D="):
            self.run_with(monkeypatch, d=d, f=f)

    @pytest.mark.parametrize("d, f", [(0.5 + 5e-8, 0.75), (0.5 - 5e-8, 0.25)])
    def test_the_sandwich_holds_within_its_slack(self, monkeypatch, d, f):
        report = self.run_with(monkeypatch, d=d, f=f)
        assert (report.trace_distance, report.fidelity) == (d, f)

    @pytest.mark.parametrize("d, pe, match", [
        (1.5, None, r"metrics out of range: D=1\.5, F=0\.25"),
        (None, 0.7, r"Helstrom error out of range: 0\.7"),
        (None, 0.5 + 1e-9, r"Helstrom error out of range: 0\.500000001"),  # past ½ + 1e-12
    ], ids=["d-past-one", "pe-past-its-range", "pe-past-one-half"])
    def test_a_metric_out_of_range_raises(self, monkeypatch, d, pe, match):
        with pytest.raises(NumericalDomain, match=f"^while running scenario: {match}$"):
            self.run_with(monkeypatch, d=d, pe=pe)

    # A NaN from any of the three kernels stops at its gate in the report: D's real-number
    # gate, or the window that F and P_e are snapped into. No report holds a NaN metric.
    @pytest.mark.parametrize("metric, error, match", [
        ("d", DegenerateInput, r"trace_distance must be finite, got nan"),
        ("f", NumericalDomain, r"fidelity = nan lies outside \[0, 1\] beyond roundoff"),
        ("pe", NumericalDomain, r"Helstrom error = nan lies outside \[0, 1\] beyond roundoff"),
    ])
    def test_a_nan_metric_raises(self, monkeypatch, metric, error, match):
        with pytest.raises(error, match=f"^while running scenario: {match}$"):
            self.run_with(monkeypatch, **{metric: math.nan})

    def test_helstrom_error_may_pass_one_half_by_roundoff(self, monkeypatch):
        assert self.run_with(monkeypatch, pe=0.5 + 1e-13).helstrom_error == 0.5 + 1e-13

    def test_a_violation_exits_3_naming_the_check(self, monkeypatch, tmp_path, capsys):
        cfg = tmp_path / "anchor.cfg"
        cfg.write_text(ANCHOR_DOC, encoding="utf-8")
        monkeypatch.setattr(metrics, "trace_distance", lambda a, b: 0.9)
        monkeypatch.setattr(closed_form, "fidelity", lambda eta, p: 0.9)
        assert main(["run", str(cfg)]) == 3
        assert capsys.readouterr() == ("", "error: while running scenario: Fuchs-van de Graaff "
                                           "sandwich violated: D=0.9, F=0.9\n")


class TestReportSerialization:
    def test_structured_round_trip(self):
        report = run_doc(FULL_DOC)
        parsed = json.loads(emit_report(report, "structured"))
        assert parsed == report_to_dict(report)
        assert parsed["metrics"]["trace_distance"] == report.trace_distance
        assert parsed["metrics"]["fidelity"] == report.fidelity
        assert parsed["monte_carlo"]["empirical_error"] == outcome_error(*report.monte_carlo)
        assert parsed["scenario"]["seed"] == 99

    def test_structured_is_deterministic(self):
        first = emit_report(run_doc(FULL_DOC), "structured")
        second = emit_report(run_doc(FULL_DOC), "structured")
        assert first == second

    def test_table_spot_checks(self):
        table = emit_report(run_doc(FULL_DOC), "table")
        assert table.splitlines()[0] == "scenario"
        assert "trace_distance" in table
        assert "0.75" in table
        assert "monte carlo" in table
        assert "link budget" in table
        assert "-130" in table

    def test_table_is_the_default_format(self):
        report = run_doc(ANCHOR_DOC)
        assert emit_report(report) == emit_report(report, "table")

    def test_unknown_format_rejected(self):
        with pytest.raises(DegenerateInput):
            emit_report(run_doc(ANCHOR_DOC), "yaml")

    def test_report_numbers_pass_the_real_number_gate(self):
        # D is the one given number; the report derives the others from its scenario.
        report = run_doc(ANCHOR_DOC)
        narrow = replace(report, trace_distance=np.float32(0.5))
        assert type(narrow.trace_distance) is float
        assert json.loads(emit_report(narrow, "structured"))["metrics"]["trace_distance"] == 0.5
        for value in (math.nan, math.inf, "0.5", None):
            with pytest.raises(DegenerateInput, match="trace_distance"):
                replace(report, trace_distance=value)
            with pytest.raises(DegenerateInput, match="trace_distance"):
                DetectionReport(report.scenario, value)

    @pytest.mark.parametrize("roc", [
        lambda r: list(r.roc),
        lambda r: tuple(r.roc),
        lambda r: r.roc[:1],
        lambda r: r.roc[::-1],
        lambda r: r.roc + r.roc[-1:],
        lambda r: (r.roc[0]._replace(threshold=-0.0), r.roc[1]),
        lambda r: r.roc[:1] + (RocPoint(math.nan, 0.5, 0.5),),
        lambda r: [tuple(point) for point in r.roc],  # equal to the points, not RocPoints
        lambda r: report_module._Curve(r.roc),  # the curve's type, not built by of_columns
        lambda r: (),
        lambda r: [1, 2],
        lambda r: "0,1",
        lambda r: 5,
    ], ids=["list", "tuple", "short", "reversed", "long", "signed-zero-point", "nan-point",
            "plain-tuples", "hand-built-curve", "empty", "ints", "str", "int"])
    def test_only_the_pipeline_curve_is_accepted(self, roc):
        # roc_csv's input is the curve a report built: any other value is rejected whole,
        # whatever its points hold.
        report = run_doc(ANCHOR_DOC + "roc_thresholds = 0, 1\n")
        assert type(report.roc) is report_module._Curve
        value = roc(report)
        kind = type(value).__name__
        with pytest.raises(DegenerateInput, match=f"^points must be a curve run_scenario built, "
                                                  f"got {kind}$"):
            roc_csv(value)

    def test_roc_points_on_their_bounds_are_accepted(self):
        report = run_doc(ANCHOR_DOC + "roc_thresholds = 0, 1e308\n")
        assert json.loads(emit_report(report, "structured"))["roc"][1]["threshold"] == 1e308
        assert roc_csv(report.roc).splitlines()[1:] == ["0.0,0.25,1.0", "1e+308,0.0,0.0"]
        assert "nan" not in emit_report(report) and "inf" not in emit_report(report)

    @pytest.mark.parametrize("fields", [
        lambda r: {"roc": run_doc(ANCHOR_DOC + "roc_thresholds = 0\n").roc},
        lambda r: {"roc": run_doc(ANCHOR_DOC + "roc_thresholds = 0, 1, 1\n").roc},
        lambda r: {"roc": None},
        lambda r: {"roc": run_doc(ANCHOR_DOC + "roc_thresholds = 0, 2\n").roc},
        lambda r: {"scenario": replace(r.scenario, roc_thresholds=(0.0, 2.0))},
        lambda r: {"scenario": replace(r.scenario, roc_thresholds=None)},
        # The echo prints the curve's text, so a threshold must match to the sign.
        lambda r: {"roc": run_doc(ANCHOR_DOC + "roc_thresholds = -0, 1\n").roc},
        lambda r: {"scenario": replace(r.scenario, roc_thresholds=(-0.0, 1.0))},
    ], ids=["short", "long", "dropped", "moved", "other-scenario", "no-thresholds",
            "signed-zero-point", "signed-zero-scenario"])
    def test_roc_matches_its_scenarios_thresholds(self, fields):
        # A pipeline curve of other thresholds cannot be given; a scenario replaced under
        # the curve derives its own, one point at each threshold, to the sign.
        report = run_doc(ANCHOR_DOC + "roc_thresholds = 0, 1\n")
        given = fields(report)
        if "roc" in given:
            with pytest.raises(ValueError, match="field roc is declared with init=False"):
                replace(report, **given)
            return
        moved = replace(report, **given)
        fresh = run_scenario(moved.scenario)
        assert moved == fresh and emit_report(moved, "structured") == emit_report(fresh,
                                                                                  "structured")
        thresholds = moved.scenario.roc_thresholds
        if thresholds is None:
            assert moved.roc is None
        else:
            assert [repr(point.threshold) for point in moved.roc] == list(map(repr, thresholds))

    def test_roc_edge_values_render_once_through_the_pipeline(self):
        # At t = 0 the closed form's P_D is 1 + 2^-52 for these (η, p), clamped to 1.
        assert born_pair(*EDGE_ETA_P, 0.0, 1.0)[1] == 1.0 + 2**-52
        report = run_doc(EDGE_ROC_DOC)
        assert roc_csv(report.roc).splitlines()[1:] == [
            "-0.0,1.0,1.0", "0.0,1.0,1.0", "0.0,1.0,1.0",
            "1.0,0.20960185462869285,0.5855475646954656", "1e+308,0.0,0.0"]
        text = emit_report(report, "structured")
        assert '"roc_thresholds": [-0.0, 0.0, 0.0, 1.0, 1e+308]' in text
        assert text.count('"threshold": -0.0') == 1
        assert_one_rendering(report)

    def test_roc_edge_values_render_once_from_a_patched_kernel(self, monkeypatch):
        # Columns holding 5e-324, exact 0 and 1, and 1 + 2⁻⁵², which the curve clamps
        # to 1; the threshold 1e308 lies past them, in the zero tail.
        def born_pairs(eta, p, w0s, w1=1.0):
            return [0.0, 5e-324, 1.0 + 2**-52, 1.0], [1.0, 1.0, 1.0 + 2**-52, 0.0]

        monkeypatch.setattr(closed_form, "born_pairs", born_pairs)
        report = run_doc(EDGE_ROC_DOC)
        assert roc_csv(report.roc).splitlines()[1:] == [
            "-0.0,0.0,1.0", "0.0,5e-324,1.0", "0.0,1.0,1.0", "1.0,1.0,0.0", "1e+308,0.0,0.0"]
        assert_one_rendering(report)
        # The CSV renders an unemitted report's curve first; the structured line reuses it.
        fresh = run_doc(EDGE_ROC_DOC)
        assert roc_csv(fresh.roc) == roc_csv(report.roc)
        assert emit_report(fresh, "structured") == emit_report(report, "structured")

    def test_a_report_moved_onto_other_thresholds_is_their_report(self):
        # replace(report, scenario=…) derives the curve again, at the new scenario's thresholds.
        report = run_doc(ANCHOR_DOC + "roc_thresholds = 0, 1, 4\n")
        assert report.roc._source[0] is report.scenario.roc_thresholds
        for other in ((0.0, 1.0, 5.0), (-0.0, 1.0, 4.0), (0.0, 1.0), (0.0, 1.0, 4.0, 4.0), None):
            scenario = replace(report.scenario, roc_thresholds=other)
            moved, fresh = replace(report, scenario=scenario), run_scenario(scenario)
            assert moved == fresh
            for fmt in ("structured", "table"):
                assert emit_report(moved, fmt) == emit_report(fresh, fmt)
            if other is not None:
                assert moved.roc._source[0] is scenario.roc_thresholds
                assert roc_csv(moved.roc) == roc_csv(fresh.roc)

    @pytest.mark.parametrize("eta, p, thresholds, computed", [
        (0.5, 0.5, "2.6, 3, 1e308", 0),           # every threshold past t₊: an empty prefix
        (0.5, 0.0, "0, 1, 8, 1e308", 4),          # p = 0: there is no tail
        (0.5, 0.5, "2.5, 2.5, 8", 2),             # computed zeros from index 0, then the tail
        (0.5, 0.5, "-0, 0, 0, 1, 2.6, 2.6", 4),   # −0.0 and repeated thresholds
        (*EDGE_ETA_P, "-0, 0, 0, 1, 1e308", 4),   # a clamped P_D of 1 + 2⁻⁵² at t = 0
    ])
    def test_pipeline_curve_renders_as_its_points(self, eta, p, thresholds, computed):
        # of_columns formats the computed prefix and writes "0.0" for each point past it:
        # the same text as each point's floats by repr.
        report = run_doc(f"phase_rad = 1\nreflectivity = {eta!r}\nnoise_excitation = {p!r}\n"
                         f"roc_thresholds = {thresholds}\n")
        assert [len(column) for column in report.roc._source] == [len(report.roc), computed,
                                                                 computed]
        assert report.roc.columns == tuple(list(map(repr, column)) for column in zip(*report.roc))
        assert_one_rendering(report)

    @pytest.mark.parametrize("column", [0, 1])
    def test_a_kernel_past_the_curve_window_raises(self, monkeypatch, column):
        # The closed form leaves [0, 1] by at most 1 ulp; the curve snaps 4 ulp, no more.
        def kernel(value):
            def born_pairs(eta, p, w0s, w1=1.0):
                columns = [[0.5] * len(w0s), [0.5] * len(w0s)]
                columns[column][0] = value
                return tuple(columns)
            return born_pairs

        doc = ANCHOR_DOC + "roc_thresholds = 0, 1\n"
        what = ("false-alarm", "detection")[column]
        for value, snapped in ((1.0 + 2**-50, 1.0), (-(2**-50), 0.0)):
            monkeypatch.setattr(closed_form, "born_pairs", kernel(value))
            assert run_doc(doc).roc[0][1 + column] == snapped
        for value, text in ((1.0 + 1e-12, "1"), (1.0 + 2**-49, "1"), (-1e-12, "-1e-12"),
                            (math.nan, "nan")):  # the message prints 12 digits
            monkeypatch.setattr(closed_form, "born_pairs", kernel(value))
            with pytest.raises(NumericalDomain, match=f"{what} probability = {text} lies outside"):
                run_doc(doc)

    def test_pipeline_curve_is_checked_once(self, monkeypatch):
        # run_scenario range-checks and clamps the curve once, in of_columns; rendering
        # the report, in every format and as CSV, never builds it again.
        built = []
        of_columns = report_module._Curve.of_columns

        def counted(thresholds, p_fa, p_d):
            built.append(thresholds)
            return of_columns(thresholds, p_fa, p_d)

        monkeypatch.setattr(report_module._Curve, "of_columns", counted)
        report = run_doc(ANCHOR_DOC + "roc_thresholds = 0, 1\n")
        assert type(report.roc) is report_module._Curve and len(built) == 1
        for fmt in ("structured", "table"):
            emit_report(report, fmt)
        assert roc_csv(report.roc).count("\n") == 3 and len(built) == 1

    def test_a_plain_tuple_is_not_a_roc_point(self):
        # RocPoint is a NamedTuple and compares equal to a plain tuple of its floats, so
        # a curve's points copied out compare equal to it and are still refused.
        report = run_doc(ANCHOR_DOC + "roc_thresholds = 0.5\n")
        [point] = report.roc
        assert tuple(point) == point and [tuple(point)] == list(report.roc)
        with pytest.raises(DegenerateInput, match="points must be a curve run_scenario built"):
            roc_csv([tuple(point)])

    @pytest.mark.parametrize("fields, error, match", [
        (lambda r: {"monte_carlo": (1, 2)}, ValueError, "field monte_carlo is declared with init"),
        (lambda r: {"monte_carlo": r.monte_carlo[::-1]}, ValueError, "field monte_carlo is"),
        (lambda r: {"monte_carlo": (r.monte_carlo[0], replace(r.monte_carlo[1], seed=8))},
         ValueError, "field monte_carlo is declared with init=False"),
        (lambda r: {"roc": [1, 2]}, ValueError, "field roc is declared with init=False"),
        (lambda r: {"link_budget": 5}, ValueError, "field link_budget is declared with init=False"),
        (lambda r: {"scenario": None}, DegenerateInput, "^scenario must be a Scenario, got None"),
        (lambda r: {"warnings": "saturates"}, ValueError, "field warnings is declared with init"),
    ], ids=["mc-ints", "mc-swapped", "mc-seeds", "roc-ints", "link_budget", "scenario",
            "warnings-str"])
    def test_report_checks_its_structure(self, fields, error, match):
        # Only the scenario is checked for its type; a derived field cannot be given at all.
        report = run_doc(FULL_DOC)
        with pytest.raises(error, match=match):
            replace(report, **fields(report))

    @pytest.mark.parametrize("scenario, kind", [(None, "NoneType"), (ANCHOR_DOC, "str")],
                             ids=["none", "str"])
    def test_report_checks_its_scenario(self, scenario, kind):
        report = run_doc(FULL_DOC)
        with pytest.raises(DegenerateInput, match=f"^scenario must be a Scenario, got {kind}$"):
            replace(report, scenario=scenario)
        with pytest.raises(DegenerateInput, match=f"^scenario must be a Scenario, got {kind}$"):
            DetectionReport(scenario, report.trace_distance)

    def test_only_the_scenario_and_d_are_given(self):
        # Every other field is derived: replace of one raises, as does passing one.
        report = run_doc(FULL_DOC)
        assert [f.name for f in fields(DetectionReport) if f.init] == ["scenario",
                                                                      "trace_distance"]
        for f in fields(DetectionReport):
            if not f.init:
                with pytest.raises(ValueError, match=f"field {f.name} is declared with init=False"):
                    replace(report, **{f.name: getattr(report, f.name)})
                with pytest.raises(TypeError, match=f.name):
                    DetectionReport(report.scenario, report.trace_distance,
                                    **{f.name: getattr(report, f.name)})
        assert DetectionReport(report.scenario, report.trace_distance) == report

    @pytest.mark.parametrize("trials, prior_h0", [(100, 0.5), (99, 0.5), (10, 0.3), (10, 0.2),
                                                  (7, 0.0), (0, 0.5)])
    def test_monte_carlo_is_the_scenarios(self, trials, prior_h0):
        # The scenario's seed, its trials split by prior_h0 and the closed form's Born pair
        # at its priors; None without trials.
        scenario = Scenario(phase_rad=1, reflectivity=0.5, noise_excitation=0.1, trials=trials,
                            seed=5, prior_h0=prior_h0, prior_h1=1 - prior_h0)
        report = run_scenario(scenario)
        if not trials:
            assert report.monte_carlo is None
            return
        assert [o.trials for o in report.monte_carlo] == list(split_trials(prior_h0, trials))
        born = born_pair(0.5, 0.1, scenario.prior_h0, scenario.prior_h1)
        assert report.monte_carlo == draw_counts(born, prior_h0, trials, 5)
        assert {o.seed for o in report.monte_carlo} == {5}

    @pytest.mark.parametrize("trials, prior_h0, monte_carlo", [
        (100, 0.5, draw_counts((0.3, 0.7), 0.5, 10, 99)),  # other seed and trials
        (100, 0.5, draw_counts((0.3, 0.7), 0.5, 100, 99)),  # other seed
        (100, 0.5, draw_counts((0.3, 0.7), 0.5, 99, 5)),   # other trials
        (10, 0.3, draw_counts((0.3, 0.7), 0.4, 10, 5)),    # other split: 4 + 6
        (10, 0.3, draw_counts((0.3, 0.7), 0.2, 10, 5)),    # other split: 2 + 8
        (100, 0.5, None),
        (0, 0.5, draw_counts((0.3, 0.7), 0.5, 100, 5)),
        (0, 0.5, NO_TRIALS),
    ], ids=["seed-and-trials", "seed", "trials", "split-up", "split-down", "missing",
            "without-trials", "empty-without-trials"])
    def test_monte_carlo_matches_its_scenario(self, trials, prior_h0, monte_carlo):
        # A pair that is not the scenario's cannot be given; moved onto a scenario of the
        # pair's seed and split, the report derives a pair of that seed and split.
        scenario = Scenario(phase_rad=1, reflectivity=0.5, noise_excitation=0.1, trials=trials,
                            seed=5, prior_h0=prior_h0, prior_h1=1 - prior_h0)
        report = run_scenario(scenario)
        assert report.monte_carlo != monte_carlo
        with pytest.raises(ValueError, match="field monte_carlo is declared with init=False"):
            replace(report, monte_carlo=monte_carlo)
        with pytest.raises(TypeError, match="monte_carlo"):
            DetectionReport(scenario, report.trace_distance, monte_carlo=monte_carlo)
        if monte_carlo is None or monte_carlo == NO_TRIALS:
            return
        h0, h1 = monte_carlo
        total = h0.trials + h1.trials
        moved = replace(report, scenario=replace(scenario, seed=h0.seed, trials=total,
                                                 prior_h0=h0.trials / total,
                                                 prior_h1=h1.trials / total))
        assert moved == run_scenario(moved.scenario)
        assert [(o.trials, o.seed) for o in moved.monte_carlo] == [(o.trials, o.seed)
                                                                   for o in monte_carlo]

    def test_report_stores_its_sequences_as_tuples(self):
        # The derived pair and warnings are tuples; a list cannot be given in their place.
        report = run_doc(FULL_DOC + "link_budget.shield_thickness_m = 0.001\n"
                                    "link_budget.wavelength_m = 0.01\n")
        assert type(report.monte_carlo) is tuple and type(report.warnings) is tuple
        assert report.warnings == report.link_budget.warnings != ()
        for name in ("monte_carlo", "warnings"):
            with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
                replace(report, **{name: list(getattr(report, name))})
        assert emit_report(replace(report)) == emit_report(report)

    @pytest.mark.parametrize("call, match", [
        (lambda: emit_report(None), "NoneType"),
        (lambda: report_to_dict(None), "NoneType"),
        (lambda: roc_csv(None), "NoneType"),
        (lambda: roc_csv([1, 2]), "points must be a curve run_scenario built, got list"),
        (lambda: outcome_error(*NO_TRIALS), "no trials"),
    ], ids=["emit_report", "report_to_dict", "roc_csv", "roc_csv-items", "outcome_error"])
    def test_report_entry_points_raise_typed_errors(self, call, match):
        with pytest.raises(DegenerateInput, match=match):
            call()

    def test_roc_csv_layout_and_precision(self):
        report = run_doc(ANCHOR_DOC + "roc_thresholds = 0, 1, 4\n")
        text = roc_csv(report.roc)
        lines = text.splitlines()
        assert lines[0] == ROC_CSV_HEADER
        assert len(lines) == 4
        assert text.endswith("\n")
        for line, point in zip(lines[1:], report.roc):
            t, p_fa, p_d = (float(tok) for tok in line.split(","))
            assert (t, p_fa, p_d) == (point.threshold, point.p_false_alarm, point.p_detection)


def moved_probe():
    """A report of η = 0.9 and a 1e-16 W link budget, moved by replace onto η = 0.1,
    φ = 2 and 1 W."""
    report = run_doc("phase_rad = 1\nreflectivity = 0.9\nnoise_excitation = 0.1\n"
                     "link_budget.power_w = 1e-16\n")
    return replace(report, scenario=replace(report.scenario, reflectivity=0.1, phase_rad=2.0,
                                            link_budget=LinkBudgetInputs(power_w=1.0)))


class TestMovedReport:
    def test_a_moved_report_emits_its_scenarios_results(self):
        # A fresh run of the new scenario gives F 0.9880, P_e 0.4606, φ 2.0 and 30 dBm.
        doc = json.loads(emit_report(moved_probe(), "structured"))
        assert round(doc["metrics"]["fidelity"], 4) == 0.9880
        assert round(doc["metrics"]["helstrom_error"], 4) == 0.4606
        assert doc["phase_effective_rad"] == 2.0
        assert doc["link_budget"]["power_dbm"] == 30.0

    @pytest.mark.xfail(strict=True, reason="D is given until ROADMAP item 2")
    def test_a_moved_report_emits_its_scenarios_trace_distance(self):
        # The moved report keeps η = 0.9's D, 0.7097; a fresh run gives 0.0789.
        doc = json.loads(emit_report(moved_probe(), "structured"))
        assert round(doc["metrics"]["trace_distance"], 4) == 0.0789


@pytest.fixture
def scenario_file(tmp_path):
    def write(doc: str, name: str = "case.cfg"):
        path = tmp_path / name
        path.write_text(doc, encoding="utf-8")
        return str(path)

    return write


def test_priors_are_checked_by_the_scenario_only(monkeypatch):
    # Scenario checks the pair and run_scenario takes it as checked.
    calls = []
    for module in (channel, cli, closed_form, detector, errors, linkbudget, metrics, qstate,
                   report_module, scenario_module):
        if hasattr(module, "check_priors"):
            def counted(priors, module=module, check=module.check_priors):
                calls.append(module.__name__)
                return check(priors)
            monkeypatch.setattr(module, "check_priors", counted)
    report = run_doc(FULL_DOC + "prior_h0 = 0.3\nprior_h1 = 0.7\n")
    assert report.monte_carlo is not None and report.roc is not None
    assert calls == ["qiradar.scenario"]


class TestCommandLine:
    def test_structured_run_to_stdout(self, scenario_file, capsys):
        assert main(["run", scenario_file(FULL_DOC), "--format", "structured"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert abs(parsed["metrics"]["helstrom_error"] - 0.125) <= 1e-9
        assert parsed["scenario"]["trials"] == 20000

    def test_table_is_default(self, scenario_file, capsys):
        assert main(["run", scenario_file(ANCHOR_DOC)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("scenario\n")
        assert "helstrom_error" in out

    def test_out_file_replaces_stdout(self, scenario_file, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(["run", scenario_file(ANCHOR_DOC), "--format", "structured",
                     "--out", str(out_path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        parsed = json.loads(out_path.read_text(encoding="utf-8"))
        assert abs(parsed["metrics"]["trace_distance"] - 0.75) <= 1e-9

    def test_roc_out_writes_csv(self, scenario_file, tmp_path):
        roc_path = tmp_path / "roc.csv"
        doc = ANCHOR_DOC + "roc_thresholds = 0, 1, 4\n"
        assert main(["run", scenario_file(doc), "--roc-out", str(roc_path)]) == 0
        lines = roc_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ROC_CSV_HEADER
        assert len(lines) == 4

    def test_seed_and_trials_overrides(self, scenario_file, capsys):
        path = scenario_file(ANCHOR_DOC + "trials = 10\nseed = 1\n")
        code = main(["run", path, "--format", "structured",
                     "--seed", "314", "--trials", "4096"])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["scenario"]["seed"] == 314
        assert parsed["scenario"]["trials"] == 4096
        assert parsed["monte_carlo"]["seed"] == 314
        assert parsed["monte_carlo"]["h0"]["trials"] == 2048

    def test_parse_error_exits_2(self, scenario_file, capsys):
        assert main(["run", scenario_file("phase_rad = what\n")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_validation_error_exits_2(self, scenario_file, capsys):
        doc = "phase_rad = 1\nreflectivity = 2\nnoise_excitation = 0\n"
        assert main(["run", scenario_file(doc)]) == 2
        err = capsys.readouterr().err
        assert "reflectivity must lie in" in err and err.count("\n") == 1

    def test_byte_order_mark_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "bom.cfg"
        path.write_text(ANCHOR_DOC, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["run", str(path), "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["scenario"]["phase_rad"] == math.pi

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"phase_rad = 1\n# caf\xe9\n")
        assert main(["run", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_overrides_are_validated_by_the_scenario(self, scenario_file, capsys, monkeypatch):
        def never(scenario):  # fail fast instead of running 1e13 trials
            raise AssertionError("an invalid override reached run_scenario")

        monkeypatch.setattr("qiradar.cli.run_scenario", never)
        for flag, value in (("--trials", "-5"), ("--trials", "10000000000000"),
                            ("--seed", str(2**64))):
            with pytest.raises(SystemExit) as exc:
                main(["run", scenario_file(ANCHOR_DOC), flag, value])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["absent/report.txt", "."],
                             ids=["no-directory", "a-directory"])
    def test_unwritable_out_exits_2(self, scenario_file, tmp_path, capsys, name):
        target = tmp_path / name
        assert main(["run", scenario_file(ANCHOR_DOC), "--out", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write output file: ")
        assert str(target) in err and err.count("\n") == 1

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_unwritable_stdout_exits_2(self, scenario_file, capsys, monkeypatch, failing):
        class FullStdout:  # as /dev/full: a write or the flush after it fails
            def write(self, text):
                if failing == "write":
                    raise OSError(28, "No space left on device")
                return len(text)

            def flush(self):
                if failing == "flush":
                    raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(["run", scenario_file(ANCHOR_DOC)]) == 2
        err = capsys.readouterr().err
        assert err == "error: cannot write output file: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exits_2_in_a_process(self, scenario_file):
        # A buffered stdout keeps the bytes a failed flush left, and the flush at
        # interpreter exit must not fail on them again (exit status 120).
        with open("/dev/full", "w") as full:
            done = python_m_qiradar(["run", scenario_file(ANCHOR_DOC)], stdout=full,
                                    stderr=subprocess.PIPE, text=True)
        assert done.returncode == 2
        assert done.stderr == "error: cannot write output file: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
    def test_closed_stdout_exits_2_in_a_process(self, scenario_file):
        # Started with descriptor 1 closed, Python sets sys.stdout to None.
        done = python_m_qiradar(["run", scenario_file(ANCHOR_DOC)], stderr=subprocess.PIPE,
                                text=True, preexec_fn=lambda: os.close(1))
        assert done.returncode == 2
        assert done.stderr == "error: cannot write output file: stdout is closed\n"

    @pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
    @pytest.mark.parametrize("doc, flags", [
        ("phase_rad = 1\nreflectivity = 2\nnoise_excitation = 0\n", []),
        (ANCHOR_DOC, ["--trials", "-5"]),
        (ANCHOR_DOC, ["--seed", "x"]),
    ], ids=["invalid-document", "invalid-override", "unparsable-flag"])
    def test_closed_stderr_exits_2_in_a_process(self, scenario_file, doc, flags):
        # Started with descriptor 2 closed, Python sets sys.stderr to None, and both
        # print(file=None) and argparse's usage line would go to stdout.
        done = python_m_qiradar(["run", scenario_file(doc), *flags], stdout=subprocess.PIPE,
                                text=True, preexec_fn=lambda: os.close(2))
        assert (done.returncode, done.stdout) == (2, "")

    def test_max_trials_run_takes_its_start_up_only(self):
        # MAX_TRIALS is one binomial draw per hypothesis, well under a millisecond, so the
        # process takes its start-up; a per-trial stream would take minutes.
        argv = ["run", str(SCENARIOS / "example.cfg"), "--trials", str(MAX_TRIALS),
                "--format", "structured"]
        done = python_m_qiradar(argv, capture_output=True, text=True, timeout=5)
        assert done.returncode == 0 and done.stderr == ""
        mc = json.loads(done.stdout)["monte_carlo"]
        assert mc["h0"]["trials"] + mc["h1"]["trials"] == MAX_TRIALS == 10**9

    def test_unwritable_roc_out_exits_2_after_the_report(self, scenario_file, tmp_path, capsys):
        target = tmp_path / "absent" / "roc.csv"
        doc = ANCHOR_DOC + "roc_thresholds = 0, 1\n"
        assert main(["run", scenario_file(doc), "--roc-out", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out.startswith("scenario\n") and err.startswith("error: cannot write output file: ")
        assert str(target) in err and err.count("\n") == 1

    def test_roc_out_without_thresholds_exits_2(self, scenario_file, tmp_path, capsys):
        code = main(["run", scenario_file(ANCHOR_DOC),
                     "--roc-out", str(tmp_path / "roc.csv")])
        assert code == 2
        assert "roc_thresholds" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, scenario_file, capsys, monkeypatch):
        def explode(scenario):
            raise NumericalDomain("synthetic numerical failure")

        monkeypatch.setattr("qiradar.cli.run_scenario", explode)
        assert main(["run", scenario_file(ANCHOR_DOC)]) == 3
        assert "synthetic numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("line, code, message", [
        ("link_budget.power_w = 0", 2, "power_w must be positive"),
        ("link_budget.frequency_hz = 5e-324", 3, "photon energy at frequency 5e-324 underflows"),
        ("link_budget.power_w = 1e300\nlink_budget.noise_power_w = 1e-300", 3,
         "signal to noise power ratio overflows"),
    ], ids=["zero-power", "underflowing-photon-energy", "overflowing-snr"])
    def test_link_budget_failures_keep_their_exit_codes(self, scenario_file, capsys, line, code,
                                                        message):
        assert main(["run", scenario_file(f"{ANCHOR_DOC}{line}\n")]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_bad_flag_values_exit_2(self, scenario_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", scenario_file(ANCHOR_DOC), "--seed", "-1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_structured_report_is_strict_json(self, scenario_file, capsys):
        def no_constants(token):
            raise AssertionError(f"{token} is not JSON")

        doc = ANCHOR_DOC + "".join(f"link_budget.{key} = {value}\n" for key, value in (
            ("power_w", 1e280), ("noise_power_w", 1e-27), ("frequency_hz", 1e10),
            ("temperature_k", 290), ("noise_ext", 1e300), ("noise_isolated", 1e-5),
            ("shield_thickness_m", 1e300), ("wavelength_m", 1e-5)))
        assert main(["run", scenario_file(doc), "--format", "structured"]) == 0
        parsed = json.loads(capsys.readouterr().out, parse_constant=no_constants)
        assert parsed["link_budget"]["snr"] == 1e280 / 1e-27
        overflowing = (ANCHOR_DOC + "link_budget.power_w = 1e300\n"
                       "link_budget.noise_power_w = 1e-300\n")
        assert main(["run", scenario_file(overflowing), "--format", "structured"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "overflows" in captured.err
