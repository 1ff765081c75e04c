"""Detection reports and their serialized forms.

A report is a function of its scenario and its trace distance D: it derives every other
result from the scenario itself, so only D can disagree with the scenario it echoes.
The structured format is one line, ``json.dumps(report_to_dict(r),
sort_keys=True)`` and a newline: sorted field names and full
shortest-round-trip float precision, so two runs of the same scenario and seed
are byte-identical, every numeric survives a parse round trip exactly, and reports
concatenate into JSON Lines. A report's ROC, only ever the curve the report built, formats
each number once: the structured line's roc_thresholds echo and points and roc_csv share
that text. The table format renders the document for reading, fields in order, 6 digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import repeat, zip_longest
from typing import NamedTuple

from . import closed_form
from .errors import DegenerateInput, _clamp, _real, _reduce_phase, clamp_unit
from .linkbudget import SATURATION_NBAR, LinkBudgetResult, evaluate_link_budget
from .montecarlo import TrialOutcome, draw_counts, outcome_error
from .scenario import Scenario

ROC_CSV_HEADER = "threshold,p_false_alarm,p_detection"
CURVE_WINDOW = 2.0**-50  # the curve's and F's clamp: 4 ulp; their kernels leave [0, 1] by ≤ 1 ulp

# The structured line's encoder, built once; json.dumps with these options builds one per call.
_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode

_set = object.__setattr__  # fills in the derived fields of a frozen DetectionReport


class RocPoint(NamedTuple):
    """One operating point of the threshold sweep."""

    threshold: float
    p_false_alarm: float
    p_detection: float


@dataclass(frozen=True)
class DetectionReport:
    """Everything computed for one scenario: its trace distance, given, and the rest derived.

    ``DetectionReport(scenario, trace_distance)`` takes D through the real-number gate
    (run_scenario takes it from the two states) and derives every other field from the
    scenario: the effective phase (phase_rad − env_phase_rad in [0, 2π)), F and P_e in
    closed form, the (H0, H1) outcome pair draw_counts makes (None without trials), the
    ROC curve at scenario.roc_thresholds (None without them), the link budget and the
    warnings. The derived fields are not arguments: ``dataclasses.replace(report,
    scenario=s)`` derives them again for s, and replace of one of them raises ValueError.
    """

    scenario: Scenario
    trace_distance: float
    phase_effective_rad: float = field(init=False)
    fidelity: float = field(init=False)
    helstrom_error: float = field(init=False)
    monte_carlo: tuple[TrialOutcome, TrialOutcome] | None = field(init=False)
    roc: _Curve | None = field(init=False)
    link_budget: LinkBudgetResult | None = field(init=False)
    warnings: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        s = self.scenario
        if not isinstance(s, Scenario):
            raise DegenerateInput(f"scenario must be a Scenario, got {type(s).__name__}")
        _set(self, "trace_distance", _real("trace_distance", self.trace_distance))
        eta, p, priors = s.reflectivity, s.noise_excitation, (s.prior_h0, s.prior_h1)
        _set(self, "phase_effective_rad", _reduce_phase(s.phase_rad - s.env_phase_rad))
        _set(self, "fidelity", _clamp(closed_form.fidelity(eta, p), "fidelity", CURVE_WINDOW))
        _set(self, "helstrom_error",
             clamp_unit(closed_form.helstrom_error(eta, p, priors), "Helstrom error"))
        _set(self, "monte_carlo", draw_counts(closed_form.born_pair(eta, p, *priors), s.prior_h0,
                                              s.trials, s.seed) if s.trials else None)
        thresholds = s.roc_thresholds
        _set(self, "roc", None if thresholds is None else _Curve.of_columns(
            thresholds, *closed_form.born_pairs(eta, p, thresholds)))
        link = None if s.link_budget is None else evaluate_link_budget(s.link_budget)
        _set(self, "link_budget", link)
        warnings = () if link is None else link.warnings
        if (nbar := s.thermal_occupancy) is not None and nbar > SATURATION_NBAR:
            warnings += (f"noise_excitation {p:.6g} was derived from thermal occupancy "
                         f"{nbar:.6g}; the two-level noise model saturates for occupancies "
                         f"far above 1",)
        _set(self, "warnings", warnings)


class _Curve(tuple):
    """The pipeline's ROC points, made only by of_columns, with each column's repr text
    built once: the structured report's echo and points and the CSV join the same strings."""

    @classmethod
    def of_columns(cls, thresholds, p_fa, p_d) -> _Curve:
        """Checked thresholds and born_pairs' prefix columns, clamped within CURVE_WINDOW."""
        thresholds, checked = tuple(thresholds), []
        for values, what in zip((p_fa, p_d), ("false-alarm probability", "detection probability")):
            if not (0.0 <= min(values, default=0.0) and max(values, default=0.0) <= 1.0
                    and not math.isnan(sum(values))):
                values = [_clamp(v, what, CURVE_WINDOW) for v in values]
            checked.append(values)
        points = zip_longest(thresholds, *checked, fillvalue=0.0)  # (t, 0.0, 0.0) past the prefix
        curve = cls(map(tuple.__new__, repeat(RocPoint), points))  # _make
        curve._source = (thresholds, *checked)  # the threshold column and the computed prefix
        return curve

    @cached_property
    def columns(self) -> tuple[list[str], ...]:
        return tuple(list(map(repr, column)) + ["0.0"] * (len(self) - len(column))
                     for column in self._source)  # "0.0" per point past the prefix


def _pipeline_curve(points, name: str) -> _Curve:
    """points if of_columns built them; any other value raises DegenerateInput."""
    if type(points) is _Curve and hasattr(points, "_source"):
        return points
    raise DegenerateInput(f"{name} must be a curve run_scenario built, got {type(points).__name__}")


@lru_cache(maxsize=None)
def _field_names(cls: type, omit: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in omit)


def _fields(record, *omit: str) -> dict | None:
    """A dataclass's fields by name in declaration order, minus those in ``omit``."""
    if record is None:
        return None
    return {name: getattr(record, name) for name in _field_names(type(record), omit)}


def report_to_dict(report: DetectionReport) -> dict:
    """Plain-types view of a report: the payload of the structured format, and
    in this key order the rows of the table format."""
    doc = _document(report)
    if report.roc is not None:
        doc["scenario"]["roc_thresholds"] = list(report.scenario.roc_thresholds)
        doc["roc"] = [point._asdict() for point in report.roc]
    return doc


def _document(report: DetectionReport) -> dict:
    """report_to_dict's document with "roc" and the scenario's "roc_thresholds" left None."""
    if not isinstance(report, DetectionReport):
        raise DegenerateInput(f"report must be a DetectionReport, got {type(report).__name__}")
    scenario, mc = report.scenario, report.monte_carlo
    if mc is not None:
        h0, h1 = mc
        mc = {"empirical_error": outcome_error(h0, h1), "h0": _fields(h0, "seed"),
              "h1": _fields(h1, "seed"), "seed": h0.seed}
    return {
        "scenario": {**_fields(scenario), "roc_thresholds": None,
                     "link_budget": _fields(scenario.link_budget)},
        "phase_effective_rad": report.phase_effective_rad,
        "metrics": {
            "trace_distance": report.trace_distance,
            "fidelity": report.fidelity,
            "helstrom_error": report.helstrom_error,
        },
        "monte_carlo": mc,
        "roc": None,
        "link_budget": _fields(report.link_budget, "warnings"),  # warnings are top-level
        "warnings": list(report.warnings),
        # mc_stream 3: one stdlib binomial draw per hypothesis; structured 2: one line;
        # numerics 3: F, P_e, the ROC and the Monte Carlo Born probabilities in closed form
        "versions": {"mc_stream": 3, "numerics": 3, "structured": 2},
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, list):
        return ", ".join(map(_fmt, value))
    return str(value)


def _rows(values: dict, width: int = 24) -> list[str]:
    """One "  key<pad>value" line per value that is neither None nor a dict."""
    return ["  " + key.ljust(width) + _fmt(value) for key, value in values.items()
            if value is not None and not isinstance(value, dict)]


def _table_lines(doc: dict) -> list[str]:
    """The document's fields in document order: a titled section per dict and a
    row per top-level number; the ROC keeps its columns."""
    lines = []
    for key, value in doc.items():
        if value is None or value == []:
            continue
        if key == "roc":
            lines += ["roc", f"  {'threshold':>12} {'p_false_alarm':>14} {'p_detection':>12}"]
            lines += [f"  {_fmt(p['threshold']):>12} {_fmt(p['p_false_alarm']):>14}"
                      f" {_fmt(p['p_detection']):>12}" for p in value]
        elif key == "warnings":
            lines += ["warnings"] + [f"  - {warning}" for warning in value]
        elif isinstance(value, dict):
            lines.append(key.replace("_", " "))
            lines += _rows(value, 28 if key == "link_budget" else 24)  # its keys run to 26
            if key == "monte_carlo":
                lines += _rows({f"{h} decisions": "h0={decide_h0_count} h1={decide_h1_count}"
                                " of {trials}".format(**value[h]) for h in ("h0", "h1")})
        else:
            lines += _rows({key: value})  # phase_effective_rad, under the scenario rows
    return lines


def emit_report(report: DetectionReport, format: str = "table") -> str:
    """Render a report as 'structured' (JSON) or 'table' text."""
    if format == "structured":
        text = _encode(_document(report))
        if report.roc is not None:
            # json.dumps of the threshold echo and the point dicts, from the curve's cached text.
            # Each key text occurs once: a JSON string has no unescaped quote, and only the
            # top level has "roc" and only the scenario "roc_thresholds". rpartition finds them
            # from the end, past link_budget, metrics and monte_carlo, which sort before them.
            points = ", ".join([f'{{"p_detection": {d}, "p_false_alarm": {fa}, "threshold": {t}}}'
                                for t, fa, d in zip(*report.roc.columns)])
            echo = ", ".join(report.roc.columns[0])
            head, _, tail = text.rpartition('"roc_thresholds": null')
            head, _, middle = head.rpartition('"roc": null')
            text = f'{head}"roc": [{points}]{middle}"roc_thresholds": [{echo}]{tail}'
        return text + "\n"
    if format == "table":
        return "\n".join(_table_lines(report_to_dict(report))) + "\n"
    raise DegenerateInput(f"unknown report format {format!r}")


def roc_csv(points) -> str:
    """A report's ROC as comma-separated rows under the standard header, full precision."""
    rows = map(",".join, zip(*_pipeline_curve(points, "points").columns))
    return "\n".join((ROC_CSV_HEADER, *rows)) + "\n"
