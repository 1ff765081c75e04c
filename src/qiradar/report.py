"""Detection reports and their serialized forms.

The structured format is one line, ``json.dumps(report_to_dict(r),
sort_keys=True)`` and a newline: sorted field names and full
shortest-round-trip float precision, so two runs of the same scenario and seed
are byte-identical, every numeric survives a parse round trip exactly (NaN
and ±inf, which JSON cannot carry, raise DegenerateInput), and reports
concatenate into JSON Lines. The table format renders the same
document for reading: its fields in document order, 6 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import lru_cache

from .detector import HYPOTHESIS_H0, HYPOTHESIS_H1, RocPoint, TrialOutcome, outcome_error
from .errors import DegenerateInput, _real
from .linkbudget import LinkBudgetResult
from .scenario import Scenario

ROC_CSV_HEADER = "threshold,p_false_alarm,p_detection"


@dataclass(frozen=True)
class DetectionReport:
    """Everything computed for one scenario.

    The effective phase and the three metrics pass the real-number gate. monte_carlo
    is detection_counts' (H0, H1) outcome pair; the report derives its error rate and
    seed from it. Each ROC point must hold float numbers: a threshold in [0, inf) and
    two probabilities. Sequences are stored as tuples; a wrong type raises DegenerateInput.
    """

    scenario: Scenario
    phase_effective_rad: float
    trace_distance: float
    fidelity: float
    helstrom_error: float
    monte_carlo: tuple[TrialOutcome, TrialOutcome] | None = None
    roc: tuple[RocPoint, ...] | None = None
    link_budget: LinkBudgetResult | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("phase_effective_rad", "trace_distance", "fidelity", "helstrom_error"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        for name, kind in (("scenario", Scenario), ("link_budget", (LinkBudgetResult, type(None)))):
            if not isinstance(getattr(self, name), kind):
                raise DegenerateInput(f"{name} cannot be {getattr(self, name)!r}")
        for name, kind in (("monte_carlo", TrialOutcome), ("roc", RocPoint), ("warnings", str)):
            value = getattr(self, name)
            if value is None and name != "warnings":
                continue
            valid = _valid_point if kind is RocPoint else kind.__instancecheck__
            if not (isinstance(value, (list, tuple)) and all(map(valid, value))):
                raise DegenerateInput(f"{name} must be a list or tuple of {kind.__name__}" + (
                    ": float thresholds >= 0 and probabilities" if kind is RocPoint else ""))
            object.__setattr__(self, name, tuple(value))
        mc = self.monte_carlo
        if mc is not None and ([o.true_hypothesis for o in mc] != [HYPOTHESIS_H0, HYPOTHESIS_H1]
                               or mc[0].seed != mc[1].seed):
            raise DegenerateInput("monte_carlo must be the (H0, H1) outcome pair of one seed")


def _valid_point(p) -> bool:
    """A RocPoint of a threshold in [0, inf) and two probabilities, each exactly a float
    as the sweep stores it (np.float64, a float subclass, has another repr)."""
    return (isinstance(p, RocPoint) and type(t := p.threshold) is float
            and type(fa := p.p_false_alarm) is float and type(d := p.p_detection) is float
            and 0.0 <= t < math.inf and 0.0 <= fa <= 1.0 and 0.0 <= d <= 1.0)


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
    if not isinstance(report, DetectionReport):
        raise DegenerateInput(f"report must be a DetectionReport, got {type(report).__name__}")
    scenario, mc = report.scenario, report.monte_carlo
    if mc is not None:
        h0, h1 = mc
        mc = {"empirical_error": outcome_error(h0, h1), "h0": _fields(h0, "seed"),
              "h1": _fields(h1, "seed"), "seed": h0.seed}
    return {
        "scenario": {**_fields(scenario),
                     "roc_thresholds": scenario.roc_thresholds and list(scenario.roc_thresholds),
                     "link_budget": _fields(scenario.link_budget)},
        "phase_effective_rad": report.phase_effective_rad,
        "metrics": {
            "trace_distance": report.trace_distance,
            "fidelity": report.fidelity,
            "helstrom_error": report.helstrom_error,
        },
        "monte_carlo": mc,
        # RocPoint's fields spelled out: a _fields call per point would dominate a long ROC
        "roc": None if report.roc is None else [
            {
                "threshold": point.threshold,
                "p_false_alarm": point.p_false_alarm,
                "p_detection": point.p_detection,
            }
            for point in report.roc
        ],
        "link_budget": _fields(report.link_budget, "warnings"),  # warnings are top-level
        "warnings": list(report.warnings),
        # mc_stream 2: one binomial draw per hypothesis; structured 2: one line;
        # numerics 2: ROC and Monte Carlo Born probabilities from the closed form
        "versions": {"mc_stream": 2, "numerics": 2, "structured": 2},
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
        doc = report_to_dict(report)
        try:
            return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:  # NaN or ±inf, which only a hand-built record can hold
            raise DegenerateInput(f"report is not valid JSON: {exc}") from None
    if format == "table":
        return "\n".join(_table_lines(report_to_dict(report))) + "\n"
    raise DegenerateInput(f"unknown report format {format!r}")


def roc_csv(points) -> str:
    """Comma-separated ROC rows under the standard header, full precision."""
    lines = [ROC_CSV_HEADER]
    point = points  # names the culprit if points itself is not iterable
    try:
        for point in points:
            if not _valid_point(point):
                raise TypeError
            lines.append(f"{point.threshold!r},{point.p_false_alarm!r},{point.p_detection!r}")
    except TypeError:
        raise DegenerateInput(f"points must be valid RocPoints, got {type(point).__name__} "
                              f"{point!r}") from None
    return "\n".join(lines) + "\n"
