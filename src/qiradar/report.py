"""Detection reports, the records they hold and their serialized forms.

The structured format is one line, ``json.dumps(report_to_dict(r),
sort_keys=True)`` and a newline: sorted field names and full
shortest-round-trip float precision, so two runs of the same scenario and seed
are byte-identical, every numeric survives a parse round trip exactly (NaN
and ±inf, which JSON cannot carry, raise DegenerateInput), and reports
concatenate into JSON Lines. A report's ROC, only ever the curve run_scenario built, formats
each number once: the structured line's roc_thresholds echo and points and roc_csv share
that text. The table format renders the document for reading, fields in order, 6 digits.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import repeat, zip_longest
from typing import NamedTuple

from .errors import MAX_TRIALS, DegenerateInput, _check_integer, _check_seed, _clamp, _real
from .linkbudget import LinkBudgetResult
from .scenario import Scenario

ROC_CSV_HEADER = "threshold,p_false_alarm,p_detection"
CURVE_WINDOW = 2.0**-50  # the pipeline curve's clamp: 4 ulp; its kernel leaves [0, 1] by ≤ 1 ulp

# The structured line's encoder, built once; json.dumps with these options builds one per call.
_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode

HYPOTHESIS_H0 = "H0"
HYPOTHESIS_H1 = "H1"


class RocPoint(NamedTuple):
    """One operating point of the threshold sweep."""

    threshold: float
    p_false_alarm: float
    p_detection: float


@dataclass(frozen=True)
class TrialOutcome:
    """Decision counts from a batch of measurement trials under one true state."""

    decide_h1_count: int
    decide_h0_count: int
    trials: int
    true_hypothesis: str
    seed: int

    def __post_init__(self):
        trials = _check_integer("trials", self.trials, 0, MAX_TRIALS)
        h1 = _check_integer("decide_h1_count", self.decide_h1_count, 0, trials)
        h0 = _check_integer("decide_h0_count", self.decide_h0_count, 0, trials)
        if h1 + h0 != trials:
            raise DegenerateInput(f"counts {h1} + {h0} do not sum to {trials} trials")
        if not (isinstance(h := self.true_hypothesis, str) and h in (HYPOTHESIS_H0, HYPOTHESIS_H1)):
            raise DegenerateInput(f"true_hypothesis must be H0 or H1, got {h!r}")
        for name, value in (("decide_h1_count", h1), ("decide_h0_count", h0),
                            ("trials", trials), ("seed", _check_seed(self.seed))):
            object.__setattr__(self, name, value)


def split_trials(prior_h0: float, trials: int) -> tuple[int, int]:
    """The (H0, H1) trial counts of a run: floor(π₀·trials) under H0, the rest under H1."""
    n_h0 = math.floor(prior_h0 * trials)
    return n_h0, trials - n_h0


def outcome_error(outcome_h0: TrialOutcome, outcome_h1: TrialOutcome) -> float:
    """Fraction of wrong calls in an (H0, H1) outcome pair: false alarms under
    H0 plus misses under H1, over all trials, of which there must be some."""
    trials = outcome_h0.trials + outcome_h1.trials
    if not trials:
        raise DegenerateInput("an outcome pair with no trials has no error rate")
    return (outcome_h0.decide_h1_count + outcome_h1.decide_h0_count) / trials


@dataclass(frozen=True)
class DetectionReport:
    """Everything computed for one scenario.

    The effective phase and the three metrics pass the real-number gate. monte_carlo
    is the scenario's (H0, H1) outcome pair as draw_counts makes it: None when
    scenario.trials is 0, else of scenario.seed with split_trials' counts. The report
    derives its error rate and seed from it. roc is the curve run_scenario built at
    scenario.roc_thresholds, sign and all, or None without them; no other curve is
    accepted, so dataclasses.replace can move a report but not rebuild its ROC.
    Sequences are stored as tuples; a wrong type raises DegenerateInput.
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
        for name, kind in (("monte_carlo", TrialOutcome), ("warnings", str)):
            value = getattr(self, name)
            if value is None and name != "warnings":
                continue
            if not (isinstance(value, (list, tuple)) and all(map(kind.__instancecheck__, value))):
                raise DegenerateInput(f"{name} must be a list or tuple of {kind.__name__}")
            object.__setattr__(self, name, tuple(value))
        # The curve holds its scenario's threshold tuple; moved by replace, it is compared by bits.
        column = None if self.roc is None else _pipeline_curve(self.roc, "roc")._source[0]
        if column is not (want := self.scenario.roc_thresholds) and _bits(column) != _bits(want):
            raise DegenerateInput("roc must have one point at each of scenario.roc_thresholds, "
                                  "in order, and be None when there are none")
        mc = self.monte_carlo
        if mc is not None and ([o.true_hypothesis for o in mc] != [HYPOTHESIS_H0, HYPOTHESIS_H1]
                               or mc[0].seed != mc[1].seed):
            raise DegenerateInput("monte_carlo must be the (H0, H1) outcome pair of one seed")
        s = self.scenario
        want = (s.seed, split_trials(s.prior_h0, s.trials)) if s.trials else None
        if (mc and (mc[0].seed, (mc[0].trials, mc[1].trials))) != want:
            raise DegenerateInput("monte_carlo must be the scenario's: None without trials, "
                                  "else its seed and its trials split by prior_h0")


def _bits(values) -> bytes | None:  # IEEE 754 bytes tell -0.0 from 0.0; None stays None
    return None if values is None else array("d", values).tobytes()


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
        try:
            text = _encode(_document(report))
        except ValueError as exc:  # NaN or ±inf, which only a hand-built record can hold
            raise DegenerateInput(f"report is not valid JSON: {exc}") from None
        if report.roc is not None:
            # json.dumps of the threshold echo and the point dicts, from the curve's cached text.
            # Keys are sorted and all after the top-level "roc" is checked (a JSON string has no
            # unescaped quote), so the last '"roc_thresholds": null' is the scenario's and the
            # last '"roc": null' before it is "roc"; a hand-built LinkBudgetResult comes first.
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
