"""Detection reports and their serialized forms.

The structured format is a JSON document with stable, sorted field names and
full shortest-round-trip float precision, so two runs of the same scenario
and seed are byte-identical and every numeric survives a parse round trip
exactly. The table format renders the same document for reading: its fields
in document order, 6 significant digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import repeat

from .detector import RocPoint, TrialOutcome
from .errors import DegenerateInput
from .linkbudget import LinkBudgetResult
from .scenario import Scenario

ROC_CSV_HEADER = "threshold,p_false_alarm,p_detection"
_CONTAINERS = (dict, list, tuple)  # what json.dumps indents


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical side of one scenario run."""

    empirical_error: float
    h0: TrialOutcome
    h1: TrialOutcome
    seed: int


@dataclass(frozen=True)
class DetectionReport:
    """Everything computed for one scenario."""

    scenario: Scenario
    phase_effective_rad: float
    trace_distance: float
    fidelity: float
    helstrom_error: float
    monte_carlo: MonteCarloResult | None = None
    roc: tuple[RocPoint, ...] | None = None
    link_budget: LinkBudgetResult | None = None
    warnings: tuple[str, ...] = ()


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
    scenario, mc = report.scenario, report.monte_carlo
    if mc is not None:
        mc = {**_fields(mc), "h0": _fields(mc.h0, "seed"), "h1": _fields(mc.h1, "seed")}
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


def _table_lines(report: DetectionReport) -> list[str]:
    """The document's fields in document order: a titled section per dict and a
    row per top-level number; the ROC keeps its columns."""
    lines = []
    for key, value in report_to_dict(report).items():
        if value is None or value == []:
            continue
        if key == "roc":
            lines += ["roc", f"  {'threshold':>12} {'p_false_alarm':>14} {'p_detection':>12}"]
            lines += [f"  {_fmt(p.threshold):>12} {_fmt(p.p_false_alarm):>14}"
                      f" {_fmt(p.p_detection):>12}" for p in report.roc]
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


@lru_cache(maxsize=None)
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """One item per line at ``depth``; with indent=None json runs its C encoder."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "))


def _is_flat(values) -> bool:
    return not any(map(isinstance, values, repeat(_CONTAINERS)))


def _to_json(o, depth: int = 0) -> str:
    """json.dumps(o, indent=2, sort_keys=True) for str-keyed o, walking in Python
    only the containers that hold containers. An encoded string holds no raw
    newline, so a list of flat dicts (the ROC) is re-indented at "},<pad2>{"."""
    if not isinstance(o, _CONTAINERS) or not o:
        return _flat_encoder(depth).encode(o)  # scalars, {} and []
    pad, pad2 = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    if _is_flat(o.values() if isinstance(o, dict) else o):
        body = _flat_encoder(depth + 1).encode(o)[1:-1]
    elif isinstance(o, dict):
        body = ("," + pad).join(f"{_flat_encoder(0).encode(k)}: {_to_json(v, depth + 1)}"
                                for k, v in sorted(o.items()))
    elif all(isinstance(v, dict) and v and _is_flat(v.values()) for v in o):
        body = "{" + pad2 + _flat_encoder(depth + 2).encode(o)[2:-2].replace(
            "}," + pad2 + "{", pad + "}," + pad + "{" + pad2) + pad + "}"
    else:
        body = ("," + pad).join(_to_json(v, depth + 1) for v in o)
    opener, closer = "{}" if isinstance(o, dict) else "[]"
    return opener + pad + body + pad[:-2] + closer


def emit_report(report: DetectionReport, format: str = "table") -> str:
    """Render a report as 'structured' (JSON) or 'table' text."""
    if format == "structured":
        return _to_json(report_to_dict(report)) + "\n"
    if format == "table":
        return "\n".join(_table_lines(report)) + "\n"
    raise DegenerateInput(f"unknown report format {format!r}")


def roc_csv(points) -> str:
    """Comma-separated ROC rows under the standard header, full precision."""
    lines = [ROC_CSV_HEADER]
    for point in points:
        lines.append(f"{point.threshold!r},{point.p_false_alarm!r},{point.p_detection!r}")
    return "\n".join(lines) + "\n"
