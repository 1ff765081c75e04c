"""Detection reports and their serialized forms.

The structured format is a JSON document with stable, sorted field names and
full shortest-round-trip float precision, so two runs of the same scenario
and seed are byte-identical and every numeric survives a parse round trip
exactly. The table format is for reading, 6 significant digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import repeat

from .detector import RocPoint, TrialOutcome
from .errors import DegenerateInput
from .linkbudget import LinkBudgetInputs, LinkBudgetResult
from .scenario import Scenario

ROC_CSV_HEADER = "threshold,p_false_alarm,p_detection"
_SCENARIO_FIELDS = tuple(f.name for f in fields(Scenario))  # the echo keeps field order
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


def _scenario_dict(s: Scenario) -> dict:
    out = {name: getattr(s, name) for name in _SCENARIO_FIELDS}
    if s.roc_thresholds is not None:
        out["roc_thresholds"] = list(s.roc_thresholds)
    out["link_budget"] = _link_inputs_dict(s.link_budget)
    return out


def _link_inputs_dict(inputs: LinkBudgetInputs | None) -> dict | None:
    if inputs is None:
        return None
    return {f.name: getattr(inputs, f.name) for f in fields(LinkBudgetInputs)}


def _outcome_dict(outcome: TrialOutcome) -> dict:
    return {
        "decide_h0_count": outcome.decide_h0_count,
        "decide_h1_count": outcome.decide_h1_count,
        "trials": outcome.trials,
        "true_hypothesis": outcome.true_hypothesis,
    }


def _link_result_dict(result: LinkBudgetResult | None) -> dict | None:
    if result is None:
        return None
    out = {f.name: getattr(result, f.name) for f in fields(LinkBudgetResult)}
    del out["warnings"]  # reported at the top level of the document
    return out


def report_to_dict(report: DetectionReport) -> dict:
    """Plain-types view of a report, the payload of the structured format."""
    monte_carlo = None
    if report.monte_carlo is not None:
        monte_carlo = {
            "empirical_error": report.monte_carlo.empirical_error,
            "seed": report.monte_carlo.seed,
            "h0": _outcome_dict(report.monte_carlo.h0),
            "h1": _outcome_dict(report.monte_carlo.h1),
        }
    roc = None
    if report.roc is not None:
        roc = [
            {
                "threshold": point.threshold,
                "p_false_alarm": point.p_false_alarm,
                "p_detection": point.p_detection,
            }
            for point in report.roc
        ]
    return {
        "scenario": _scenario_dict(report.scenario),
        "phase_effective_rad": report.phase_effective_rad,
        "metrics": {
            "trace_distance": report.trace_distance,
            "fidelity": report.fidelity,
            "helstrom_error": report.helstrom_error,
        },
        "monte_carlo": monte_carlo,
        "roc": roc,
        "link_budget": _link_result_dict(report.link_budget),
        "warnings": list(report.warnings),
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _table_lines(report: DetectionReport) -> list[str]:
    lines = ["scenario"]
    for key, value in _scenario_dict(report.scenario).items():
        if key == "link_budget" or value is None:
            continue
        if key == "roc_thresholds":
            value = ", ".join(_fmt(t) for t in value)
        lines.append(f"  {key:<24}{_fmt(value)}")
    lines.append(f"  {'phase_effective_rad':<24}{_fmt(report.phase_effective_rad)}")
    lines.append("metrics")
    lines.append(f"  {'trace_distance':<24}{_fmt(report.trace_distance)}")
    lines.append(f"  {'fidelity':<24}{_fmt(report.fidelity)}")
    lines.append(f"  {'helstrom_error':<24}{_fmt(report.helstrom_error)}")
    if report.monte_carlo is not None:
        mc = report.monte_carlo
        lines.append("monte carlo")
        lines.append(f"  {'empirical_error':<24}{_fmt(mc.empirical_error)}")
        lines.append(f"  {'seed':<24}{mc.seed}")
        lines.append(
            f"  {'h0 decisions':<24}h0={mc.h0.decide_h0_count} h1={mc.h0.decide_h1_count}"
            f" of {mc.h0.trials}"
        )
        lines.append(
            f"  {'h1 decisions':<24}h0={mc.h1.decide_h0_count} h1={mc.h1.decide_h1_count}"
            f" of {mc.h1.trials}"
        )
    if report.roc is not None:
        lines.append("roc")
        lines.append(f"  {'threshold':>12} {'p_false_alarm':>14} {'p_detection':>12}")
        for point in report.roc:
            lines.append(
                f"  {_fmt(point.threshold):>12} {_fmt(point.p_false_alarm):>14}"
                f" {_fmt(point.p_detection):>12}"
            )
    link = _link_result_dict(report.link_budget)
    if link is not None:
        lines.append("link budget")
        for key, value in link.items():
            if value is None:
                continue
            lines.append(f"  {key:<28}{_fmt(value)}")
    if report.warnings:
        lines.append("warnings")
        for warning in report.warnings:
            lines.append(f"  - {warning}")
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
