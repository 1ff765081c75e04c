"""Correctness gate: checks every output a workload produced.

Runs outside the timed window and uses only the public ``qiradar`` API. It
holds the results to contracts of the physics, not to golden numbers:

* analytic_sweep: Fuchs-van de Graaff sandwich, P_e = (1 - D)/2 at equal
  priors, P_e <= min(prior_h0, prior_h1), the emitted document reads back to
  the same numbers, and each malformed document raised its typed error.
* roc_dense: P_FA and P_D do not increase with the threshold, the t = 1 point
  reproduces the equal-prior Helstrom error within 1e-8, and the ROC CSV reads
  back to the same points.

Each check returns None when the output is correct, else a one-line reason.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

FVG_ATOL = 1e-7
EQUAL_PRIOR_ATOL = 1e-12
TABLE_RTOL = 5e-6          # the table prints 6 significant digits
ROC_MONOTONE_ATOL = 1e-12
ROC_HELSTROM_ATOL = 1e-8
METRICS = ("trace_distance", "fidelity", "helstrom_error")


@dataclass
class Outcome:
    """What one scenario produced: an exception, or a report and its text."""

    error: Exception | None = None
    report: object = None
    text: str | None = None
    csv: str | None = None


def _metrics_contracts(d: float, f: float, pe: float, p0: float, p1: float) -> str | None:
    if not (0.0 <= d <= 1.0 and 0.0 <= f <= 1.0 and 0.0 <= pe <= 0.5):
        return f"metric out of range: D={d!r} F={f!r} Pe={pe!r}"
    if 1.0 - math.sqrt(f) > d + FVG_ATOL or d > math.sqrt(1.0 - f) + FVG_ATOL:
        return f"Fuchs-van de Graaff sandwich violated: D={d!r} F={f!r}"
    if pe > min(p0, p1) + EQUAL_PRIOR_ATOL:
        return f"Pe={pe!r} exceeds min prior {min(p0, p1)!r}"
    if p0 == 0.5 and p1 == 0.5 and abs(pe - 0.5 * (1.0 - d)) > EQUAL_PRIOR_ATOL:
        return f"Pe={pe!r} differs from (1 - D)/2 = {0.5 * (1.0 - d)!r} at equal priors"
    return None


def _scenario_echo(doc_scenario: dict, values: dict) -> str | None:
    for key, value in values.items():
        if key.startswith("link_budget."):
            echoed = (doc_scenario.get("link_budget") or {}).get(key.split(".", 1)[1])
        else:
            echoed = doc_scenario.get(key)
        if echoed != value:
            return f"scenario echo {key}={echoed!r}, document said {value!r}"
    return None


def _table_numbers(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in METRICS:
            out[parts[0]] = float(parts[1])
    return out


def _document(item: dict, outcome: Outcome) -> tuple[dict | None, str | None]:
    """Common part: the run succeeded, the metrics obey their contracts and
    the emitted text reads back to the report. Returns the parsed structured
    document (None for a table) or a failure reason."""
    if outcome.error is not None:
        return None, f"raised {type(outcome.error).__name__}: {outcome.error}"
    r = outcome.report
    s = r.scenario
    reason = _metrics_contracts(r.trace_distance, r.fidelity, r.helstrom_error,
                                s.prior_h0, s.prior_h1)
    if reason:
        return None, reason
    if item["format"] == "table":
        numbers = _table_numbers(outcome.text)
        for key in METRICS:
            want = getattr(r, key)
            got = numbers.get(key)
            if got is None or abs(got - want) > TABLE_RTOL * abs(want):
                return None, f"table {key}={got!r}, report has {want!r}"
        return None, None
    doc = json.loads(outcome.text)
    for key in METRICS:
        if doc["metrics"][key] != getattr(r, key):
            return None, f"structured {key}={doc['metrics'][key]!r}, report has {getattr(r, key)!r}"
    reason = _scenario_echo(doc["scenario"], item["values"])
    return doc, reason


def check_analytic(q, item: dict, outcome: Outcome) -> str | None:
    expect = item["expect_error"]
    if expect is not None:
        if isinstance(outcome.error, getattr(q, expect)):
            return None
        got = "a report" if outcome.error is None else type(outcome.error).__name__
        return f"malformed document gave {got}, expected {expect}"
    return _document(item, outcome)[1]


def _roc_from_csv(text: str) -> list[tuple[float, float, float]]:
    lines = text.splitlines()
    if lines[0] != "threshold,p_false_alarm,p_detection":
        raise ValueError(f"bad ROC CSV header {lines[0]!r}")
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def check_roc(q, item: dict, outcome: Outcome) -> str | None:
    doc, reason = _document(item, outcome)
    if reason:
        return reason
    points = [(p["threshold"], p["p_false_alarm"], p["p_detection"]) for p in doc["roc"]]
    if [t for t, _, _ in points] != item["values"]["roc_thresholds"]:
        return "ROC thresholds differ from the document's"
    if _roc_from_csv(outcome.csv) != points:
        return "ROC CSV does not read back to the structured ROC points"
    for (_, fa0, d0), (t, fa1, d1) in zip(points, points[1:]):
        if fa1 > fa0 + ROC_MONOTONE_ATOL or d1 > d0 + ROC_MONOTONE_ATOL:
            return f"ROC increases at threshold {t!r}"
    v = item["values"]
    rho0 = q.hypothesis_h0(v["noise_excitation"])
    rho1 = q.hypothesis_h1(q.TargetParams(v["phase_rad"], v["reflectivity"], v["noise_excitation"]))
    pe = q.helstrom_error(rho0, rho1, (0.5, 0.5))
    at_one = [(fa, d) for t, fa, d in points if t == 1.0]
    error = 0.5 * at_one[0][0] + 0.5 * (1.0 - at_one[0][1])
    if abs(error - pe) > ROC_HELSTROM_ATOL:
        return f"t = 1 point gives error {error!r}, equal-prior Helstrom error is {pe!r}"
    return None


CHECKS = {"analytic_sweep": check_analytic, "roc_dense": check_roc}
