"""Seeded input generators for the benchmark workloads.

Everything here is pure standard library and depends only on the workload
seed, so the same seed always yields byte-identical scenario documents. The
program under test sees only the generated text; the ``values`` recorded
next to each document are what the correctness gate checks the report's
scenario echo against.

Each workload is a list of items. An item is a dict with

    id            position in the list
    text          the scenario document
    format        "structured" or "table"
    roc_csv       whether the ROC CSV is emitted too
    expect_error  None, or "ParseError"/"ValidationError" for a malformed document
    values        the numbers written into the document
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("analytic_sweep", "roc_dense")

# Input shape of each workload, recorded with every result so a claim can be
# re-checked on a seed that was not used while the change was written.
SHAPES = {
    "analytic_sweep": {
        "documents": 500,
        "malformed": "3%: unknown key, non-number, reflectivity > 1, missing phase_rad",
        "noise": "3/4 noise_excitation (10% exactly 0), 1/4 frequency_hz/temperature_k",
        "reflectivity": "10% exactly 0, 10% exactly 1, rest uniform (0, 1)",
        "phase_rad": "uniform [-4pi, 6pi)",
        "priors": "1/3 unequal",
        "link_budget": "1/5",
        "trials": 0,
        "format": "alternating structured / table",
    },
    "roc_dense": {
        "scenarios": 40,
        "roc_thresholds": "100 non-descending in [0, 8], including exactly 0 and 1",
        "trials": 0,
        "format": "structured plus roc_csv",
    },
}

# Tail percentile of per-scenario latency, taken over the scenarios (485
# emitted, and 40), so the level does not depend on how many passes a run
# completes: the highest round percentile that leaves at least ten samples
# beyond it (12 and 10).
TAIL_PERCENTILE = {"analytic_sweep": 97.5, "roc_dense": 75.0}

ANALYTIC_DOCUMENTS = 500
ROC_SCENARIOS = 40
# Each scenario counts at its fastest repeat, and on a shared host only a
# repeat that falls in a quiet spell is fast. At 1000 thresholds a scenario
# took ~50 ms and got ~25 repeats in a run, too few to find one: two ten-run
# sets spread 22% and 28% (IQR/median). At 100, a pass takes ~0.3 s and each
# scenario gets ~130 repeats.
ROC_THRESHOLDS = 100
MALFORMED_KINDS = ("unknown_key", "not_a_number", "reflectivity_above_one", "missing_phase")
_EXPECTED_ERROR = {
    "unknown_key": "ParseError",
    "not_a_number": "ParseError",
    "reflectivity_above_one": "ValidationError",
    "missing_phase": "ValidationError",
}


def _document(entries: list[tuple[str, str]]) -> str:
    return "# generated benchmark scenario\n" + "".join(f"{k} = {v}\n" for k, v in entries)


def _marks(rng: random.Random, n: int, count: int) -> set[int]:
    """Exactly ``count`` of ``n`` positions, chosen by the seed."""
    return set(rng.sample(range(n), count))


def _analytic_entries(rng: random.Random, thermal: bool, unequal: bool, link: bool):
    values: dict = {"phase_rad": rng.uniform(-4.0 * math.pi, 6.0 * math.pi)}
    r = rng.random()
    values["reflectivity"] = 0.0 if r < 0.1 else 1.0 if r < 0.2 else rng.uniform(0.0, 1.0)
    if thermal:
        values["frequency_hz"] = 10.0 ** rng.uniform(9.0, 11.0)
        values["temperature_k"] = 10.0 ** rng.uniform(-2.0, 2.5)
    else:
        values["noise_excitation"] = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 0.99)
    if rng.random() < 0.1:
        values["env_phase_rad"] = rng.uniform(-math.pi, math.pi)
    if unequal:
        p0 = rng.uniform(0.05, 0.95)
        values["prior_h0"] = p0
        values["prior_h1"] = 1.0 - p0
    if link:
        values["link_budget.power_w"] = 10.0 ** rng.uniform(-18.0, -14.0)
        values["link_budget.noise_power_w"] = 10.0 ** rng.uniform(-18.0, -14.0)
        values["link_budget.frequency_hz"] = 10.0 ** rng.uniform(9.0, 11.0)
        values["link_budget.temperature_k"] = 10.0 ** rng.uniform(0.0, 2.5)
        if rng.random() < 0.5:
            values["link_budget.shield_thickness_m"] = 10.0 ** rng.uniform(-4.0, -1.0)
            values["link_budget.wavelength_m"] = 10.0 ** rng.uniform(-3.0, -1.0)
    return values


def _entries(values: dict) -> list[tuple[str, str]]:
    out = []
    for key, value in values.items():
        if isinstance(value, list):
            out.append((key, ", ".join(repr(v) for v in value)))
        else:
            out.append((key, repr(value)))
    return out


def _item(i, values, fmt, roc_csv=False, text=None, expect_error=None):
    return {
        "id": i,
        "text": text if text is not None else _document(_entries(values)),
        "format": fmt,
        "roc_csv": roc_csv,
        "expect_error": expect_error,
        "values": values,
    }


def _malformed(values: dict, kind: str) -> str:
    entries = _entries(values)
    if kind == "unknown_key":
        entries.append(("reflectivty", "0.5"))
    elif kind == "not_a_number":
        entries = [(k, "abc" if k == "reflectivity" else v) for k, v in entries]
    elif kind == "reflectivity_above_one":
        entries = [(k, "1.5" if k == "reflectivity" else v) for k, v in entries]
    else:
        entries = [(k, v) for k, v in entries if k != "phase_rad"]
    return _document(entries)


def analytic_sweep(seed: int) -> list[dict]:
    rng = random.Random(f"analytic_sweep/{seed}")
    n = ANALYTIC_DOCUMENTS
    bad = sorted(_marks(rng, n, 3 * n // 100))
    kinds = {i: MALFORMED_KINDS[k % len(MALFORMED_KINDS)] for k, i in enumerate(bad)}
    thermal = _marks(rng, n, n // 4)
    unequal = _marks(rng, n, n // 3)
    link = _marks(rng, n, n // 5)
    items = []
    for i in range(n):
        values = _analytic_entries(rng, i in thermal, i in unequal, i in link)
        fmt = "structured" if i % 2 == 0 else "table"
        if i in kinds:
            text = _malformed(values, kinds[i])
            items.append(_item(i, values, fmt, text=text, expect_error=_EXPECTED_ERROR[kinds[i]]))
        else:
            items.append(_item(i, values, fmt))
    return items


def roc_dense(seed: int) -> list[dict]:
    rng = random.Random(f"roc_dense/{seed}")
    items = []
    for i in range(ROC_SCENARIOS):
        thresholds = sorted([0.0, 1.0] + [rng.uniform(0.0, 8.0) for _ in range(ROC_THRESHOLDS - 2)])
        values = {
            "phase_rad": rng.uniform(0.0, 2.0 * math.pi),
            "reflectivity": rng.uniform(0.05, 1.0),
            "noise_excitation": rng.uniform(0.0, 0.9),
            "roc_thresholds": thresholds,
        }
        items.append(_item(i, values, "structured", roc_csv=True))
    return items


def generate(workload: str, seed: int) -> list[dict]:
    if workload == "analytic_sweep":
        return analytic_sweep(seed)
    if workload == "roc_dense":
        return roc_dense(seed)
    raise ValueError(f"unknown workload {workload!r}")


def fingerprint(items: list[dict]) -> str:
    """Canonical serialization of generated inputs, for the determinism self-test."""
    return json.dumps(items, sort_keys=True)
