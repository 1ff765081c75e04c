"""Byte-identity of the shipped scenarios' reports against checked-in goldens.

The files under ``tests/golden/`` are the CLI output for ``scenarios/``: the
structured and table reports of example.cfg and thermal.cfg, and
example.cfg's ROC CSV. example.cfg runs 100000 Monte Carlo trials, so its
golden also pins the exact decision counts of the current Monte Carlo stream.
dense.roc.csv pins a 1000-threshold ROC whose grid hits the triply
degenerate eigenvalue crossing of ρ₁ − tρ₀ at t = 0.4 exactly, and
dense.structured.json the structured report of the same scenario, whose
long ROC list and threshold echo take the encoder's one-call paths. The
edge goldens pin every link-budget row with all four warnings, a thermal
noise source and a Monte Carlo run whose H0 outcome has zero trials.
A change that moves any byte fails here; a deliberate contract change must
regenerate the goldens and say so.
"""

from pathlib import Path

import pytest

from qiradar.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FORMAT_SUFFIX = {"structured": "structured.json", "table": "table.txt"}


@pytest.mark.parametrize("name", ["example", "thermal"])
@pytest.mark.parametrize("fmt", sorted(FORMAT_SUFFIX))
def test_report_matches_golden(name, fmt, tmp_path):
    out = tmp_path / "report"
    assert main(["run", str(ROOT / "scenarios" / f"{name}.cfg"),
                 "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.{FORMAT_SUFFIX[fmt]}").read_bytes()


def test_roc_csv_matches_golden(tmp_path):
    roc = tmp_path / "roc.csv"
    assert main(["run", str(ROOT / "scenarios" / "example.cfg"),
                 "--out", str(tmp_path / "report"), "--roc-out", str(roc)]) == 0
    assert roc.read_bytes() == (GOLDEN / "example.roc.csv").read_bytes()


DENSE_SCENARIO = (
    "phase_rad = 1.0\n"
    "reflectivity = 0.6\n"
    "noise_excitation = 0.2\n"
    "roc_thresholds = " + ", ".join(repr(k / 125) for k in range(1000)) + "\n"
)


def test_dense_roc_csv_matches_golden(tmp_path):
    cfg = tmp_path / "dense.cfg"
    cfg.write_text(DENSE_SCENARIO, encoding="utf-8")
    roc = tmp_path / "roc.csv"
    assert main(["run", str(cfg), "--out", str(tmp_path / "report"), "--roc-out", str(roc)]) == 0
    assert roc.read_bytes() == (GOLDEN / "dense.roc.csv").read_bytes()


def test_dense_structured_report_matches_golden(tmp_path):
    cfg = tmp_path / "dense.cfg"
    cfg.write_text(DENSE_SCENARIO, encoding="utf-8")
    out = tmp_path / "report"
    assert main(["run", str(cfg), "--format", "structured", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "dense.structured.json").read_bytes()


EDGE_SCENARIO = """\
phase_rad = 1.25
reflectivity = 0.35
frequency_hz = 1e9
temperature_k = 300
env_phase_rad = -0.75
prior_h0 = 0
prior_h1 = 1
trials = 3000
seed = 7
roc_thresholds = 0, 0.5, 1, 2
link_budget.power_w = 1e-16
link_budget.noise_power_w = 1e-15
link_budget.frequency_hz = 1e9
link_budget.temperature_k = 300
link_budget.shield_thickness_m = 1e-4
link_budget.wavelength_m = 1e-2
link_budget.amplitude_stop = 0.1
link_budget.amplitude_pass = 1
link_budget.noise_ext = 3
link_budget.noise_isolated = 2
"""


@pytest.mark.parametrize("fmt", sorted(FORMAT_SUFFIX))
def test_edge_report_matches_golden(fmt, tmp_path):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(EDGE_SCENARIO, encoding="utf-8")
    out = tmp_path / "report"
    assert main(["run", str(cfg), "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"edge.{FORMAT_SUFFIX[fmt]}").read_bytes()
