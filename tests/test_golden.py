"""Byte-identity of the shipped scenarios' reports against checked-in goldens.

The files under ``tests/golden/`` are the CLI output for ``scenarios/``: the
structured and table reports of example.cfg and thermal.cfg, and
example.cfg's ROC CSV. example.cfg runs 100000 Monte Carlo trials, so its
golden also pins the exact decision counts of the current Monte Carlo stream.
dense.roc.csv pins a 1000-threshold ROC whose grid hits the triply
degenerate eigenvalue crossing of ρ₁ − tρ₀ at t = 0.4 exactly, and
dense.structured.json the structured report of the same scenario, whose
long ROC list and threshold echo take the encoder's one-call paths.
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
