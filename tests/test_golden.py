"""Byte-identity of the shipped scenarios' reports against checked-in goldens.

The files under ``tests/golden/`` are the CLI output for ``scenarios/``: the
structured and table reports of example.cfg and thermal.cfg, and the ROC CSVs
of example.cfg and dense.cfg. example.cfg runs 100000 Monte Carlo trials, so its
golden also pins the exact decision counts of Monte Carlo stream version 3
(one standard-library binomial draw per hypothesis), the version every report
names in its ``versions`` block.
dense.roc.csv pins dense.cfg's 1000-threshold ROC, whose grid hits the triply
degenerate eigenvalue crossing of ρ₁ − tρ₀ at t = 0.4 exactly, and
dense.structured.json the one-line structured report of the same scenario,
with its 1000-point ROC list and threshold echo. The edge goldens pin every link-budget row with all four warnings, a thermal
noise source and a Monte Carlo run whose H0 outcome has zero trials.
A change that moves any byte fails here; a deliberate contract change must
bump its entry in ``versions``, regenerate the goldens and say so.

Since ``versions.numerics`` 2 the pipeline takes its ROC points and Monte Carlo
Born probabilities from the closed form, and since 3 its fidelity and Helstrom
error too. Each golden's numbers are held to the 50-digit oracle of
``mp_oracle``, which stands in for keeping the files of the earlier versions: D,
F and P_e within their bounds, every ROC point (every tenth of dense's 1000)
within ``MP_ULPS``, and the Monte Carlo counts exactly, drawn at the oracle's
Born pair. Stream version 3 changed the
structured goldens only in ``versions.mc_stream`` and in the Monte Carlo draws that
moved, which a test checks field by field against the version 2 files' digests.
"""

import hashlib
import json
import subprocess
from pathlib import Path

import pytest
from conftest import python_m_qiradar

import mp_oracle as mp
from qiradar.cli import main
from qiradar.montecarlo import draw_counts

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
    out, roc = tmp_path / "report", tmp_path / "roc.csv"
    assert main(["run", str(ROOT / "scenarios" / "example.cfg"),
                 "--out", str(out), "--roc-out", str(roc)]) == 0
    assert out.read_bytes() == (GOLDEN / "example.table.txt").read_bytes()
    assert roc.read_bytes() == (GOLDEN / "example.roc.csv").read_bytes()


def test_python_m_qiradar_prints_the_thermal_golden():
    # __main__.py's stdout, byte for byte, in a fresh interpreter.
    done = python_m_qiradar(["run", str(ROOT / "scenarios" / "thermal.cfg")],
                            stdout=subprocess.PIPE)
    assert done.returncode == 0
    assert done.stdout == (GOLDEN / "thermal.table.txt").read_bytes()


@pytest.mark.parametrize("name", ["dense", "edge", "example", "thermal"])
def test_structured_golden_is_one_json_line_of_the_current_versions(name):
    text = (GOLDEN / f"{name}.structured.json").read_text(encoding="utf-8")
    assert text.count("\n") == 1 and text.endswith("\n")
    doc = json.loads(text)
    assert doc["versions"] == {"mc_stream": 3, "numerics": 3, "structured": 2}
    # The scenario's threshold echo is spliced from the same text as the points.
    thresholds = doc["scenario"]["roc_thresholds"] or []
    assert list(map(repr, thresholds)) == [repr(p["threshold"]) for p in doc["roc"] or []]


def test_dense_roc_csv_matches_golden(tmp_path):
    roc = tmp_path / "roc.csv"
    assert main(["run", str(ROOT / "scenarios" / "dense.cfg"), "--out", str(tmp_path / "report"),
                 "--roc-out", str(roc)]) == 0
    assert roc.read_bytes() == (GOLDEN / "dense.roc.csv").read_bytes()


def test_dense_structured_report_matches_golden(tmp_path):
    out = tmp_path / "report"
    assert main(["run", str(ROOT / "scenarios" / "dense.cfg"), "--format", "structured",
                 "--out", str(out)]) == 0
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


def golden_doc(name):
    """A structured golden's document."""
    return json.loads((GOLDEN / f"{name}.structured.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["dense", "edge", "example", "thermal"])
def test_the_golden_metrics_are_the_oracles(name):
    doc = golden_doc(name)
    s, golden = doc["scenario"], doc["metrics"]
    mp.check_metrics(s["reflectivity"], s["noise_excitation"], (s["prior_h0"], s["prior_h1"]),
                     golden["trace_distance"], golden["fidelity"], golden["helstrom_error"])


# Each golden's ROC points checked against the oracle, one in this many: every tenth of dense's
# 1000 points, t = 0.08k, keeps its triple crossing at t = 0.4.
ROC_STRIDE = {"dense": 10, "edge": 1, "example": 1}


@pytest.mark.parametrize("name", ROC_STRIDE)
def test_the_golden_detector_numbers_are_the_oracles(name):
    doc = golden_doc(name)
    s = doc["scenario"]
    eta, p = s["reflectivity"], s["noise_excitation"]
    assert [point["threshold"] for point in doc["roc"]] == s["roc_thresholds"]
    for point in doc["roc"][::ROC_STRIDE[name]]:
        got = point["p_false_alarm"], point["p_detection"]
        for x, ref in zip(got, mp.born_pair(eta, p, point["threshold"], 1.0)):
            assert mp.ulps(x, ref) <= mp.MP_ULPS, (name, point)
    if s["trials"]:
        mc = doc["monte_carlo"]
        born = tuple(map(float, mp.born_pair(eta, p, s["prior_h0"], s["prior_h1"])))
        outcomes = draw_counts(born, s["prior_h0"], s["trials"], mc["seed"])
        assert [{"decide_h0_count": o.decide_h0_count, "decide_h1_count": o.decide_h1_count,
                 "trials": o.trials, "true_hypothesis": o.true_hypothesis}
                for o in outcomes] == [mc["h0"], mc["h1"]]


# Each structured golden as Monte Carlo stream version 2 wrote it: its sha256 and the
# fields, besides versions.mc_stream, whose values stream version 3 changed. Only
# example's H0 draw moved: edge's draws are certain (no H0 trials and P_D = 1), and dense
# and thermal run no trials.
STREAM_V2 = {
    "dense": ("0fc2c6c219c2b9feaf2c87e67ead2852273590c3cbb0fc02377e45d1f8cb34cb", {}),
    "edge": ("f39c06526bb2fcea5207368ada7f4bb2f8c6728570081aac7812f086bc953d55", {}),
    "example": ("7a40326bc7abbf8b989f665f6084ae24ad870aa10145924f793efc93bd6786a6", {
        ("monte_carlo", "empirical_error"): 0.12598,
        ("monte_carlo", "h0", "decide_h0_count"): 37402,
        ("monte_carlo", "h0", "decide_h1_count"): 12598,
    }),
    "thermal": ("607c8b432942b60089a158fdde3004afa6c74e517e19f42c6190e9f49e63377a", {}),
}


@pytest.mark.parametrize("name", sorted(STREAM_V2))
def test_stream_v3_changed_only_the_monte_carlo_draws(name):
    digest, v2_fields = STREAM_V2[name]
    doc = json.loads((GOLDEN / f"{name}.structured.json").read_text(encoding="utf-8"))
    assert doc["versions"]["mc_stream"] == 3
    for *parents, key in [("versions", "mc_stream"), *v2_fields]:
        record = doc
        for parent in parents:
            record = record[parent]
        assert key in record
        record[key] = v2_fields.get((*parents, key), 2)
    v2_text = json.dumps(doc, sort_keys=True) + "\n"
    assert hashlib.sha256(v2_text.encode("utf-8")).hexdigest() == digest
