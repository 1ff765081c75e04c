"""Property tests: every input the public API accepts ends in a typed result.

* Any text given to parse_scenario yields a Scenario, a ParseError or a
  ValidationError.
* Any field values given to Scenario(...) yield a Scenario or a
  ValidationError.
* Every accepted Scenario yields a report from run_scenario, or a
  NumericalDomain when a result leaves the float range.
  Its structured report is the one line
  json.dumps(report_to_dict(report), sort_keys=True) + "\n", and it parses
  back to that document, whose scenario block rebuilds an equal Scenario
  that reruns to the same structured and table bytes.
* Every accepted Scenario's ROC, over any sorted thresholds, is born_pair's
  point by point (clamped), to the last bit.
* Every accepted Scenario's D, F and P_e are the 50-digit oracle's within their
  bounds.
* A report moved by replace onto another scenario, given that scenario's D, is
  that scenario's fresh report, field for field and byte for byte.
* Every command line given to cli.main exits 0, 2 or 3, a failed one with one
  error line and no traceback, whatever sink its report goes to; the
  structured report of a run that exits 0 holds check_report's invariants.

Examples are derandomized and bounded so the suite stays fast and
reproducible. Trial counts are kept small only for run time; every other
field ranges over the whole float range.
"""

import contextlib
import errno
import io
import json
import math
import os
import tempfile
from dataclasses import fields, replace

from hypothesis import example, given
from hypothesis import strategies as st
from conftest import BOUNDED, ieee_bytes, unstopped_born_pair

import mp_oracle as mp
from qiradar.cli import FVG_ATOL, main, run_scenario
from qiradar.closed_form import born_pair
from qiradar.errors import (MAX_SEED, MAX_TRIALS, NumericalDomain, ParseError, ValidationError,
                            clamp_unit)
from qiradar.linkbudget import LinkBudgetInputs
from qiradar.montecarlo import split_trials
from qiradar.report import ROC_CSV_HEADER, emit_report, report_to_dict, roc_csv
from qiradar.scenario import KNOWN_KEYS, Scenario, parse_scenario

any_float = st.floats(allow_nan=True, allow_infinity=True)
positive = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
unit = st.floats(min_value=0.0, max_value=1.0)

# Grammar characters plus a few that str methods treat specially (a line
# separator, a BOM, non-ASCII digits and spaces). A fixed alphabet also spares
# hypothesis building its Unicode tables on every fresh checkout.
ALPHABET = " \t\n=:,#.-+_0123456789abcdefiklmnoprstuvwxyEN\u2028\x1c\ufeff\u00a0\u0661\u00e9"
value_text = st.one_of(
    any_float.map(repr),
    st.integers().map(str),
    st.lists(any_float.map(repr), min_size=1, max_size=4).map(", ".join),
    st.text(alphabet=ALPHABET, max_size=8),
)
entry = st.builds(
    lambda key, sep, value: f"{key}{sep}{value}",
    st.sampled_from(sorted(KNOWN_KEYS) + ["bogus", ""]),
    st.sampled_from(["=", ":", " = ", "\t:\t"]),
    value_text,
)
lines = st.one_of(entry, st.text(alphabet=ALPHABET, max_size=16))
documents = st.one_of(st.text(alphabet=ALPHABET), st.lists(lines, max_size=12).map("\n".join))


@BOUNDED
@given(documents)
def test_any_text_parses_or_raises_typed(text):
    try:
        scenario = parse_scenario(text)
    except (ParseError, ValidationError):
        return
    assert isinstance(scenario, Scenario)


link_inputs = st.builds(
    LinkBudgetInputs, **{f.name: st.none() | positive for f in fields(LinkBudgetInputs)}
)
anything = st.one_of(
    st.none(), st.booleans(), st.integers(), any_float, st.sampled_from(["", "0.5", "x"]),
    st.lists(any_float, max_size=3), st.tuples(any_float), link_inputs,
)


@BOUNDED
@given(st.fixed_dictionaries({}, optional={f.name: anything for f in fields(Scenario)}))
def test_any_field_values_build_or_raise_validation_error(values):
    try:
        scenario = Scenario(**{"phase_rad": None, "reflectivity": None, **values})
    except ValidationError:
        return
    assert isinstance(scenario, Scenario)


@st.composite
def plausible_scenarios(draw):
    """Scenario fields drawn mostly from their valid ranges."""
    values = {
        "phase_rad": draw(st.floats(allow_nan=False, allow_infinity=False)),
        "reflectivity": draw(unit),
        "env_phase_rad": draw(st.floats(allow_nan=False, allow_infinity=False)),
        "trials": draw(st.integers(0, 3000)),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }
    if draw(st.booleans()):
        values["noise_excitation"] = draw(st.floats(0.0, 1.0, exclude_max=True))
    else:
        values["frequency_hz"] = draw(positive)
        values["temperature_k"] = draw(positive)
    if draw(st.booleans()):
        p0 = draw(unit)
        values["prior_h0"], values["prior_h1"] = p0, 1.0 - p0
    if draw(st.booleans()):
        thresholds = draw(st.lists(st.floats(0.0, 1.7976931348623157e308), min_size=1,
                                   max_size=5))
        values["roc_thresholds"] = sorted(thresholds)
    if draw(st.booleans()):
        values["link_budget"] = draw(link_inputs)
    return values


def scenario_of_echo(echo: dict) -> Scenario:
    """The Scenario a structured report's scenario block describes."""
    echo = dict(echo)
    if echo["link_budget"] is not None:
        echo["link_budget"] = LinkBudgetInputs(**echo["link_budget"])
    if echo["roc_thresholds"] is not None:
        echo["roc_thresholds"] = tuple(echo["roc_thresholds"])
    return Scenario(**echo)


@BOUNDED
@given(plausible_scenarios())
def test_accepted_scenarios_run_or_raise_numerical_domain(values):
    try:
        scenario = Scenario(**values)
    except ValidationError:
        return
    try:
        report = run_scenario(scenario)
    except NumericalDomain:
        return
    table = emit_report(report, "table")
    assert table.endswith("\n")
    doc = report_to_dict(report)
    text = emit_report(report, "structured")
    assert text == json.dumps(doc, sort_keys=True) + "\n"
    assert text.count("\n") == 1
    assert json.loads(text) == doc
    # The emitted scenario block replays: it rebuilds the scenario, whose rerun
    # emits the same bytes.
    replayed = scenario_of_echo(json.loads(text)["scenario"])
    assert replayed == scenario
    rerun = run_scenario(replayed)
    assert emit_report(rerun, "structured") == text
    assert emit_report(rerun, "table") == table
    if report.roc is not None:
        # The emitted report's CSV is each point's floats by repr under the header.
        rows = [",".join(map(repr, point)) for point in report.roc]
        assert roc_csv(report.roc) == "\n".join([ROC_CSV_HEADER, *rows]) + "\n"
    assert 0.0 <= report.helstrom_error <= 0.5 + 1e-12
    assert not math.isnan(report.trace_distance)


@BOUNDED
@given(plausible_scenarios())
def test_pipeline_metrics_are_the_oracles(values):
    values.pop("link_budget", None)
    try:
        scenario = Scenario(**values)
    except ValidationError:
        return
    report = run_scenario(scenario)
    mp.check_metrics(scenario.reflectivity, scenario.noise_excitation,
                     (scenario.prior_h0, scenario.prior_h1), report.trace_distance,
                     report.fidelity, report.helstrom_error)


@st.composite
def full_scenarios(draw):
    """Valid scenarios with Monte Carlo, a ROC, a link budget and the thermal pair."""
    moderate = st.floats(1e-20, 1e3)
    p0 = draw(unit)
    return Scenario(
        phase_rad=draw(st.floats(-10.0, 10.0)), reflectivity=draw(unit),
        frequency_hz=draw(st.floats(1e8, 1e13)), temperature_k=draw(st.floats(0.01, 1e4)),
        prior_h0=p0, prior_h1=1.0 - p0, trials=draw(st.integers(1, 3000)),
        seed=draw(st.integers(0, 2**64 - 1)),
        roc_thresholds=sorted(draw(st.lists(st.floats(0.0, 8.0), min_size=1, max_size=5))),
        link_budget=LinkBudgetInputs(**{f.name: draw(moderate) for f in fields(LinkBudgetInputs)}))


@BOUNDED
@given(full_scenarios(), full_scenarios())
def test_a_report_moved_onto_another_scenario_is_its_report(first, second):
    # replace(report, scenario=…) derives every result but D from the new scenario, so with
    # the new scenario's D the moved report is a fresh run's, field for field and byte for byte.
    fresh = run_scenario(second)
    moved = replace(run_scenario(first), scenario=second, trace_distance=fresh.trace_distance)
    assert moved == fresh
    for fmt in ("structured", "table"):
        assert emit_report(moved, fmt) == emit_report(fresh, fmt)
    assert roc_csv(moved.roc) == roc_csv(fresh.roc)


@st.composite
def sorted_thresholds(draw):
    """Non-descending thresholds: small and huge values, -0.0, and repeats."""
    values = draw(st.lists(st.one_of(st.floats(0.0, 8.0), positive,
                                     st.sampled_from([-0.0, 0.0, 1e16, 1e300, 1e308])),
                           min_size=1, max_size=30))
    return sorted(values + draw(st.lists(st.sampled_from(values), max_size=5)))


@BOUNDED
@given(plausible_scenarios(), sorted_thresholds())
def test_pipeline_roc_is_born_pair_on_every_sorted_sweep(values, thresholds):
    # The sweep's zero tail must not change a bit of any point: each point of the
    # run_scenario ROC is born_pair's at that threshold, clamped to [0, 1].
    values.pop("link_budget", None)
    try:
        scenario = Scenario(**{**values, "roc_thresholds": thresholds})
    except ValidationError:
        return
    eta, p = scenario.reflectivity, scenario.noise_excitation
    got = ieee_bytes(run_scenario(scenario).roc)
    for point in born_pair, unstopped_born_pair:
        expected = [(t, *(clamp_unit(x, "") for x in point(eta, p, t, 1.0)))
                    for t in scenario.roc_thresholds]
        assert got == ieee_bytes(expected), point.__name__


# cli.main over whole command lines: documents with edge values, --seed/--trials overrides,
# both formats and --roc-out at a file, a missing directory or a directory. Each command
# line runs once per output sink: a stdout that takes the report, raises ENOSPC on write,
# is /dev/full (buffered, so its flush fails) or is None (a process started with
# descriptor 1 closed), and --out at a file, a missing directory or a directory.
EDGE_TEXT = ["5e-324", "1e308", "-0.0", "0", str(2**64), str(10**400), "nan", "NaN", "-inf"]
GOOD_OVERRIDES = ["0", "1", "7", str(MAX_TRIALS)]
BAD_OVERRIDES = ["-1", str(MAX_TRIALS + 1), str(2**64), "nan"]
FAILING_STDOUTS = ["raises", "closed"] + (["full"] if os.path.exists("/dev/full") else [])
HELSTROM_POINT_ATOL = 1e-9  # an eigenvalue within TIE_ATOL = 1e-10 of 0 may fall either side
# P_e over min(π₀, π₁), and against (1 − D)/2 at equal priors, where D comes from an eigensolve.
PE_INVARIANT_ATOL = 1e-12


def given_fields(scenario: Scenario) -> dict:
    """The field values that build ``scenario``: those not None, and of a thermal scenario
    the pair rather than the noise excitation derived from it."""
    values = {f.name: getattr(scenario, f.name) for f in fields(Scenario)}
    if scenario.thermal_occupancy is not None:
        del values["noise_excitation"]
    return {name: value for name, value in values.items() if value is not None}


def document_text(values) -> dict[str, str]:
    """The document entries of a scenario's field values."""
    entries = {}
    for key, value in values.items():
        if key == "link_budget":
            entries.update({f"link_budget.{f.name}": repr(getattr(value, f.name))
                            for f in fields(value) if getattr(value, f.name) is not None})
        elif key == "roc_thresholds":
            entries[key] = ", ".join(map(repr, value))
        else:
            entries[key] = repr(value)
    return entries


@st.composite
def command_lines(draw):
    """(document, overrides, format, --roc-out): the document of a plausible or a full
    scenario, often with the threshold 1, and, in about half the draws, edge text in some
    keys, a grammar line of the documents strategy, rejected overrides and an unwritable
    --roc-out or one without thresholds."""
    clean = draw(st.booleans())
    rough = st.just(False) if clean else st.booleans()
    values = draw(st.one_of(plausible_scenarios(), full_scenarios().map(given_fields)))
    if "roc_thresholds" in values and draw(st.booleans()):
        values["roc_thresholds"] = sorted([*values["roc_thresholds"], 1.0])
    entries = document_text(values)
    if draw(rough):  # keys the document gives are drawn about twice as often as others
        keys = st.sampled_from(sorted(entries) + sorted(KNOWN_KEYS))
        entries.update(draw(st.dictionaries(keys, st.sampled_from(EDGE_TEXT), min_size=1,
                                            max_size=3)))
    text = [f"{key} = {value}" for key, value in entries.items()]
    if draw(rough):
        text.append(draw(lines))
    override = st.sampled_from(GOOD_OVERRIDES + ([] if clean else BAD_OVERRIDES))
    overrides = draw(st.fixed_dictionaries({}, optional={"--seed": override,
                                                         "--trials": override}))
    roc_out = draw(st.sampled_from([None, "file"] + ([] if clean else ["missing", "dir"])))
    if "roc_thresholds" not in entries and not draw(rough):
        roc_out = None
    return "\n".join(text), overrides, draw(st.sampled_from(["structured", "table"])), roc_out


class RaisingStdout:
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


def run_main(argv, stdout_kind, stderr_kind="buffer"):
    """(exit code, stdout text or None) of cli.main(argv) with the given stdout and stderr;
    a buffer stderr must hold one error line if the run failed, none otherwise, and no
    traceback. A closed stderr is None, as in a process started with descriptor 2 closed.
    /dev/full is flushed once more after the run, as at interpreter exit, which fails if a
    failed write left its bytes in the buffer."""
    stdout = {"buffer": io.StringIO, "raises": RaisingStdout, "closed": lambda: None,
              "full": lambda: open("/dev/full", "w")}[stdout_kind]()
    err = {"buffer": io.StringIO, "raises": RaisingStdout, "closed": lambda: None}[stderr_kind]()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects an override
                code = exc.code
        if stdout_kind == "full":
            stdout.flush()
    finally:
        if stdout_kind == "full":
            with contextlib.suppress(OSError):
                stdout.close()
    assert code in (0, 2, 3)
    if stderr_kind == "buffer":
        assert "Traceback" not in err.getvalue()
        error_lines = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert len(error_lines) == (1 if code else 0)
    return code, stdout.getvalue() if stdout_kind == "buffer" else None


def check_report(doc, ran: Scenario) -> None:
    """The invariants of one structured report of the scenario ``ran``."""
    s, m = doc["scenario"], doc["metrics"]
    phase = doc["phase_effective_rad"]
    assert math.copysign(1.0, phase) == 1.0 and 0.0 <= phase < math.tau
    d, f, pe = m["trace_distance"], m["fidelity"], m["helstrom_error"]
    assert 0.0 <= pe <= min(s["prior_h0"], s["prior_h1"]) + PE_INVARIANT_ATOL
    assert 1.0 - math.sqrt(f) <= d + FVG_ATOL and d <= math.sqrt(1.0 - f) + FVG_ATOL
    if s["prior_h0"] == s["prior_h1"]:
        assert abs(pe - (1.0 - d) / 2.0) <= PE_INVARIANT_ATOL
    if doc["roc"] is not None:
        points = [(pt["threshold"], pt["p_false_alarm"], pt["p_detection"]) for pt in doc["roc"]]
        assert [t for t, _, _ in points] == s["roc_thresholds"]
        for (_, fa, pd), (_, next_fa, next_pd) in zip(points, points[1:]):
            assert next_fa <= fa and next_pd <= pd
        for t, fa, pd in points:
            if t == 1.0:  # the equal-prior Helstrom test
                assert abs((fa + 1.0 - pd) / 2.0 - (1.0 - d) / 2.0) <= HELSTROM_POINT_ATOL
    mc = doc["monte_carlo"]
    assert (mc is None) == (s["trials"] == 0)
    if mc is not None:
        h0, h1 = mc["h0"], mc["h1"]
        assert (h0["trials"], h1["trials"]) == split_trials(s["prior_h0"], s["trials"])
        for outcome in h0, h1:
            assert outcome["decide_h0_count"] + outcome["decide_h1_count"] == outcome["trials"]
        assert mc["seed"] == s["seed"]
    link = doc["link_budget"]
    if link is not None and link["photon_energy_j"] is not None:
        assert link["photon_energy_j"] > 0.0
    assert scenario_of_echo(s) == ran


# Faults found by hand before this test existed stay as explicit examples: forty draws
# rarely put one edge value into the one key that reaches a given corner.
UNDERFLOWING_PHOTON_ENERGY = ("phase_rad = 1\nreflectivity = 0.5\nnoise_excitation = 0.1\n"
                              "link_budget.frequency_hz = 5e-324\n", {}, "structured", None)
NEGATIVE_ZERO_PHASE = ("phase_rad = -0\nreflectivity = 0.5\nnoise_excitation = 0.1\n", {},
                       "structured", None)


@BOUNDED
@given(command_lines())
@example(UNDERFLOWING_PHOTON_ENERGY)
@example(NEGATIVE_ZERO_PHASE)
def test_cli_main_keeps_its_contract(command_line):
    # Every run exits 0, 2 or 3, a failed one with one error line and no traceback, and
    # with a closed or failing stderr the same code and stdout. A run whose report cannot
    # go out exits 2; one that exits 0 wrote the same bytes to stdout and to --out, and
    # its structured report holds check_report's invariants.
    text, overrides, fmt, roc_out = command_line
    with tempfile.TemporaryDirectory() as tmp:
        targets = {"missing": os.path.join(tmp, "absent", "x"), "dir": tmp}
        scenario_path = os.path.join(tmp, "scenario.cfg")
        with open(scenario_path, "w", encoding="utf-8") as file:
            file.write(text)
        argv = ["run", scenario_path, "--format", fmt]
        for flag, value in overrides.items():
            argv += [flag, value]
        if roc_out is not None:
            argv += ["--roc-out", targets.get(roc_out, os.path.join(tmp, "roc.csv"))]
        code, report_text = run_main(argv, "buffer")
        for stderr_kind in "closed", "raises":
            assert run_main(argv, "buffer", stderr_kind) == (code, report_text)
        for stdout_kind in FAILING_STDOUTS:
            assert run_main(argv, stdout_kind)[0] == (code or 2)
        for out in "missing", "dir":
            assert run_main(argv + ["--out", targets[out]], "buffer") == (code or 2, "")
        out_path = os.path.join(tmp, "report.out")
        assert run_main(argv + ["--out", out_path], "buffer") == (code, "")
        if code != 0:
            return
        assert roc_out in (None, "file")
        with open(out_path, encoding="utf-8") as file:
            assert file.read() == report_text
        assert report_text.endswith("\n")
        if fmt == "structured":
            ran = parse_scenario(text)
            if overrides:
                ran = replace(ran, **{flag[2:]: int(value) for flag, value in overrides.items()})
            check_report(json.loads(report_text), ran)
