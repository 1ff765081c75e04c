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
* Every accepted Scenario's F and P_e, which the pipeline takes from the closed
  form, are the generic metrics of its states within their tolerances.
* A report moved by replace onto another scenario, given that scenario's D, is
  that scenario's fresh report, field for field and byte for byte.

Examples are derandomized and bounded so the suite stays fast and
reproducible. Trial counts are kept small only for run time; every other
field ranges over the whole float range.
"""

import json
import math
import struct
from dataclasses import fields, replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import GENERIC_ATOL, generic_fidelity_atol, unstopped_born_pair

from qiradar import metrics
from qiradar.channel import TargetParams, hypothesis_h0, hypothesis_h1
from qiradar.cli import run_scenario
from qiradar.closed_form import born_pair
from qiradar.errors import NumericalDomain, ParseError, ValidationError, clamp_unit
from qiradar.linkbudget import LinkBudgetInputs
from qiradar.report import ROC_CSV_HEADER, emit_report, report_to_dict, roc_csv
from qiradar.scenario import KNOWN_KEYS, Scenario, parse_scenario

BOUNDED = settings(max_examples=40, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])

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
    echo = json.loads(text)["scenario"]
    if echo["link_budget"] is not None:
        echo["link_budget"] = LinkBudgetInputs(**echo["link_budget"])
    if echo["roc_thresholds"] is not None:
        echo["roc_thresholds"] = tuple(echo["roc_thresholds"])
    replayed = Scenario(**echo)
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
def test_pipeline_metrics_are_the_generic_ones(values):
    # The generic path keeps checking the closed-form kernel on every accepted scenario.
    values.pop("link_budget", None)
    try:
        scenario = Scenario(**values)
    except ValidationError:
        return
    report = run_scenario(scenario)
    eta, p = scenario.reflectivity, scenario.noise_excitation
    rho0 = hypothesis_h0(p)
    rho1 = hypothesis_h1(TargetParams(report.phase_effective_rad, eta, p))
    priors = (scenario.prior_h0, scenario.prior_h1)
    assert abs(report.fidelity - metrics.fidelity(rho0, rho1)) <= generic_fidelity_atol(eta, p)
    assert abs(report.helstrom_error - metrics.helstrom_error(rho0, rho1, priors)) <= GENERIC_ATOL


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


def ieee_bytes(points) -> bytes:
    return struct.pack(f"{3 * len(points)}d", *(x for point in points for x in point))
