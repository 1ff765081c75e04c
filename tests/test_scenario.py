import math
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qiradar.channel import TargetParams, hypothesis_h0, hypothesis_h1
from qiradar.detector import born_pair, roc_sweep
from qiradar.errors import (MAX_SEED, MAX_TRIALS, DegenerateInput, ParseError, ValidationError,
                            _check_integer, _check_seed, check_priors)
from qiradar.cli import run_scenario
from qiradar.linkbudget import LinkBudgetInputs, evaluate_link_budget
from qiradar.montecarlo import draw_counts
from qiradar import linkbudget
from qiradar import scenario as scenario_module
from qiradar.scenario import KNOWN_KEYS, Scenario, parse_scenario

BASE = (
    "phase_rad = 3.141592653589793\n"
    "reflectivity = 0.5\n"
    "noise_excitation = 0.25\n"
)


def parse_with(extra: str = ""):
    return parse_scenario(BASE + extra)


class TestHappyPath:
    def test_minimal_document_defaults(self):
        scenario = parse_with()
        assert scenario.phase_rad == 3.141592653589793
        assert scenario.reflectivity == 0.5
        assert scenario.noise_excitation == 0.25
        assert scenario.frequency_hz is None
        assert scenario.temperature_k is None
        assert scenario.env_phase_rad == 0.0
        assert (scenario.prior_h0, scenario.prior_h1) == (0.5, 0.5)
        assert scenario.trials == 0
        assert scenario.seed == 0
        assert scenario.roc_thresholds is None
        assert scenario.link_budget is None

    def test_colon_separator(self):
        scenario = parse_scenario(
            "phase_rad: 1.0\nreflectivity: 0.25\nnoise_excitation: 0.1\n"
        )
        assert scenario.phase_rad == 1.0
        assert scenario.reflectivity == 0.25

    def test_comments_and_blank_lines_ignored(self):
        scenario = parse_scenario(
            "# header comment\n"
            "\n"
            "phase_rad = 2.0\n"
            "   # indented comment\n"
            "reflectivity = 1.0\n"
            "\n"
            "noise_excitation = 0\n"
        )
        assert scenario.reflectivity == 1.0
        assert scenario.noise_excitation == 0.0

    def test_all_optional_fields(self):
        scenario = parse_with(
            "env_phase_rad = 0.75\n"
            "prior_h0 = 0.3\n"
            "prior_h1 = 0.7\n"
            "trials = 5000\n"
            "seed = 42\n"
            "roc_thresholds = 0, 0.5, 1, 2\n"
            "link_budget.power_w = 1e-16\n"
            "link_budget.frequency_hz = 1e10\n"
        )
        assert scenario.env_phase_rad == 0.75
        assert (scenario.prior_h0, scenario.prior_h1) == (0.3, 0.7)
        assert scenario.trials == 5000
        assert scenario.seed == 42
        assert scenario.roc_thresholds == (0.0, 0.5, 1.0, 2.0)
        assert scenario.link_budget.power_w == 1e-16
        assert scenario.link_budget.frequency_hz == 1e10
        assert scenario.link_budget.temperature_k is None

    def test_repeated_thresholds_allowed(self):
        scenario = parse_with("roc_thresholds = 0, 1, 1, 2\n")
        assert scenario.roc_thresholds == (0.0, 1.0, 1.0, 2.0)

    def test_derived_noise_from_thermal_pair(self):
        scenario = parse_scenario(
            "phase_rad = 0.5\n"
            "reflectivity = 0.6\n"
            "frequency_hz = 1e10\n"
            "temperature_k = 290\n"
        )
        assert scenario.frequency_hz == 1e10
        assert scenario.temperature_k == 290.0
        assert abs(scenario.noise_excitation - 0.9983464572061889) <= 1e-9

    def test_max_seed_accepted(self):
        scenario = parse_with(f"seed = {2**64 - 1}\n")
        assert scenario.seed == 2**64 - 1


class TestParseErrors:
    def test_unknown_key_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_with("bogosity = 3\n")
        assert err.value.line == 4
        assert "bogosity" in str(err.value)

    def test_duplicate_key_reports_second_line(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("phase_rad = 1\nreflectivity = 0.5\nphase_rad = 2\n")
        assert err.value.line == 3

    def test_missing_separator(self):
        with pytest.raises(ParseError) as err:
            parse_with("just some words\n")
        assert err.value.line == 4

    def test_missing_value(self):
        with pytest.raises(ParseError):
            parse_with("trials =\n")

    def test_missing_key(self):
        with pytest.raises(ParseError):
            parse_with("= 5\n")

    def test_non_numeric_float(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("phase_rad = fast\nreflectivity = 0.5\nnoise_excitation = 0\n")
        assert err.value.line == 1

    def test_non_integer_trials(self):
        with pytest.raises(ParseError):
            parse_with("trials = 2.5\n")

    def test_empty_list_entry(self):
        with pytest.raises(ParseError, match="line 4: empty entry in list for 'roc_thresholds'"):
            parse_with("roc_thresholds = 0,,1\n")

    @pytest.mark.parametrize("value, message", [
        ("0, 1,", "line 4: empty entry in list for 'roc_thresholds'"),
        ("0, fast, 1", "line 4: value for 'roc_thresholds' is not a number: 'fast'"),
        ("0, 1 2", "line 4: value for 'roc_thresholds' is not a number: '1 2'"),
    ])
    def test_threshold_list_errors_name_the_entry(self, value, message):
        with pytest.raises(ParseError) as err:
            parse_with(f"roc_thresholds = {value}\n")
        assert str(err.value) == message and err.value.line == 4

    def test_threshold_list_tokens_are_stripped_floats(self):
        assert parse_with("roc_thresholds = 0 ,\t1.5,  2e0 , 1_0\n").roc_thresholds == (
            0.0, 1.5, 2.0, 10.0)

    def test_unknown_link_budget_subkey(self):
        with pytest.raises(ParseError):
            parse_with("link_budget.voltage = 3\n")


class TestValidationErrors:
    def test_phase_required(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario("reflectivity = 0.5\nnoise_excitation = 0\n")
        assert err.value.field == "phase_rad"

    def test_reflectivity_required(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario("phase_rad = 1\nnoise_excitation = 0\n")
        assert err.value.field == "reflectivity"

    def test_reflectivity_range(self):
        with pytest.raises(ValidationError):
            parse_scenario("phase_rad = 1\nreflectivity = 1.5\nnoise_excitation = 0\n")

    def test_noise_specification_is_exclusive(self):
        with pytest.raises(ValidationError) as err:
            parse_with("frequency_hz = 1e10\ntemperature_k = 290\n")
        assert err.value.field == "noise_excitation"

    def test_noise_specification_required(self):
        with pytest.raises(ValidationError):
            parse_scenario("phase_rad = 1\nreflectivity = 0.5\n")

    def test_half_a_thermal_pair_rejected(self):
        with pytest.raises(ValidationError):
            parse_scenario("phase_rad = 1\nreflectivity = 0.5\nfrequency_hz = 1e10\n")

    def test_noise_excitation_range(self):
        with pytest.raises(ValidationError):
            parse_scenario("phase_rad = 1\nreflectivity = 0.5\nnoise_excitation = 1.0\n")

    def test_nonfinite_phase(self):
        with pytest.raises(ValidationError):
            parse_scenario("phase_rad = inf\nreflectivity = 0.5\nnoise_excitation = 0\n")

    def test_lone_prior_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_with("prior_h0 = 0.4\n")
        assert err.value.field == "prior_h0"

    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            parse_with("prior_h0 = 0.4\nprior_h1 = 0.7\n")

    def test_negative_trials(self):
        with pytest.raises(ValidationError) as err:
            parse_with("trials = -1\n")
        assert err.value.field == "trials"

    def test_seed_range(self):
        with pytest.raises(ValidationError):
            parse_with("seed = -1\n")
        with pytest.raises(ValidationError):
            parse_with(f"seed = {2**64}\n")

    def test_descending_thresholds(self):
        with pytest.raises(ValidationError):
            parse_with("roc_thresholds = 2, 1, 0\n")

    def test_negative_threshold(self):
        with pytest.raises(ValidationError):
            parse_with("roc_thresholds = -1, 0, 1\n")

    def test_nonpositive_link_value_names_dotted_key(self):
        with pytest.raises(ValidationError) as err:
            parse_with("link_budget.power_w = 0\n")
        assert err.value.field == "link_budget.power_w"

    def test_nonpositive_frequency(self):
        with pytest.raises(ValidationError):
            parse_scenario(
                "phase_rad = 1\nreflectivity = 0.5\nfrequency_hz = 0\ntemperature_k = 290\n"
            )


MALFORMED_DOCUMENTS = [
    "",
    "phase_rad\n",
    "phase_rad = \n",
    "= 0.5\n",
    "phase_rad = 1 = 2\nreflectivity = 0.5\nnoise_excitation = 0\n",
    "phase_rad = nan\nreflectivity = 0.5\nnoise_excitation = 0\n",
    "phase_rad = 1\nreflectivity = maybe\nnoise_excitation = 0\n",
    "phase_rad = 1\nreflectivity = 0.5\nnoise_excitation = -0.1\n",
    "phase_rad = 1\nreflectivity = 0.5\nnoise_excitation = 0\ntrials = 1e4\n",
    "phase_rad = 1\nreflectivity = 0.5\nnoise_excitation = 0\nseed = 0x10\n",
    "phase_rad = 1\nreflectivity = 0.5\nnoise_excitation = 0\nroc_thresholds = ,\n",
    "phase_rad = 1\nreflectivity = 0.5\nnoise_excitation = 0\nroc_thresholds = a, b\n",
    "phase_rad = 1\nreflectivity = 0.5\nnoise_excitation = 0\nlink_budget. = 1\n",
    "phase_rad = 1\nreflectivity = 0.5\nnoise_excitation = 0\nlink_budget.power_w = -1\n",
    "PHASE_RAD = 1\nreflectivity = 0.5\nnoise_excitation = 0\n",
    "phase_rad = 1\nreflectivity = 0.5\nnoise_excitation = 0\nenv_phase_rad = -inf\n",
]


@pytest.mark.parametrize("document", MALFORMED_DOCUMENTS)
def test_malformed_documents_raise_typed_errors(document):
    with pytest.raises((ParseError, ValidationError)):
        parse_scenario(document)


@pytest.mark.parametrize("text, kind", [(None, "NoneType"), (b"phase_rad = 1", "bytes"),
                                        (["phase_rad = 1"], "list")])
def test_parse_scenario_rejects_what_is_not_text(text, kind):
    with pytest.raises(DegenerateInput, match=f"^text must be a str, got {kind}$"):
        parse_scenario(text)


def test_known_keys_cover_grammar():
    assert "phase_rad" in KNOWN_KEYS
    assert "link_budget.power_w" in KNOWN_KEYS
    assert "link_budget.temperature_k" in KNOWN_KEYS
    assert not any(key.startswith("link_budget..") for key in KNOWN_KEYS)


def test_known_keys_are_the_scenario_fields():
    scalars = {f.name for f in fields(Scenario)} - {"link_budget"}
    dotted = {"link_budget." + f.name for f in fields(LinkBudgetInputs)}
    assert KNOWN_KEYS == scalars | dotted
    assert len(KNOWN_KEYS) == 21  # 11 scenario fields and 10 link-budget inputs


def test_value_may_contain_a_separator():
    # The first separator splits the line: "phase_rad: 1=2" is the key
    # phase_rad with the value "1=2", not the key "phase_rad: 1".
    with pytest.raises(ParseError) as err:
        parse_scenario("phase_rad: 1=2\nreflectivity = 0.5\nnoise_excitation = 0\n")
    assert err.value.line == 1
    assert "'phase_rad' is not a number" in str(err.value)


THERMAL_DOC = "phase_rad = 1\nreflectivity = 0.5\nfrequency_hz = 1e10\ntemperature_k = 290\n"
LINK_DOC = ("link_budget.power_w = 1e-16\nlink_budget.noise_power_w = 1e-15\n"
            "link_budget.frequency_hz = 1e10\n")


TEN_KEY_DOC = BASE + "".join(f"link_budget.{spec.name} = 0.5\n"
                             for spec in fields(LinkBudgetInputs))


@pytest.mark.parametrize("document, gates", [(BASE + LINK_DOC, 3), (THERMAL_DOC, 2),
                                             (THERMAL_DOC + LINK_DOC, 5), (TEN_KEY_DOC, 10)],
                         ids=["link", "thermal", "both", "ten-keys"])
def test_each_positive_value_passes_one_gate(monkeypatch, document, gates):
    # Parse and run together: the evaluator computes from the values LinkBudgetInputs gated.
    calls = []
    for module in (linkbudget, scenario_module):
        def counted(name, value, check=module._require_positive):
            calls.append(name)
            return check(name, value)
        monkeypatch.setattr(module, "_require_positive", counted)
    run_scenario(parse_scenario(document))
    assert len(calls) == gates


@pytest.mark.parametrize("document, field, message", [
    (THERMAL_DOC.replace("1e10", "0"), "frequency_hz", "frequency_hz must be positive, got 0.0"),
    (THERMAL_DOC.replace("290", "-1"), "temperature_k", "temperature_k must be positive, got -1.0"),
    (THERMAL_DOC.replace("1e10", "inf").replace("290", "0"), "frequency_hz",
     "frequency_hz must be finite, got inf"),
    # LinkBudgetInputs gates power_w first; the document's keys are checked in sorted order.
    (BASE + "link_budget.power_w = 0\nlink_budget.amplitude_pass = -2\n",
     "link_budget.amplitude_pass", "amplitude_pass must be positive, got -2.0"),
])
def test_a_rejected_positive_value_names_its_field(document, field, message):
    with pytest.raises(ValidationError) as err:
        parse_scenario(document)
    assert (err.value.field, str(err.value)) == (field, message)


def test_thermal_inputs_are_stored_as_floats():
    scenario = Scenario(phase_rad=1, reflectivity=0.5, frequency_hz=10**10,
                        temperature_k=Fraction(580, 2))
    assert (type(scenario.frequency_hz), type(scenario.temperature_k)) == (float, float)
    assert scenario == parse_scenario(THERMAL_DOC)


def test_trials_above_maximum_rejected():
    assert parse_with(f"trials = {MAX_TRIALS}\n").trials == MAX_TRIALS
    with pytest.raises(ValidationError) as err:
        parse_with("trials = 10000000000000\n")
    assert err.value.field == "trials"


DIRECT = {"phase_rad": 1.0, "reflectivity": 0.5, "noise_excitation": 0.25}
THERMAL = {"frequency_hz": 1e10, "temperature_k": 290.0}


class TestDirectConstruction:
    """Scenario validates itself, whether or not it came through the parser."""

    @pytest.mark.parametrize("fields, field", [
        ({"trials": -5}, "trials"),
        ({"trials": MAX_TRIALS + 1}, "trials"),
        ({"roc_thresholds": (2.0, 1.0, 0.0)}, "roc_thresholds"),
        ({"roc_thresholds": (-1.0, 0.0)}, "roc_thresholds"),
        ({"roc_thresholds": ()}, "roc_thresholds"),
        ({"noise_excitation": 0.3, **THERMAL}, "noise_excitation"),
        ({"noise_excitation": None, "frequency_hz": 1e10}, "noise_excitation"),
        ({"noise_excitation": None, "frequency_hz": 1e10, "temperature_k": 0.0},
         "temperature_k"),
        ({"reflectivity": 2}, "reflectivity"),
        ({"reflectivity": None}, "reflectivity"),
        ({"prior_h0": 0.9, "prior_h1": 0.9}, "prior_h0"),
        ({"prior_h0": 0.4}, "prior_h0"),
        ({"seed": -1}, "seed"),
        ({"seed": 2**64}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"phase_rad": math.nan}, "phase_rad"),
        ({"phase_rad": "1.0"}, "phase_rad"),
        ({"env_phase_rad": 10**400}, "env_phase_rad"),
        ({"phase_rad": -1e308, "env_phase_rad": 1e308}, "env_phase_rad"),
        ({"link_budget": {"power_w": 1e-16}}, "link_budget"),
    ])
    def test_invalid_fields_rejected(self, fields, field):
        with pytest.raises(ValidationError) as err:
            Scenario(**{**DIRECT, **fields})
        assert err.value.field == field

    @pytest.mark.parametrize("thresholds", [5, "0.5", np.array(0.5)], ids=["int", "str", "0-d"])
    def test_thresholds_that_are_not_a_list_rejected(self, thresholds):
        with pytest.raises(ValidationError, match="list of numbers") as err:
            Scenario(**DIRECT, roc_thresholds=thresholds)
        assert err.value.field == "roc_thresholds"

    def test_thresholds_keep_their_bits(self):
        # 1e308 + 1e308 overflows, so this list is gated entry by entry; -0.0 keeps its sign.
        thresholds = Scenario(**DIRECT, roc_thresholds=[-0.0, 1e308, 1e308]).roc_thresholds
        assert thresholds == (0.0, 1e308, 1e308) and math.copysign(1.0, thresholds[0]) == -1.0

    def test_values_are_normalized(self):
        scenario = Scenario(phase_rad=1, reflectivity=1, noise_excitation=0,
                            roc_thresholds=[0, 1], prior_h0=1, prior_h1=0)
        assert scenario == Scenario(1.0, 1.0, 0.0, prior_h0=1.0, prior_h1=0.0,
                                    roc_thresholds=(0.0, 1.0))
        assert isinstance(scenario.phase_rad, float)
        assert scenario.roc_thresholds == (0.0, 1.0)

    def test_thermal_pair_derives_noise(self):
        scenario = Scenario(phase_rad=0.5, reflectivity=0.6, **THERMAL)
        assert scenario == parse_scenario(
            "phase_rad = 0.5\nreflectivity = 0.6\nfrequency_hz = 1e10\ntemperature_k = 290\n"
        )
        assert abs(scenario.thermal_occupancy - 603.7620924857771) <= 1e-9
        assert Scenario(**DIRECT).thermal_occupancy is None

    def test_thermal_occupancy_follows_replace(self):
        thermal = Scenario(phase_rad=0.5, reflectivity=0.6, **THERMAL)
        colder = replace(thermal, temperature_k=4.0, noise_excitation=None)
        for scenario in colder, thermal:
            link = LinkBudgetInputs(frequency_hz=1e10, temperature_k=scenario.temperature_k)
            assert scenario.thermal_occupancy == evaluate_link_budget(link).thermal_occupancy
        direct = replace(thermal, frequency_hz=None, temperature_k=None, noise_excitation=0.25)
        assert direct.thermal_occupancy is None

    @pytest.mark.parametrize("frequency_hz, temperature_k", [(5e-324, 1e10), (1.0, 5e6)],
                             ids=["occupancy-overflows", "excitation-rounds-to-1"])
    def test_a_saturated_thermal_pair_is_rejected(self, frequency_hz, temperature_k):
        with pytest.raises(ValidationError) as err:
            Scenario(**{**DIRECT, "noise_excitation": None, "frequency_hz": frequency_hz,
                        "temperature_k": temperature_k})
        assert err.value.field == "temperature_k"
        assert str(err.value) == ("thermal occupancy at frequency_hz/temperature_k is too large "
                                  "for the two-level noise model (derived excitation rounds to 1)")

    def test_replace_revalidates(self):
        parsed = parse_with("trials = 10\n")
        assert replace(parsed, seed=7).seed == 7
        with pytest.raises(ValidationError) as err:
            replace(parsed, seed=-1)
        assert err.value.field == "seed"
        with pytest.raises(ValidationError):
            replace(parsed, roc_thresholds=(1.0, 0.5))

    def test_replace_of_a_thermal_scenario_passes(self):
        thermal = parse_scenario(
            "phase_rad = 0.5\nreflectivity = 0.6\nfrequency_hz = 1e10\ntemperature_k = 290\n"
        )
        moved = replace(thermal, seed=3, trials=100)
        assert moved.noise_excitation == thermal.noise_excitation
        with pytest.raises(ValidationError) as err:
            replace(thermal, temperature_k=4.0)
        assert err.value.field == "noise_excitation"

    def test_link_budget_inputs_accepted(self):
        inputs = LinkBudgetInputs(power_w=1e-16)
        assert Scenario(**DIRECT, link_budget=inputs).link_budget is inputs


class _Int(int):  # an int subclass, which the integer gate's fast path leaves out
    pass


# Each range rule lives in its domain module; Scenario reports the domain
# check's own text under the field's name.
DOMAIN_CHECKS = {
    "reflectivity": lambda v: TargetParams(0.0, v, 0.0),
    "noise_excitation": lambda v: TargetParams(0.0, 0.5, v),
    "frequency_hz": lambda v: LinkBudgetInputs(frequency_hz=v),
    "temperature_k": lambda v: LinkBudgetInputs(temperature_k=v),
    "trials": lambda v: _check_integer("trials", v, 0, MAX_TRIALS),
    "seed": _check_seed,
    "link_budget.noise_power_w": lambda v: LinkBudgetInputs(noise_power_w=v),
}


@pytest.mark.parametrize("field, value", [
    ("reflectivity", 1 + 2**-52), ("noise_excitation", 1.0),
    ("frequency_hz", 0.0), ("temperature_k", -1.0),
    ("trials", MAX_TRIALS + 1), ("trials", 1.5), ("seed", 2**64),
    ("link_budget.noise_power_w", 0.0),
    ("trials", -1), ("seed", -1), ("trials", np.int64(MAX_TRIALS + 1)), ("seed", _Int(2**64)),
])
def test_scenario_reports_the_domain_check(field, value):
    with pytest.raises(DegenerateInput) as domain:
        DOMAIN_CHECKS[field](value)
    with pytest.raises(ValidationError) as err:
        if field.startswith("link_budget."):
            parse_with(f"{field} = {value}\n")
        elif field in THERMAL:
            Scenario(**{**DIRECT, "noise_excitation": None, **THERMAL, field: value})
        else:
            Scenario(**{**DIRECT, field: value})
    assert err.value.field == field
    assert str(err.value) == str(domain.value)


@pytest.mark.parametrize("field, value", [
    ("reflectivity", 0), ("reflectivity", 1), ("noise_excitation", 0),
    ("trials", 0), ("trials", MAX_TRIALS), ("seed", 2**64 - 1),
])
def test_range_boundaries_build(field, value):
    assert getattr(Scenario(**{**DIRECT, field: value}), field) == value


# Every library entry point takes its numbers through the two gates in
# errors, and the Scenario field that feeds it reports the library's text
# under the field's name.
R0 = hypothesis_h0(0.1)
R1 = hypothesis_h1(TargetParams(1.0, 0.5, 0.1))
NUMBER_ENTRY_POINTS = {  # name -> (call with one number, matching Scenario field or None)
    "TargetParams.phase_phi": (lambda v: TargetParams(v, 0.5, 0.1), "phase_rad"),
    # run_scenario gives TargetParams phase_rad - env_phase_rad, so its gate checks both fields.
    "TargetParams.phase_phi[env_phase_rad]": (lambda v: TargetParams(v, 0.5, 0.1), "env_phase_rad"),
    "TargetParams.reflectivity_eta": (lambda v: TargetParams(0.0, v, 0.1), "reflectivity"),
    "TargetParams.noise_excitation_p": (lambda v: TargetParams(0.0, 0.5, v), "noise_excitation"),
    # Every link-budget value, of which the thermal pair is also a Scenario field.
    **{f"LinkBudgetInputs.{name}": (lambda v, name=name: LinkBudgetInputs(**{name: v}),
                                    name if name in THERMAL else None)
       for name in (spec.name for spec in fields(LinkBudgetInputs))},
    "check_priors[0]": (lambda v: check_priors((v, 0.0)), "prior_h0"),
    "check_priors[1]": (lambda v: check_priors((0.0, v)), "prior_h1"),
    "roc_sweep": (lambda v: roc_sweep(R0, R1, [v]), "roc_thresholds"),
    "born_pair.w0": (lambda v: born_pair(R0, R1, v, 1.0), None),
    "born_pair.w1": (lambda v: born_pair(R0, R1, 0.5, v), None),
    # The H0 state and the Monte Carlo draw take their numbers straight from a caller. As a
    # TrialOutcome no longer checks its fields, draw_counts' gates are the only ones its
    # counts, trials and seed pass.
    "hypothesis_h0": (hypothesis_h0, "noise_excitation"),
    "draw_counts.born[0]": (lambda v: draw_counts((v, 0.5), 0.5, 1, 0), None),
    "draw_counts.born[1]": (lambda v: draw_counts((0.5, v), 0.5, 1, 0), None),
    "draw_counts.prior_h0": (lambda v: draw_counts((0.5, 0.5), v, 1, 0), None),
    "draw_counts.trials": (lambda v: draw_counts((0.5, 0.5), 0.5, v, 0), None),
    "draw_counts.seed": (lambda v: draw_counts((0.5, 0.5), 0.5, 1, v), "seed"),
}
INTEGER_ENTRY_POINTS = {"draw_counts.seed", "draw_counts.trials"}
REAL_ENTRY_POINTS = [name for name in NUMBER_ENTRY_POINTS if name not in INTEGER_ENTRY_POINTS]
NOT_NUMBERS = {"str": "0.5", "bytes": b"1", "bool": True, "False": False,
               "Decimal": Decimal("0.5"), "None": None, "nan": math.nan, "inf": math.inf,
               "10**400": 10**400}
# For these fields None means "not given", which has rules of its own.
OPTIONAL_OR_REQUIRED = {"phase_rad", "reflectivity", "noise_excitation", "frequency_hz",
                        "temperature_k", "prior_h0", "prior_h1"}


def scenario_with(field, value):
    base = dict(DIRECT)
    if field in THERMAL:
        base.update(noise_excitation=None, **THERMAL)
    elif field.startswith("prior_"):
        base.update(prior_h0=0.0, prior_h1=0.0)
    base[field] = (value,) if field == "roc_thresholds" else value
    return Scenario(**base)


@pytest.mark.parametrize("kind", NOT_NUMBERS)
@pytest.mark.parametrize("entry", NUMBER_ENTRY_POINTS)
def test_every_entry_point_rejects_what_scenario_rejects(entry, kind):
    call, field = NUMBER_ENTRY_POINTS[entry]
    value = NOT_NUMBERS[kind]
    if value is None and entry.startswith("LinkBudgetInputs."):
        assert call(value) == LinkBudgetInputs()  # None leaves an input unset
        return
    with pytest.raises(DegenerateInput) as library:
        call(value)
    if field is None or (value is None and field in OPTIONAL_OR_REQUIRED):
        return
    with pytest.raises(ValidationError) as err:
        scenario_with(field, value)
    assert err.value.field == field
    assert str(err.value) == str(library.value)


@pytest.mark.parametrize("real", [int, Fraction, np.float32, np.int64],
                         ids=["int", "Fraction", "float32", "int64"])
@pytest.mark.parametrize("entry", REAL_ENTRY_POINTS)
def test_every_entry_point_accepts_reals(entry, real):
    call, field = NUMBER_ENTRY_POINTS[entry]
    number = 0 if field == "noise_excitation" else 1  # each entry point's domain holds it
    call(real(number))
    if field is not None:
        stored = getattr(scenario_with(field, real(number)), field)
        if field == "roc_thresholds":
            stored, = stored
        assert stored == number and type(stored) is float


@pytest.mark.parametrize("value", [1, np.int64(1), 0, MAX_SEED, _Int(1), _Int(MAX_SEED)],
                         ids=["int", "int64", "low", "high", "int-subclass", "int-subclass-high"])
def test_integer_gate_accepts_integers(value):
    NUMBER_ENTRY_POINTS["draw_counts.seed"][0](value)
    seed = scenario_with("seed", value).seed
    assert seed == value and type(seed) is int
    with pytest.raises(DegenerateInput):
        _check_seed(Fraction(value))
