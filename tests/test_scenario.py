import math
from dataclasses import fields, replace

import pytest

from qiradar.errors import ParseError, ValidationError
from qiradar.linkbudget import LinkBudgetInputs
from qiradar.scenario import KNOWN_KEYS, MAX_TRIALS, Scenario, parse_scenario

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
        with pytest.raises(ParseError):
            parse_with("roc_thresholds = 0,,1\n")

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
