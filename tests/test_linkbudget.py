import math
import re

import numpy as np
import pytest

from qiradar.errors import DegenerateInput, NumericalDomain
from qiradar.linkbudget import (
    BOLTZMANN_KB,
    MILLIWATT,
    PLANCK_H,
    LinkBudgetInputs,
    _excitation_of,
    evaluate_link_budget,
)

# Frozen reference: mpmath 50-digit evaluation of 1/(exp(h*1e10/(kB*290)) - 1)
# with h = 6.62607015e-34 and kB = 1.380649e-23 taken as exact.
OCCUPANCY_REF_10GHZ_290K = 603.76209248577703892140149893


def budget(**values):
    """The link budget of the given LinkBudgetInputs fields."""
    return evaluate_link_budget(LinkBudgetInputs(**values))


def thermal_occupancy(f, t):
    """The link budget's thermal occupancy n̄ at frequency f and temperature t."""
    return budget(frequency_hz=f, temperature_k=t).thermal_occupancy


class TestDbmConversions:
    def test_golden_values_are_exact(self):
        assert budget(power_w=1e-13).power_dbm == -100.0
        assert budget(power_w=1e-16).power_dbm == -130.0
        assert budget(noise_power_w=1e-3).noise_power_dbm == 0.0

    def test_round_trip(self):
        # The inverse, 1 mW · 10^(x/10), recovers the power.
        rng = np.random.default_rng(7)
        for _ in range(200):
            power = 10.0 ** rng.uniform(-18, 2)
            back = MILLIWATT * 10.0 ** (budget(power_w=power).power_dbm / 10.0)
            assert abs(back - power) <= 1e-12 * power

    def test_ten_db_steps(self):
        result = budget(power_w=1.0, noise_power_w=1e-6)
        assert (result.power_dbm, result.noise_power_dbm) == (30.0, -30.0)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(DegenerateInput, match="power_w must be positive"):
            LinkBudgetInputs(power_w=0.0)
        with pytest.raises(DegenerateInput, match="noise_power_w must be positive"):
            LinkBudgetInputs(noise_power_w=-1e-15)
        with pytest.raises(DegenerateInput, match="power_w must be finite"):
            LinkBudgetInputs(power_w=math.inf)


class TestPhotonBudget:
    def test_energy_at_10_ghz(self):
        value = budget(frequency_hz=1e10).photon_energy_j
        assert abs(value - 6.62607015e-24) <= 1e-12 * value

    def test_energy_scales_linearly(self):
        assert budget(frequency_hz=2e10).photon_energy_j == pytest.approx(
            2.0 * budget(frequency_hz=1e10).photon_energy_j, rel=1e-15)

    def test_rate_at_reference_point(self):
        value = budget(power_w=1e-16, frequency_hz=1e10).photon_rate_per_s
        assert abs(value - 15_091_901.79642152) <= 1e-9 * value
        # Rounded headline figure: about 1.5e7 photons per second.
        assert abs(value - 1.5e7) <= 0.0062 * 1.5e7

    def test_rate_times_energy_recovers_power(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            power = 10.0 ** rng.uniform(-18, -6)
            freq = 10.0 ** rng.uniform(6, 12)
            result = budget(power_w=power, frequency_hz=freq)
            assert result.photon_rate_per_s * result.photon_energy_j == pytest.approx(
                power, rel=1e-12)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(DegenerateInput, match="frequency_hz must be positive"):
            LinkBudgetInputs(frequency_hz=0.0)
        with pytest.raises(DegenerateInput, match="frequency_hz must be positive"):
            LinkBudgetInputs(power_w=1e-16, frequency_hz=-1e10)

    def test_underflowing_energy_raises_without_a_power(self):
        # h·f of a positive frequency rounds to 0, which is no photon energy to report.
        with pytest.raises(NumericalDomain,
                           match=r"^photon energy at frequency 5e-324 underflows to 0$"):
            budget(frequency_hz=5e-324)


class TestThermalOccupancy:
    def test_reference_point(self):
        value = thermal_occupancy(1e10, 290.0)
        assert abs(value - OCCUPANCY_REF_10GHZ_290K) <= 1e-6 * OCCUPANCY_REF_10GHZ_290K

    def test_unit_occupancy_temperature(self):
        # n̄ = 1 exactly when hf/(kB·T) = ln 2.
        temperature = PLANCK_H * 1e10 / (BOLTZMANN_KB * math.log(2.0))
        assert abs(thermal_occupancy(1e10, temperature) - 1.0) <= 1e-12

    def test_deep_floor_returns_zero(self):
        # Optical frequency at millikelvin: occupancy below 1e-100 floors at 0.
        assert thermal_occupancy(1e10, 1e-3) == 0.0

    def test_series_matches_direct_form_near_crossover(self):
        from qiradar.linkbudget import _occupancy_direct, _occupancy_series

        for x in (2e-6, 5e-6, 1e-5):
            assert abs(_occupancy_series(x) - _occupancy_direct(x)) <= 1e-10 * _occupancy_direct(x)

    def test_small_x_series_is_finite_and_large(self):
        value = thermal_occupancy(1.0, 290.0)
        assert math.isfinite(value)
        assert value > 1e12

    def test_monotone_in_temperature(self):
        values = [thermal_occupancy(1e10, t) for t in (4.0, 77.0, 290.0, 600.0)]
        assert values == sorted(values)
        assert all(v > 0 for v in values)

    def test_monotone_decreasing_in_frequency(self):
        values = [thermal_occupancy(f, 290.0) for f in (1e9, 1e10, 1e11, 1e12)]
        assert values == sorted(values, reverse=True)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(DegenerateInput, match="frequency_hz must be positive"):
            thermal_occupancy(0.0, 290.0)
        with pytest.raises(DegenerateInput, match="temperature_k must be positive"):
            thermal_occupancy(1e10, -4.0)


class TestOccupancyToExcitation:
    def test_reference_point(self):
        value = budget(frequency_hz=1e10, temperature_k=290.0).noise_excitation
        assert abs(value - 0.9983464572061889) <= 1e-9

    def test_limits(self):
        assert _excitation_of(0.0) == 0.0
        assert _excitation_of(1.0) == 0.5
        assert _excitation_of(1e12) == pytest.approx(1.0, abs=1e-11)
        assert budget(frequency_hz=1e10, temperature_k=1e-3).noise_excitation == 0.0

    def test_monotone(self):
        grid = [0.0, 0.1, 1.0, 10.0, 1e3]
        values = [_excitation_of(n) for n in grid]
        assert values == sorted(values)
        assert all(0.0 <= v < 1.0 for v in values)


class TestSnr:
    def test_reference_ratio(self):
        value = budget(power_w=1e-16, noise_power_w=1e-15).snr
        target = 0.1
        assert value == target or abs(value - target) <= math.ulp(target)

    def test_unit_and_double(self):
        assert budget(power_w=1e-15, noise_power_w=1e-15).snr == 1.0
        assert budget(power_w=2e-15, noise_power_w=1e-15).snr == 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DegenerateInput, match="power_w must be positive"):
            LinkBudgetInputs(power_w=0.0, noise_power_w=1e-15)
        with pytest.raises(DegenerateInput, match="noise_power_w must be positive"):
            LinkBudgetInputs(power_w=1e-16, noise_power_w=0.0)


class TestShieldingFigures:
    def test_shielding_effectiveness(self):
        def se(d, lam):
            return budget(shield_thickness_m=d, wavelength_m=lam).shielding_effectiveness_db

        assert se(0.03, 0.03) == 0.0
        assert se(0.3, 0.03) == pytest.approx(20.0, abs=1e-12)
        assert se(0.0003, 0.03) == pytest.approx(-40.0, abs=1e-12)

    def test_isolation_factor(self):
        def isolation(n_ext, n_isolated):
            return budget(noise_ext=n_ext, noise_isolated=n_isolated).isolation_factor

        assert isolation(5e-3, 2.5e-4) == 20.0
        assert isolation(1e-3, 1e-3) == 1.0
        assert isolation(1.0, 100.0) == pytest.approx(0.01, rel=1e-12)

    def test_stopband_attenuation(self):
        def sa(a_stop, a_pass):
            return budget(amplitude_stop=a_stop, amplitude_pass=a_pass).stopband_attenuation_db

        assert sa(10.0, 1.0) == 20.0
        assert sa(1.0, 1.0) == 0.0
        assert sa(0.01, 1.0) == -40.0

    def test_rejections(self):
        with pytest.raises(DegenerateInput, match="shield_thickness_m must be positive"):
            LinkBudgetInputs(shield_thickness_m=0.0, wavelength_m=0.03)
        with pytest.raises(DegenerateInput, match="noise_isolated must be positive"):
            LinkBudgetInputs(noise_ext=1e-3, noise_isolated=0.0)
        with pytest.raises(DegenerateInput, match="amplitude_stop must be positive"):
            LinkBudgetInputs(amplitude_stop=-10.0, amplitude_pass=1.0)


class TestLinkBudgetInputs:
    def test_all_fields_optional(self):
        inputs = LinkBudgetInputs()
        assert inputs.power_w is None

    def test_positive_when_present(self):
        with pytest.raises(DegenerateInput):
            LinkBudgetInputs(power_w=-1e-16)
        with pytest.raises(DegenerateInput):
            LinkBudgetInputs(frequency_hz=0.0)
        with pytest.raises(DegenerateInput):
            LinkBudgetInputs(temperature_k=math.inf)


class TestEvaluateLinkBudget:
    def test_full_chain(self):
        inputs = LinkBudgetInputs(
            power_w=1e-16,
            noise_power_w=1e-15,
            frequency_hz=1e10,
            temperature_k=290.0,
        )
        result = evaluate_link_budget(inputs)
        assert result.power_dbm == -130.0
        assert result.noise_power_dbm == -120.0
        assert result.snr == pytest.approx(0.1, rel=1e-12)
        assert result.photon_rate_per_s == pytest.approx(15_091_901.79642152, rel=1e-9)
        assert result.thermal_occupancy == pytest.approx(
            OCCUPANCY_REF_10GHZ_290K, rel=1e-6)
        assert result.noise_excitation == pytest.approx(0.9983464572061889, abs=1e-9)
        assert any("saturat" in w for w in result.warnings)

    def test_partial_inputs_fill_what_they_can(self):
        result = evaluate_link_budget(LinkBudgetInputs(power_w=1e-13))
        assert result.power_dbm == -100.0
        assert result.snr is None
        assert result.photon_rate_per_s is None
        assert result.thermal_occupancy is None

    def test_geometry_figures(self):
        inputs = LinkBudgetInputs(shield_thickness_m=0.3, wavelength_m=0.03,
                                  noise_ext=5e-3, noise_isolated=2.5e-4)
        result = evaluate_link_budget(inputs)
        assert result.shielding_effectiveness_db == pytest.approx(20.0, abs=1e-12)
        assert result.isolation_factor == 20.0
        assert result.warnings == ()

    def test_sub_wavelength_warning(self):
        result = evaluate_link_budget(
            LinkBudgetInputs(shield_thickness_m=0.003, wavelength_m=0.03))
        assert any("wavelength" in w for w in result.warnings)

    def test_no_saturation_warning_when_cold(self):
        result = evaluate_link_budget(LinkBudgetInputs(frequency_hz=1e12, temperature_k=4.0))
        assert result.thermal_occupancy is not None
        assert result.thermal_occupancy < 10.0
        assert not any("saturat" in w for w in result.warnings)

    def test_empty_inputs_produce_empty_result(self):
        result = evaluate_link_budget(LinkBudgetInputs())
        assert result.power_dbm is None
        assert result.warnings == ()

    @pytest.mark.parametrize("inputs", [None, {"power_w": 1.0}])
    def test_other_argument_types_rejected(self, inputs):
        with pytest.raises(DegenerateInput, match=f"LinkBudgetInputs, got {type(inputs).__name__}"):
            evaluate_link_budget(inputs)


def test_results_beyond_the_float_range_raise_numerical_domain():
    with pytest.raises(NumericalDomain, match="thermal occupancy overflows"):
        thermal_occupancy(1e-280, 1e300)  # h·f/(k_B·T) underflows to 0
    with pytest.raises(NumericalDomain, match="photon energy at frequency 5e-324 underflows"):
        budget(power_w=1.0, frequency_hz=5e-324)  # h·f underflows to 0
    with pytest.raises(NumericalDomain, match="shield thickness to wavelength ratio underflows"):
        budget(shield_thickness_m=5e-324, wavelength_m=1e300)
    with pytest.raises(NumericalDomain, match="stopband to passband amplitude ratio underflows"):
        budget(amplitude_stop=5e-324, amplitude_pass=1e300)
    assert thermal_occupancy(1.0, 5e-324) == 0.0  # k_B·T underflows: a frozen bath
    # Quotients of positive finite inputs that overflow to inf, which no JSON
    # report can carry.
    for values, what in (({"power_w": 1e306}, "power to 1 mW"),
                         ({"noise_power_w": 1e306}, "power to 1 mW"),
                         ({"power_w": 1e300, "frequency_hz": 1e10}, "power to photon energy"),
                         ({"power_w": 1e300, "noise_power_w": 1e-300}, "signal to noise power"),
                         ({"noise_ext": 1e300, "noise_isolated": 1e-300},
                          "external to isolated noise"),
                         ({"shield_thickness_m": 1e300, "wavelength_m": 1e-300},
                          "shield thickness to wavelength"),
                         ({"amplitude_stop": 1e300, "amplitude_pass": 1e-300},
                          "stopband to passband amplitude")):
        with pytest.raises(NumericalDomain, match=f"^{what} ratio overflows the float range$"):
            budget(**values)
    assert budget(power_w=1e300, noise_power_w=1e-8).snr == 1e308  # large but finite passes
