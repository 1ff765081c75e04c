"""Closed-form link budget: dBm levels, photon budget, thermal noise and EMI figures.

``LinkBudgetInputs`` is the one gate: each value it holds is a positive finite
float, and ``evaluate_link_budget`` computes every output it can from those
values without checking them again. The exact 2019 SI constants
h = 6.62607015e-34 J·s and k_B = 1.380649e-23 J/K are used, and every "log" in
a dB formula is log₁₀, consistent with the 1 mW dBm reference:

    power (dBm)              10·log₁₀(P / 1 mW)
    photon energy            E = h·f
    photon rate              P / (h·f)
    thermal occupancy        n̄ = 1 / (e^{h·f / k_B·T} − 1)
    SNR                      P_signal / P_noise
    shielding effectiveness  SE = 20·log₁₀(d / λ)
    isolation factor         I = N_ext / N_isolated
    stopband attenuation     SA = 20·log₁₀(A_stop / A_pass)

An output beyond the float range, or a photon energy that underflows to 0,
raises NumericalDomain. SE and SA are evaluated verbatim even in regimes where
the sign is physically questionable (d < λ gives negative "effectiveness",
A_stop < A_pass gives negative attenuation); the evaluator annotates those
regimes with warnings instead of altering the formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DegenerateInput, NumericalDomain, _require_positive


PLANCK_H = 6.62607015e-34    # J·s
BOLTZMANN_KB = 1.380649e-23  # J/K
MILLIWATT = 1e-3
SERIES_CROSSOVER_X = 1e-6   # below this, e^x − 1 cancels; use the Laurent series
OCCUPANCY_FLOOR = 1e-100    # occupancies below this are reported as exactly 0
_FLOOR_X = 230.3            # just above ln(1e100); e^x would dwarf the floor anyway
SATURATION_NBAR = 10.0      # above this the qubit noise map p = n̄/(1+n̄) saturates


def _ratio(num: float, den: float, what: str) -> float:
    """num / den; a quotient beyond the float range raises NumericalDomain,
    so no output is inf (which no JSON report can carry)."""
    ratio = num / den
    if ratio == math.inf:
        raise NumericalDomain(f"{what} ratio overflows the float range")
    return ratio


def _db20(num: float, den: float, what: str) -> float:
    """20·log₁₀(num / den); the ratio may neither overflow nor underflow to 0."""
    ratio = _ratio(num, den, what)
    if ratio == 0.0:
        raise NumericalDomain(f"{what} ratio underflows to 0")
    return 20.0 * math.log10(ratio)


def _occupancy_series(x: float) -> float:
    """Laurent series 1/x − 1/2 + x/12 of 1/(e^x − 1); relative truncation
    error is about x⁴/720, far below double roundoff for x < 1e-6."""
    return 1.0 / x - 0.5 + x / 12.0


def _occupancy_direct(x: float) -> float:
    return 1.0 / math.expm1(x)


def _occupancy(f: float, t: float) -> float:
    """Bose-Einstein mean photon number n̄ = 1/(e^{h·f/k_B·T} − 1) of a gated
    frequency and temperature.

    Evaluated via expm1, switching to the Laurent series below
    x = h·f/(k_B·T) = 1e-6 to avoid cancellation. Occupancies below 1e-100
    (a bath frozen for any practical purpose) are floored to exactly 0; one
    beyond the float range raises NumericalDomain.
    """
    kt = BOLTZMANN_KB * t
    if kt > 0.0:
        x = PLANCK_H * f / kt
    else:  # k_B·T underflows; scale the ratio the other way round
        x = PLANCK_H / BOLTZMANN_KB * (f / t)
    if x < SERIES_CROSSOVER_X:
        nbar = _occupancy_series(x) if x > 0.0 else math.inf
        if math.isinf(nbar):
            raise NumericalDomain(f"thermal occupancy overflows at h·f/(k_B·T) = {x!r}")
        return nbar
    if x > _FLOOR_X:
        return 0.0
    nbar = _occupancy_direct(x)
    return nbar if nbar >= OCCUPANCY_FLOOR else 0.0


def _excitation_of(nbar: float) -> float:
    """The qubit excitation p = n̄/(1 + n̄) in [0, 1) of an occupancy _occupancy made;
    it saturates toward 1 for n̄ ≫ 1, where a qubit cannot represent the bath."""
    return nbar / (1.0 + nbar)


@dataclass(frozen=True)
class LinkBudgetInputs:
    """Physical inputs of the link budget; every field is optional and, when
    given, must be a positive finite real, stored as float."""

    power_w: float | None = None
    frequency_hz: float | None = None
    temperature_k: float | None = None
    noise_power_w: float | None = None
    shield_thickness_m: float | None = None
    wavelength_m: float | None = None
    amplitude_stop: float | None = None
    amplitude_pass: float | None = None
    noise_ext: float | None = None
    noise_isolated: float | None = None

    def __post_init__(self):
        for name in _INPUT_FIELDS:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _require_positive(name, value))


_INPUT_FIELDS = tuple(spec.name for spec in fields(LinkBudgetInputs))


@dataclass(frozen=True)
class LinkBudgetResult:
    """Every output derivable from the inputs that were supplied; the rest
    stay None. ``warnings`` flags physically questionable regimes."""

    power_dbm: float | None = None
    noise_power_dbm: float | None = None
    photon_energy_j: float | None = None
    photon_rate_per_s: float | None = None
    thermal_occupancy: float | None = None
    noise_excitation: float | None = None
    snr: float | None = None
    shielding_effectiveness_db: float | None = None
    isolation_factor: float | None = None
    stopband_attenuation_db: float | None = None
    warnings: tuple[str, ...] = ()


def evaluate_link_budget(inputs: LinkBudgetInputs) -> LinkBudgetResult:
    """Compute every output whose inputs are present."""
    if not isinstance(inputs, LinkBudgetInputs):
        raise DegenerateInput(f"inputs must be LinkBudgetInputs, got {type(inputs).__name__}")
    i = inputs  # every value is gated: positive, finite and a float
    warnings: list[str] = []
    values: dict[str, float] = {}

    for name, watts in (("power_dbm", i.power_w), ("noise_power_dbm", i.noise_power_w)):
        if watts is not None:
            values[name] = 10.0 * math.log10(_ratio(watts, MILLIWATT, "power to 1 mW"))
    if i.frequency_hz is not None:
        energy = PLANCK_H * i.frequency_hz
        if energy == 0.0:
            raise NumericalDomain(f"photon energy at frequency {i.frequency_hz!r} underflows to 0")
        values["photon_energy_j"] = energy
        if i.power_w is not None:
            values["photon_rate_per_s"] = _ratio(i.power_w, energy, "power to photon energy")
    if i.frequency_hz is not None and i.temperature_k is not None:
        nbar = _occupancy(i.frequency_hz, i.temperature_k)
        values["thermal_occupancy"] = nbar
        values["noise_excitation"] = _excitation_of(nbar)
        if nbar > SATURATION_NBAR:
            warnings.append(
                f"thermal occupancy {nbar:.6g} far exceeds 1; the two-level noise model "
                f"saturates (excitation {values['noise_excitation']:.6g} is pinned near 1)"
            )
    if i.power_w is not None and i.noise_power_w is not None:
        values["snr"] = _ratio(i.power_w, i.noise_power_w, "signal to noise power")
    if i.shield_thickness_m is not None and i.wavelength_m is not None:
        values["shielding_effectiveness_db"] = _db20(
            i.shield_thickness_m, i.wavelength_m, "shield thickness to wavelength")
        if i.shield_thickness_m < i.wavelength_m:
            warnings.append(
                "shielding effectiveness is negative in the sub-wavelength regime "
                "(shield thickness below wavelength); formula reported verbatim"
            )
    if i.noise_ext is not None and i.noise_isolated is not None:
        values["isolation_factor"] = _ratio(i.noise_ext, i.noise_isolated,
                                            "external to isolated noise")
    if i.amplitude_stop is not None and i.amplitude_pass is not None:
        values["stopband_attenuation_db"] = _db20(
            i.amplitude_stop, i.amplitude_pass, "stopband to passband amplitude")
        if i.amplitude_stop < i.amplitude_pass:
            warnings.append(
                "stopband attenuation is negative (stopband amplitude below passband); "
                "sign convention reported verbatim"
            )
    return LinkBudgetResult(warnings=tuple(warnings), **values)
