"""Scenario documents: a flat key-value grammar and its validation.

Grammar, one entry per line:

    # full-line comments and blank lines are ignored
    key = value        (or "key: value"; the first separator splits)
    link_budget.power_w = 1e-16

Keys:

    phase_rad          required, finite real, radians
    reflectivity       required, in [0, 1]
    noise_excitation   in [0, 1); or give the pair below instead
    frequency_hz       > 0 )  both together derive noise_excitation from the
    temperature_k      > 0 )  thermal occupancy at that frequency/temperature
    env_phase_rad      finite real, default 0 (known environmental phase,
                       subtracted from phase_rad before detection)
    prior_h0           both or neither; nonnegative, must sum to 1
    prior_h1           (default 0.5 / 0.5)
    trials             integer in [0, MAX_TRIALS], default 0 (analytic only)
    seed               unsigned 64-bit integer, default 0
    roc_thresholds     comma-separated, each >= 0, non-descending
    link_budget.*      optional group, dotted keys named after
                       LinkBudgetInputs fields, each > 0

parse_scenario only turns text into typed values: unknown or duplicate keys
and values that are not numbers raise ParseError with the line number.
Scenario applies every range and consistency rule, reusing the number gate in
errors that the library applies to each field, so a parsed and a directly built
Scenario pass the same checks; a violation raises ValidationError naming the
field.
"""

from __future__ import annotations

import math
import operator
from contextlib import suppress
from dataclasses import dataclass, fields

from .errors import (MAX_TRIALS, DegenerateInput, NumericalDomain, ParseError, ValidationError,
                     _check_integer, _check_seed, _check_thresholds, _excitation, _real,
                     _reflectivity, _require_positive, check_priors)
from .linkbudget import _INPUT_FIELDS, LinkBudgetInputs, _excitation_of, _occupancy

_LINK_PREFIX = "link_budget."
_LINK_KEYS = frozenset(_LINK_PREFIX + name for name in _INPUT_FIELDS)
_INT_KEYS = frozenset({"trials", "seed"})

_set = object.__setattr__  # fills in the attributes of a frozen Scenario


def _require(ok: bool, field: str, message: str, *args) -> None:
    """Raise ValidationError(message.format(*args)) naming ``field`` unless ok."""
    if not ok:
        raise ValidationError(message.format(*args), field=field)


@dataclass(frozen=True)
class Scenario:
    """One detection scenario, validated on construction.

    Built directly, through ``dataclasses.replace`` or by parse_scenario, it
    is held to the same rules. Numbers are stored as float (int for trials
    and seed), roc_thresholds as a tuple. With the frequency_hz/temperature_k
    pair, noise_excitation is derived, and a given value must equal it. The
    priors are given both or neither (then 0.5 each). ``thermal_occupancy``,
    which is not a field, holds the mean photon number n̄ at
    frequency_hz/temperature_k, or None when noise_excitation was given directly.
    """

    phase_rad: float
    reflectivity: float
    noise_excitation: float | None = None
    frequency_hz: float | None = None
    temperature_k: float | None = None
    env_phase_rad: float = 0.0
    prior_h0: float | None = None
    prior_h1: float | None = None
    trials: int = 0
    seed: int = 0
    roc_thresholds: tuple[float, ...] | None = None
    link_budget: LinkBudgetInputs | None = None

    def __post_init__(self):
        for name in ("phase_rad", "reflectivity"):
            _require(getattr(self, name) is not None, name, "{} is required", name)
        field = "phase_rad"  # the field being gated, which names a DegenerateInput of its gate
        try:
            _set(self, field, _real("phase", self.phase_rad))
            field = "reflectivity"
            _set(self, field, _reflectivity(self.reflectivity))
            field = "noise_excitation"
            given, nbar = self.noise_excitation, None
            if self.frequency_hz is None and self.temperature_k is None:
                _require(given is not None, field, "either noise_excitation or both frequency_hz "
                         "and temperature_k are required")
                _set(self, field, _excitation(given))
            else:
                _require(self.frequency_hz is not None and self.temperature_k is not None, field,
                         "frequency_hz and temperature_k must be given together")
                field = "frequency_hz"
                _set(self, field, _require_positive(field, self.frequency_hz))
                field = "temperature_k"
                _set(self, field, _require_positive(field, self.temperature_k))
                try:
                    nbar = _occupancy(self.frequency_hz, self.temperature_k)
                    derived = _excitation_of(nbar)
                except NumericalDomain:  # the occupancy overflows
                    derived = 1.0
                _require(derived < 1.0, "temperature_k",
                         "thermal occupancy at frequency_hz/temperature_k is too large for the "
                         "two-level noise model (derived excitation rounds to 1)")
                field = "noise_excitation"
                _require(given is None or _excitation(given) == derived, field,
                         "noise_excitation {!r} contradicts the value {!r} derived from "
                         "frequency_hz/temperature_k; give one or the other", given, derived)
                _set(self, field, derived)
            _set(self, "thermal_occupancy", nbar)
            field = "env_phase_rad"
            _set(self, field, _real("phase", self.env_phase_rad))
            _require(math.isfinite(self.phase_rad - self.env_phase_rad), field,
                     "phase_rad - env_phase_rad must be finite")
            # Silently completing a lone prior would hide a typo.
            _require((self.prior_h0 is None) == (self.prior_h1 is None), "prior_h0",
                     "prior_h0 and prior_h1 must be given together")
            p0 = p1 = 0.5
            if self.prior_h0 is not None:
                field = "prior_h0"
                p0 = _real(field, self.prior_h0)
                field = "prior_h1"
                p1 = _real(field, self.prior_h1)
                field = "prior_h0"
                p0, p1 = check_priors((p0, p1))
            _set(self, "prior_h0", p0)
            _set(self, "prior_h1", p1)
            field = "trials"
            _set(self, field, _check_integer(field, self.trials, 0, MAX_TRIALS))
            field = "seed"
            _set(self, field, _check_seed(self.seed))
            if self.roc_thresholds is not None:
                field = "roc_thresholds"
                thresholds = tuple(_check_thresholds(self.roc_thresholds))
                _require(len(thresholds) > 0, field, "roc_thresholds must not be empty")
                _require(all(map(operator.le, thresholds, thresholds[1:])), field,
                         "roc_thresholds must be in ascending order")
                _set(self, field, thresholds)
        except DegenerateInput as exc:
            raise ValidationError(str(exc), field=field) from None
        _require(self.link_budget is None or isinstance(self.link_budget, LinkBudgetInputs),
                 "link_budget", "link_budget must be LinkBudgetInputs, got {!r}", self.link_budget)


# A document names each Scenario field but link_budget, which it gives as dotted keys.
KNOWN_KEYS = frozenset(f.name for f in fields(Scenario) if f.name != "link_budget") | _LINK_KEYS


def _split_line(raw: str, line_no: int) -> tuple[str, str]:
    cuts = [i for i in (raw.find("="), raw.find(":")) if i >= 0]
    if not cuts:
        raise ParseError(f"line {line_no}: expected 'key = value', got {raw!r}", line=line_no)
    cut = min(cuts)  # the first separator, so a value may hold '=' or ':'
    key, sep, value = raw[:cut].strip(), raw[cut], raw[cut + 1:].strip()
    if not key:
        raise ParseError(f"line {line_no}: missing key before {sep!r}", line=line_no)
    if not value:
        raise ParseError(f"line {line_no}: missing value for {key!r}", line=line_no)
    return key, value


def _number(key: str, text: str, line_no: int, convert=float):
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ParseError(
            f"line {line_no}: value for {key!r} is not {kind}: {text!r}", line=line_no
        ) from None


def _typed_value(key: str, text: str, line_no: int):
    """The value of one entry: an int, a tuple of floats or a float."""
    if key in _INT_KEYS:
        return _number(key, text, line_no, int)
    if key != "roc_thresholds":
        return _number(key, text, line_no)
    with suppress(ValueError):  # else name the empty entry or the non-number below
        return tuple(map(float, text.split(",")))  # float() strips each token itself
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tokens):
        raise ParseError(f"line {line_no}: empty entry in list for {key!r}", line=line_no)
    return tuple(_number(key, tok, line_no) for tok in tokens)


def parse_scenario(text: str) -> Scenario:
    """Turn a scenario document into typed values and build the Scenario
    from them, which validates itself."""
    if not isinstance(text, str):
        raise DegenerateInput(f"text must be a str, got {type(text).__name__}")
    values: dict = {"phase_rad": None, "reflectivity": None}
    link: dict[str, float] = {}
    seen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, text_value = _split_line(stripped, line_no)
        if key not in KNOWN_KEYS:
            raise ParseError(f"line {line_no}: unknown key {key!r}", line=line_no)
        if key in seen:
            raise ParseError(f"line {line_no}: duplicate key {key!r}", line=line_no)
        seen.add(key)
        value = _typed_value(key, text_value, line_no)
        if key in _LINK_KEYS:
            link[key[len(_LINK_PREFIX):]] = value
        else:
            values[key] = value
    if link:
        try:  # LinkBudgetInputs gates each value; name the first rejected key by its dotted form
            values["link_budget"] = LinkBudgetInputs(**link)
        except DegenerateInput:
            for name, value in sorted(link.items()):
                try:
                    _require_positive(name, value)
                except DegenerateInput as exc:
                    raise ValidationError(str(exc), field=_LINK_PREFIX + name) from None
            raise
    return Scenario(**values)
