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
and values that are not numbers raise ParseError with the line number. Every
range and consistency rule lives in Scenario itself, so a parsed and a
directly built Scenario pass the same checks; a violation raises
ValidationError naming the field.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

from .detector import MAX_SEED
from .errors import DegenerateInput, NumericalDomain, ParseError, ValidationError
from .linkbudget import LinkBudgetInputs, occupancy_to_excitation, thermal_occupancy
from .metrics import check_priors

MAX_TRIALS = 10**9  # about 6 s of Monte Carlo, the longest run a document may ask for

_LINK_PREFIX = "link_budget."
_LINK_KEYS = frozenset(_LINK_PREFIX + f.name for f in fields(LinkBudgetInputs))
_INT_KEYS = frozenset({"trials", "seed"})

_set = object.__setattr__  # fills in the fields of a frozen Scenario


def _require(ok: bool, field: str, message: str, *args) -> None:
    """Raise ValidationError(message.format(*args)) naming ``field`` unless ok."""
    if not ok:
        raise ValidationError(message.format(*args), field=field)


def _real(name: str, value) -> float:
    if type(value) is not float:
        _require(isinstance(value, numbers.Real) and not isinstance(value, bool), name,
                 "{} must be a real number, got {!r}", name, value)
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
    _require(math.isfinite(value), name, "{} must be finite, got {!r}", name, value)
    return value


def _integer(name: str, value, high: int) -> int:
    _require(isinstance(value, numbers.Integral) and not isinstance(value, bool), name,
             "{} must be an integer, got {!r}", name, value)
    _require(0 <= value <= high, name, "{} must lie in [0, {}], got {}", name, high, value)
    return int(value)


@dataclass(frozen=True)
class Scenario:
    """One detection scenario, validated on construction.

    Built directly, through ``dataclasses.replace`` or by parse_scenario, it
    is held to the same rules. Numbers are stored as float (int for trials
    and seed), roc_thresholds as a tuple. With the frequency_hz/temperature_k
    pair, noise_excitation is derived, and a given value must equal it. The
    priors are given both or neither (then 0.5 each).
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
        _set(self, "phase_rad", _real("phase_rad", self.phase_rad))
        eta = _real("reflectivity", self.reflectivity)
        _require(0.0 <= eta <= 1.0, "reflectivity", "reflectivity must lie in [0, 1], got {!r}", eta)
        _set(self, "reflectivity", eta)
        self._check_noise()
        _set(self, "env_phase_rad", _real("env_phase_rad", self.env_phase_rad))
        _require(math.isfinite(self.phase_rad - self.env_phase_rad), "env_phase_rad",
                 "phase_rad - env_phase_rad must be finite")
        self._check_priors()
        _set(self, "trials", _integer("trials", self.trials, MAX_TRIALS))
        _set(self, "seed", _integer("seed", self.seed, MAX_SEED))
        if self.roc_thresholds is not None:
            self._check_thresholds()
        _require(self.link_budget is None or isinstance(self.link_budget, LinkBudgetInputs),
                 "link_budget", "link_budget must be LinkBudgetInputs, got {!r}", self.link_budget)

    @cached_property
    def thermal_occupancy(self) -> float | None:
        """Mean photon number n̄ at frequency_hz/temperature_k, computed once;
        None when noise_excitation was given directly."""
        if self.frequency_hz is None:
            return None
        return thermal_occupancy(self.frequency_hz, self.temperature_k)

    def _check_noise(self) -> None:
        given = self.noise_excitation
        if self.frequency_hz is None and self.temperature_k is None:
            _require(given is not None, "noise_excitation",
                     "either noise_excitation or both frequency_hz and temperature_k are required")
            p = _real("noise_excitation", given)
            _require(0.0 <= p < 1.0, "noise_excitation",
                     "noise_excitation must lie in [0, 1), got {!r}", p)
            _set(self, "noise_excitation", p)
            return
        _require(self.frequency_hz is not None and self.temperature_k is not None,
                 "noise_excitation", "frequency_hz and temperature_k must be given together")
        for name in ("frequency_hz", "temperature_k"):
            value = _real(name, getattr(self, name))
            _require(value > 0.0, name, "{} must be > 0, got {!r}", name, value)
            _set(self, name, value)
        try:
            derived = occupancy_to_excitation(self.thermal_occupancy)
        except NumericalDomain:  # the occupancy overflows
            derived = 1.0
        _require(derived < 1.0, "temperature_k",
                 "thermal occupancy at frequency_hz/temperature_k is too large for the "
                 "two-level noise model (derived excitation rounds to 1)")
        _require(given is None or _real("noise_excitation", given) == derived, "noise_excitation",
                 "noise_excitation {!r} contradicts the value {!r} derived from "
                 "frequency_hz/temperature_k; give one or the other", given, derived)
        _set(self, "noise_excitation", derived)

    def _check_priors(self) -> None:
        # Silently completing a lone prior would hide a typo.
        _require((self.prior_h0 is None) == (self.prior_h1 is None), "prior_h0",
                 "prior_h0 and prior_h1 must be given together")
        priors = (0.5, 0.5)
        if self.prior_h0 is not None:
            priors = (_real("prior_h0", self.prior_h0), _real("prior_h1", self.prior_h1))
        try:
            check_priors(priors)
        except DegenerateInput as exc:
            raise ValidationError(str(exc), field="prior_h0") from None
        _set(self, "prior_h0", priors[0])
        _set(self, "prior_h1", priors[1])

    def _check_thresholds(self) -> None:
        name = "roc_thresholds"
        try:
            thresholds = tuple(_real(name, t) for t in self.roc_thresholds)
        except TypeError:
            raise ValidationError(f"{name} must be a sequence of reals", field=name) from None
        _require(len(thresholds) > 0, name, "roc_thresholds must not be empty")
        _require(all(t >= 0.0 for t in thresholds), name, "roc_thresholds must all be >= 0")
        _require(all(a <= b for a, b in zip(thresholds, thresholds[1:])), name,
                 "roc_thresholds must be in ascending order")
        _set(self, name, thresholds)


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
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tokens):
        raise ParseError(f"line {line_no}: empty entry in list for {key!r}", line=line_no)
    return tuple(_number(key, tok, line_no) for tok in tokens)


def _link_budget(values: dict[str, float]) -> LinkBudgetInputs:
    """LinkBudgetInputs from the link_budget.* entries; a rejected value is
    reported under its dotted key."""
    try:
        return LinkBudgetInputs(**values)
    except DegenerateInput:
        for name, value in values.items():  # find the value it rejected
            try:
                LinkBudgetInputs(**{name: value})
            except DegenerateInput as exc:
                raise ValidationError(str(exc), field=_LINK_PREFIX + name) from None
        raise


def parse_scenario(text: str) -> Scenario:
    """Turn a scenario document into typed values and build the Scenario
    from them, which validates itself."""
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
        values["link_budget"] = _link_budget(dict(sorted(link.items())))
    return Scenario(**values)
