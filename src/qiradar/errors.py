"""Exception taxonomy shared by every module in the package, and its number gates, each
defined once and none needing numpy: ``_real`` (a finite int, float, Fraction or numpy
scalar), ``_check_integer`` (an int or numpy integer in a range) and the range checks built
on them; str, bytes, bool and Decimal pass neither."""

import math
import numbers


class QIRadarError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInput(QIRadarError):
    """An input value lies outside the operation's domain (zero vector, bad
    probability, non-positive power, and so on)."""


class DimensionMismatch(QIRadarError):
    """Operands disagree in shape, or a state is not a d×d matrix with
    1 <= d <= MAX_DIMENSION."""


class NumericalDomain(QIRadarError):
    """A matrix property or numerical result violates its contract by more
    than the allowed roundoff window."""


class ParseError(QIRadarError):
    """A scenario document is malformed. ``line`` carries the offending line
    number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ValidationError(QIRadarError):
    """A parsed field violates a range or consistency constraint. ``field``
    names the offending key."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def _real(name: str, value) -> float:
    """``value`` as a finite float; anything else raises DegenerateInput."""
    if type(value) is float and math.isfinite(value):  # the common case, without isinstance
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DegenerateInput(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise DegenerateInput(f"{name} must be finite, got {value!r}")
    return number


def _check_integer(name: str, value, low: int, high: int) -> int:
    if type(value) is int and low <= value <= high:  # the common case, without isinstance
        return value
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value <= high):
        raise DegenerateInput(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


MAX_DIMENSION = 16     # the largest d of a d×d DensityOperator
STATE_ATOL = 1e-9      # trace, eigenvalue and hermiticity tolerance of a state
MAX_SEED = 2**64 - 1
MAX_TRIALS = 10**9     # the longest Monte Carlo run; one binomial draw each way, well under 1 ms
PRIOR_ATOL = 1e-9

# Accepted states (δ = STATE_ATOL, n <= MAX_DIMENSION): trace <= 1 + δ, at most n - 1 eigenvalues
# in [-δ, 0), entries Hermitian within δ (<= n^1.5 δ/2 in trace norm). So D, P_e, F and Born
# probabilities of an accepted pair leave [0, 1] by at most (2n - 1 + n^1.5/2)δ, about 6.3e-8.
CLAMP_WINDOW = (2 * MAX_DIMENSION - 1 + MAX_DIMENSION**1.5 / 2) * STATE_ATOL


def clamp_unit(value: float, what: str) -> float:
    """Snap values within CLAMP_WINDOW of [0, 1] back onto the interval."""
    return _clamp(value, what, CLAMP_WINDOW)


def _clamp(value: float, what: str, window: float) -> float:
    if -window <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + window:
        return 1.0
    if not (0.0 <= value <= 1.0):  # NaN fails too
        raise NumericalDomain(f"{what} = {value:.12g} lies outside [0, 1] beyond roundoff")
    return value


def check_priors(priors) -> tuple[float, float]:
    """Validate a prior pair: two nonnegative reals summing to 1."""
    try:
        p0, p1 = _real("prior_h0", priors[0]), _real("prior_h1", priors[1])
    except (TypeError, IndexError, KeyError):
        raise DegenerateInput(f"priors must be a pair of reals, got {priors!r}") from None
    if len(priors) != 2:
        raise DegenerateInput(f"priors must be a pair, got {len(priors)} values")
    if not (p0 >= 0.0 and p1 >= 0.0 and abs(p0 + p1 - 1.0) <= PRIOR_ATOL):
        raise DegenerateInput(f"priors must be nonnegative and sum to 1, got {priors!r}")
    return p0, p1


def _reduce_phase(phi: float) -> float:
    """Map any finite angle into [0, 2π), −0.0 onto +0.0."""
    reduced = math.fmod(phi, math.tau) + 0.0  # −0.0 + 0.0 is +0.0
    if reduced < 0.0:
        reduced += math.tau
    if reduced >= math.tau:
        # fmod of a tiny negative can round back up to exactly 2π.
        reduced = 0.0
    return reduced


def _unit_interval(name: str, value) -> float:
    value = _real(name, value)
    if not (0.0 <= value <= 1.0):
        raise DegenerateInput(f"{name} must lie in [0, 1], got {value!r}")
    return value


def _reflectivity(eta: float) -> float:
    return _unit_interval("reflectivity", eta)


def _excitation(p: float) -> float:
    p = _real("noise excitation", p)
    if not (0.0 <= p < 1.0):
        raise DegenerateInput(f"noise excitation must lie in [0, 1), got {p!r}")
    return p


def _require_positive(name: str, value: float) -> float:
    value = _real(name, value)
    if value <= 0.0:
        raise DegenerateInput(f"{name} must be positive, got {value!r}")
    return value


def _check_seed(seed) -> int:
    return _check_integer("seed", seed, 0, MAX_SEED)


def _check_thresholds(thresholds) -> list[float]:
    """The thresholds as a list of finite reals >= 0; a str is not a list of them."""
    try:
        if isinstance(thresholds, (str, bytes, bytearray)):  # would iterate per character
            raise TypeError
        values = list(thresholds)
        if not ({*map(type, values)} <= {float} and math.isfinite(sum(values))):
            values = [_real("threshold", t) for t in values]  # converts, or names the culprit
    except TypeError:  # not iterable, a 0-d array among them
        raise DegenerateInput(f"thresholds must be a list of numbers, got {thresholds!r}") from None
    if values and min(values) < 0.0:
        raise DegenerateInput(f"thresholds must be >= 0, got {min(values)!r}")
    return values
