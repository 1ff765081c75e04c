"""Exception taxonomy shared by every module in the package, and its number gates:
``_real`` (a finite int, float, Fraction or numpy scalar) and ``_check_integer`` (an
int or numpy integer in a range); str, bytes, bool and Decimal pass neither."""

import math
import numbers


class QIRadarError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInput(QIRadarError):
    """An input value lies outside the operation's domain (zero vector, bad
    probability, non-positive power, and so on)."""


class DimensionMismatch(QIRadarError):
    """Operands disagree in shape or subsystem layout, or exceed the supported
    Hilbert dimension."""


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
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value <= high):
        raise DegenerateInput(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)
