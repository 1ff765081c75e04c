"""Distinguishability metrics between density operators.

    trace_distance(a, b)        D = ½ ‖a − b‖₁
    fidelity(a, b)              F = (Tr √(√a · b · √a))²
    helstrom_error(a, b, π)     P_e = ½ (1 − ‖π₁ b − π₀ a‖₁)

The trace norm ‖·‖₁ of a Hermitian argument is the sum of the absolute
eigenvalues, so everything reduces to Hermitian eigenproblems. At equal
priors the Helstrom bound is P_e = ½(1 − D), the minimum error probability
of any binary test between the two states.

Results are clamped back into their closed ranges when they leave them by at
most CLAMP_WINDOW, the most that states DensityOperator accepts can produce;
larger excursions raise NumericalDomain so genuine bugs are not hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, NumericalDomain, _real
from .qstate import MAX_DIMENSION, STATE_ATOL, DensityOperator, eigendecompose_hermitian, sqrt_psd

# Accepted states (δ = STATE_ATOL, n <= MAX_DIMENSION): trace <= 1 + δ, at most n - 1 eigenvalues
# in [-δ, 0), entries Hermitian within δ (<= n^1.5 δ/2 in trace norm). So D, P_e, F and Born
# probabilities of an accepted pair leave [0, 1] by at most (2n - 1 + n^1.5/2)δ, about 6.3e-8.
CLAMP_WINDOW = (2 * MAX_DIMENSION - 1 + MAX_DIMENSION**1.5 / 2) * STATE_ATOL
FVG_ATOL = 1e-7  # Fuchs-van de Graaff sandwich slack
PRIOR_ATOL = 1e-9


def clamp_unit(value: float, what: str) -> float:
    """Snap values within CLAMP_WINDOW of [0, 1] back onto the interval."""
    if -CLAMP_WINDOW <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + CLAMP_WINDOW:
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


def _require_same_dims(a: DensityOperator, b: DensityOperator) -> None:
    if a.dims != b.dims:
        raise DimensionMismatch(f"operands live on different spaces: {a.dims} vs {b.dims}")


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """½ ‖a − b‖₁ via the eigenvalues of the Hermitian difference."""
    _require_same_dims(a, b)
    eigs, _ = eigendecompose_hermitian(a.matrix - b.matrix)
    return clamp_unit(0.5 * float(np.abs(eigs).sum()), "trace distance")


def fidelity(a: DensityOperator, b: DensityOperator) -> float:
    """Uhlmann fidelity (Tr √(√a · b · √a))², in [0, 1]."""
    _require_same_dims(a, b)
    root_a = sqrt_psd(a.matrix)
    inner = root_a @ b.matrix @ root_a  # sqrt_psd takes its Hermitian part
    value = float(np.trace(sqrt_psd(inner)).real) ** 2
    return clamp_unit(value, "fidelity")


def helstrom_error(a: DensityOperator, b: DensityOperator, priors=(0.5, 0.5)) -> float:
    """Minimum error probability ½(1 − ‖π₁ b − π₀ a‖₁) of the binary test
    H0 = a versus H1 = b at the given priors (π₀, π₁)."""
    _require_same_dims(a, b)
    p0, p1 = check_priors(priors)
    eigs, _ = eigendecompose_hermitian(p1 * b.matrix - p0 * a.matrix)
    return clamp_unit(0.5 * (1.0 - float(np.abs(eigs).sum())), "Helstrom error")


@dataclass(frozen=True)
class DistinguishabilityReport:
    """All three metrics for one state pair, cross-checked on construction.

    Construction verifies the closed ranges and the Fuchs-van de Graaff
    sandwich 1 − √F ≤ D ≤ √(1 − F) (within 1e-7); a violation means a
    numerical bug upstream, not a property of the states.
    """

    trace_distance: float
    fidelity: float
    helstrom_error: float
    priors: tuple[float, float]

    def __post_init__(self):
        d = _real("trace_distance", self.trace_distance)
        f = _real("fidelity", self.fidelity)
        pe = _real("helstrom_error", self.helstrom_error)
        if not (0.0 <= d <= 1.0 and 0.0 <= f <= 1.0):
            raise NumericalDomain(f"metrics out of range: D={d!r}, F={f!r}")
        if not (0.0 <= pe <= 0.5 + 1e-12):
            raise NumericalDomain(f"Helstrom error out of range: {pe!r}")
        if not (1.0 - math.sqrt(f) <= d + FVG_ATOL and d <= math.sqrt(1.0 - f) + FVG_ATOL):
            raise NumericalDomain(
                f"Fuchs-van de Graaff sandwich violated: D={d!r}, F={f!r}"
            )
        for name, value in (("trace_distance", d), ("fidelity", f), ("helstrom_error", pe),
                            ("priors", check_priors(self.priors))):
            object.__setattr__(self, name, value)


def distinguishability(a: DensityOperator, b: DensityOperator,
                       priors=(0.5, 0.5)) -> DistinguishabilityReport:
    """Compute all three metrics for a state pair in one pass."""
    return DistinguishabilityReport(
        trace_distance=trace_distance(a, b),
        fidelity=fidelity(a, b),
        helstrom_error=helstrom_error(a, b, priors),
        priors=tuple(priors),
    )
