"""Distinguishability metrics between density operators.

    trace_distance(a, b)        D = ½ ‖a − b‖₁
    fidelity(a, b)              F = (Tr √(√a · b · √a))²
    helstrom_error(a, b, π)     P_e = ½ (1 − ‖π₁ b − π₀ a‖₁)

The trace norm ‖·‖₁ of a Hermitian argument is the sum of the absolute
eigenvalues, so everything reduces to Hermitian eigenproblems. At equal
priors the Helstrom bound is P_e = ½(1 − D), the minimum error probability
of any binary test between the two states.

Results are clamped back into their closed ranges when they leave them by at
most errors.CLAMP_WINDOW, the most that states DensityOperator accepts can
produce; larger excursions raise NumericalDomain so genuine bugs are not hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalDomain, _real, check_priors, clamp_unit
from .qstate import DensityOperator, eigendecompose_hermitian, sqrt_psd

FVG_ATOL = 1e-7  # Fuchs-van de Graaff sandwich slack


def _require_same_shape(a: DensityOperator, b: DensityOperator) -> None:
    if a.matrix.shape != b.matrix.shape:
        raise DimensionMismatch(f"operands differ in shape: {a.matrix.shape} vs {b.matrix.shape}")


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """½ ‖a − b‖₁ via the eigenvalues of the Hermitian difference."""
    _require_same_shape(a, b)
    eigs, _ = eigendecompose_hermitian(a.matrix - b.matrix)
    return clamp_unit(0.5 * float(np.abs(eigs).sum()), "trace distance")


def fidelity(a: DensityOperator, b: DensityOperator) -> float:
    """Uhlmann fidelity (Tr √(√a · b · √a))², in [0, 1]."""
    _require_same_shape(a, b)
    root_a = sqrt_psd(a.matrix)
    inner = root_a @ b.matrix @ root_a  # sqrt_psd takes its Hermitian part
    value = float(np.trace(sqrt_psd(inner)).real) ** 2
    return clamp_unit(value, "fidelity")


def helstrom_error(a: DensityOperator, b: DensityOperator, priors=(0.5, 0.5)) -> float:
    """Minimum error probability ½(1 − ‖π₁ b − π₀ a‖₁) of the binary test
    H0 = a versus H1 = b at the given priors (π₀, π₁)."""
    _require_same_shape(a, b)
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
        for name, value in (("trace_distance", d), ("fidelity", f), ("helstrom_error", pe)):
            object.__setattr__(self, name, value)

