"""Distinguishability metrics between density operators.

    trace_distance(a, b)        D = ½ ‖a − b‖₁
    helstrom_error(a, b, π)     P_e = ½ (1 − ‖π₁ b − π₀ a‖₁)

The trace norm ‖·‖₁ of a Hermitian argument is the sum of the absolute
eigenvalues, so everything reduces to Hermitian eigenproblems. At equal
priors the Helstrom bound is P_e = ½(1 − D), the minimum error probability
of any binary test between the two states. The pipeline takes D from
trace_distance; the fidelity and the Helstrom error of its model come from closed_form.

Results are clamped back into their closed ranges when they leave them by at
most errors.CLAMP_WINDOW, the most that states DensityOperator accepts can
produce; larger excursions raise NumericalDomain so genuine bugs are not hidden.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, check_priors, clamp_unit
from .qstate import DensityOperator, eigendecompose_hermitian


def _require_same_shape(a: DensityOperator, b: DensityOperator) -> None:
    if a.matrix.shape != b.matrix.shape:
        raise DimensionMismatch(f"operands differ in shape: {a.matrix.shape} vs {b.matrix.shape}")


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """½ ‖a − b‖₁ via the eigenvalues of the Hermitian difference."""
    _require_same_shape(a, b)
    eigs, _ = eigendecompose_hermitian(a.matrix - b.matrix)
    return clamp_unit(0.5 * float(np.abs(eigs).sum()), "trace distance")


def helstrom_error(a: DensityOperator, b: DensityOperator, priors=(0.5, 0.5)) -> float:
    """Minimum error probability ½(1 − ‖π₁ b − π₀ a‖₁) of the binary test
    H0 = a versus H1 = b at the given priors (π₀, π₁)."""
    _require_same_shape(a, b)
    p0, p1 = check_priors(priors)
    eigs, _ = eigendecompose_hermitian(p1 * b.matrix - p0 * a.matrix)
    return clamp_unit(0.5 * (1.0 - float(np.abs(eigs).sum())), "Helstrom error")
