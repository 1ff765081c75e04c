"""Binary hypothesis test: optimal measurement, Monte Carlo trials, ROC sweeps.

The optimal (Helstrom) test decides H1 exactly on the strictly positive
eigenspace of π₁ρ₁ − π₀ρ₀. Eigenvalues within 1e-10 of zero side with H0,
the conservative "no target" call; the tie assignment does not change the
error probability. roc_sweep runs the same test on ρ₁ − t·ρ₀ at each threshold
t; these generic tests are the reference for the pipeline's closed_form.
detection_counts runs the Helstrom test under both true states: montecarlo.draw_counts
draws its decide-H1 counts from the two Born probabilities of its H1 projector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import TIE_ATOL
from .errors import DimensionMismatch, NumericalDomain, _check_thresholds, check_priors, clamp_unit
from .metrics import _require_same_shape
from .montecarlo import TrialOutcome, draw_counts
from .qstate import DensityOperator, _checked_hermitian, eigendecompose_hermitian
from .report import RocPoint

PROJECTOR_ATOL = 1e-8  # idempotency tolerance; hermiticity uses STATE_ATOL


@dataclass(frozen=True)
class BinaryMeasurement:
    """Two-outcome projective test given by its "target present" projector.

    project_h1 decides H1; its complement I − project_h1 decides H0. Finite
    entries, hermiticity and idempotency of project_h1 are verified on
    construction. The complement is then a projector orthogonal to
    project_h1, and the pair sums to the identity by construction.
    """

    project_h1: np.ndarray

    def __post_init__(self):
        p1 = np.array(self.project_h1, dtype=complex)
        if p1.ndim != 2 or not p1.size:
            raise DimensionMismatch(f"project_h1 must be a non-empty square matrix, got {p1.shape}")
        _checked_hermitian(p1, "project_h1")
        if not (float(np.abs(p1 @ p1 - p1).max()) <= PROJECTOR_ATOL):
            raise NumericalDomain(f"project_h1 is not idempotent within {PROJECTOR_ATOL:g}")
        p1.setflags(write=False)
        object.__setattr__(self, "project_h1", p1)

    @property
    def dimension(self) -> int:
        return self.project_h1.shape[0]


def _positive_eigenspace_projector(matrix: np.ndarray) -> np.ndarray:
    """Projector onto the strictly positive (λ > 1e-10) eigenspace of a Hermitian matrix."""
    eigenvalues, eigenvectors = eigendecompose_hermitian(matrix)
    columns = eigenvectors * (eigenvalues > TIE_ATOL)
    projector = columns @ columns.conj().T
    return (projector + projector.conj().T) / 2.0


def helstrom_measurement(rho0: DensityOperator, rho1: DensityOperator,
                         priors=(0.5, 0.5)) -> BinaryMeasurement:
    """Optimal binary measurement for H0 = rho0 versus H1 = rho1.

    project_h1 spans the strictly positive eigenspace of π₁ρ₁ − π₀ρ₀; its
    analytic error probability equals helstrom_error within 1e-8.
    """
    _require_same_shape(rho0, rho1)
    p0, p1 = check_priors(priors)
    return BinaryMeasurement(
        _positive_eigenspace_projector(p1 * rho1.matrix - p0 * rho0.matrix))


def born_probability(m: BinaryMeasurement, rho: DensityOperator) -> float:
    """Probability Tr(project_h1 · ρ) of deciding H1 on state ρ."""
    if m.project_h1.shape != rho.matrix.shape:
        raise DimensionMismatch(
            f"measurement dimension {m.dimension} does not match state dimension {rho.dimension}"
        )
    return clamp_unit(float(np.trace(m.project_h1 @ rho.matrix).real), "Born probability")


def measurement_error(m: BinaryMeasurement, rho0: DensityOperator, rho1: DensityOperator,
                      priors=(0.5, 0.5)) -> float:
    """Analytic error probability π₀·Tr(P₁ρ₀) + π₁·Tr((I − P₁)ρ₁) of a measurement."""
    _require_same_shape(rho0, rho1)
    p0, p1 = check_priors(priors)
    false_alarm = born_probability(m, rho0)
    detection = born_probability(m, rho1)
    return p0 * false_alarm + p1 * (1.0 - detection)


def detection_counts(rho0: DensityOperator, rho1: DensityOperator, priors, trials: int,
                     seed: int) -> tuple[TrialOutcome, TrialOutcome]:
    """Run the Helstrom test under both true states: draw_counts of its two
    Born probabilities."""
    m = helstrom_measurement(rho0, rho1, priors)  # checks the dimensions and the priors
    born = (born_probability(m, rho0), born_probability(m, rho1))
    return draw_counts(born, priors[0], trials, seed)


def roc_sweep(rho0: DensityOperator, rho1: DensityOperator, thresholds) -> list[RocPoint]:
    """Quantum Neyman-Pearson sweep, one threshold test at a time.

    For each threshold t the test decides H1 on the strictly positive
    eigenspace of ρ₁ − t·ρ₀, as helstrom_measurement does for π₁ρ₁ − π₀ρ₀;
    the point records (t, Tr(P·ρ₀), Tr(P·ρ₁)). The t = 1 point coincides with
    the equal-prior Helstrom test. Each test holds one d×d projector.
    """
    _require_same_shape(rho0, rho1)
    points = []
    for t in _check_thresholds(thresholds):
        m = BinaryMeasurement(_positive_eigenspace_projector(rho1.matrix - t * rho0.matrix))
        points.append(RocPoint(t, born_probability(m, rho0), born_probability(m, rho1)))
    return points
