"""Binary hypothesis test for any pair of states: Born probabilities and ROC sweeps.

born_pair decides H1 exactly on the strictly positive eigenspace of w₁ρ₁ − w₀ρ₀. At the
priors (π₀, π₁) it is the optimal (Helstrom) test, at (t, 1) the ROC test at threshold t,
which roc_sweep runs at each threshold. Eigenvalues within 1e-10 of zero side with H0, the
conservative "no target" call; the tie assignment does not change the error probability.
These generic tests mirror closed_form's born_pair and born_pairs and are their reference;
montecarlo.draw_counts of born_pair at the priors is the generic Monte Carlo run.
"""

from __future__ import annotations

import numpy as np

from .closed_form import TIE_ATOL
from .errors import _check_thresholds, _real, clamp_unit
from .metrics import _require_same_shape
from .qstate import DensityOperator, eigendecompose_hermitian
from .report import RocPoint


def born_pair(rho0: DensityOperator, rho1: DensityOperator, w0, w1) -> tuple[float, float]:
    """(Tr Pρ₀, Tr Pρ₁), P the projector onto the eigenvalues > TIE_ATOL of w₁ρ₁ − w₀ρ₀,
    from one eigensolve."""
    _require_same_shape(rho0, rho1)
    eigenvalues, eigenvectors = eigendecompose_hermitian(
        _real("w1", w1) * rho1.matrix - _real("w0", w0) * rho0.matrix)
    columns = eigenvectors * (eigenvalues > TIE_ATOL)
    projector = columns @ columns.conj().T
    projector = (projector + projector.conj().T) / 2.0
    p_h0, p_h1 = (clamp_unit(float(np.trace(projector @ rho.matrix).real), "Born probability")
                  for rho in (rho0, rho1))
    return p_h0, p_h1


def roc_sweep(rho0: DensityOperator, rho1: DensityOperator, thresholds) -> list[RocPoint]:
    """Quantum Neyman-Pearson sweep: the point (t, Tr Pρ₀, Tr Pρ₁) of born_pair at (t, 1)
    for each threshold t. The t = 1 point is the equal-prior Helstrom test."""
    return [RocPoint(t, *born_pair(rho0, rho1, t, 1.0)) for t in _check_thresholds(thresholds)]
