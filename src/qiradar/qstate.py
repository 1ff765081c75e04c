"""Finite-dimensional quantum states and the dense linear-algebra kernels
behind them.

A state is one d×d density matrix, with d capped at MAX_DIMENSION = 16 (the
detection pipeline itself only needs 4), so dense eigendecompositions are
exact enough for every downstream tolerance. States are immutable after
construction and every operation is a pure function of its inputs, so values
can be shared freely between workers. Every hermiticity check uses
STATE_ATOL; a DensityOperator stores its Hermitian part (A + A†)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MAX_DIMENSION, STATE_ATOL, DimensionMismatch, NumericalDomain


def _checked_hermitian(mat: np.ndarray, what: str = "matrix") -> np.ndarray:
    """The Hermitian part (A + A†)/2 of a square matrix, which must be finite and Hermitian
    within STATE_ATOL. An A equal to A† (a real mix of stored states) is returned."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise NumericalDomain(f"{what} has a non-finite entry")
    adjoint = mat.conj().T
    if (mat == adjoint).all():
        return mat
    if not (float(np.abs(mat - adjoint).max(initial=0.0)) <= STATE_ATOL):
        raise NumericalDomain(f"{what} is not Hermitian within {STATE_ATOL:g}")
    return (mat + adjoint) / 2.0


@dataclass(frozen=True)
class DensityOperator:
    """Trace-one positive-semidefinite Hermitian d×d matrix, 1 <= d <= MAX_DIMENSION.

    Any other shape raises DimensionMismatch. Entries must be finite, and the
    three defining properties are checked: hermiticity within STATE_ATOL
    max-entry error, unit trace within STATE_ATOL, and smallest eigenvalue
    >= -STATE_ATOL. The Hermitian part (A + A†)/2 is what is stored and what
    the eigenvalue check sees.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        hermitian = _checked_hermitian(mat)
        if not (1 <= mat.shape[0] <= MAX_DIMENSION):
            raise DimensionMismatch(
                f"matrix shape {mat.shape} is not d×d with 1 <= d <= {MAX_DIMENSION}")
        trace = complex(mat.trace())
        if not (abs(trace - 1.0) <= STATE_ATOL):
            raise NumericalDomain(f"trace deviates from 1 by {abs(trace - 1.0):.3g}")
        smallest = float(np.linalg.eigvalsh(hermitian)[0])
        if not (smallest >= -STATE_ATOL):
            raise NumericalDomain(f"smallest eigenvalue {smallest:.3g} is below -{STATE_ATOL:g}, "
                                  "not positive semidefinite")
        hermitian.setflags(write=False)
        object.__setattr__(self, "matrix", hermitian)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def eigendecompose_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose one Hermitian d×d matrix, descending.

    Accepts a DensityOperator or a raw d×d array and returns numpy eigh's pair
    (eigenvalues, eigenvectors), reordered descending. A non-finite entry, or a
    hermiticity residual past STATE_ATOL, raises NumericalDomain.
    """
    mat = m.matrix if isinstance(m, DensityOperator) else np.asarray(m, dtype=complex)
    w, v = np.linalg.eigh(_checked_hermitian(mat))
    return w[::-1].copy(), v[:, ::-1].copy()


def sqrt_psd(m) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix.

    Eigenvalues in [-STATE_ATOL, 0) = [-1e-9, 0), the window DensityOperator
    accepts, are clamped to 0 before the square root; anything below raises
    NumericalDomain. The result S is Hermitian PSD with S·S equal to the
    input within 1e-8.
    """
    w, v = eigendecompose_hermitian(m)
    if not w.size:
        raise DimensionMismatch(f"expected one non-empty matrix, got shape {v.shape}")
    if not (w[-1] >= -STATE_ATOL):
        raise NumericalDomain(f"eigenvalue {w[-1]:.3g} is below -{STATE_ATOL:g}, "
                              "matrix is not positive semidefinite")
    w[w < 0.0] = 0.0
    root = (v * np.sqrt(w)) @ v.conj().T
    return (root + root.conj().T) / 2.0
