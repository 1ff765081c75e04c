"""Finite-dimensional quantum states and the dense linear-algebra kernels
behind them.

Everything here works on small dense complex matrices; the total Hilbert
dimension is capped at 16 (the detection pipeline itself only needs 4), so
dense eigendecompositions are exact enough for every downstream tolerance.
States are immutable after construction and every operation is a pure
function of its inputs, so values can be shared freely between workers.

Conventions
-----------
* Subsystem order is fixed globally: signal (or return) mode first, idler
  second. A composite basis index factors as ``i = i_first * d_second +
  i_second``.
* Every hermiticity check uses STATE_ATOL; a DensityOperator stores its
  Hermitian part (A + A†)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (MAX_DIMENSION, STATE_ATOL, DegenerateInput, DimensionMismatch,
                     NumericalDomain, _check_integer)


def _as_dims(dims) -> tuple[int, ...]:
    try:
        out = tuple(_check_integer("dimension", d, 1, MAX_DIMENSION) for d in dims)
    except (TypeError, DegenerateInput):
        out = ()
    if not out or math.prod(out) > MAX_DIMENSION:
        raise DimensionMismatch(
            f"subsystem dimensions {dims!r} must be integers >= 1 with product <= {MAX_DIMENSION}")
    return out


def _norm(amps: np.ndarray) -> float:
    """Euclidean norm, scaled by the largest |amplitude| so squares cannot overflow or vanish."""
    magnitudes = np.abs(amps)
    scale = float(magnitudes.max(initial=0.0))
    if not (0.0 < scale < math.inf):
        return scale
    return scale * float(np.linalg.norm(magnitudes / scale))


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
class PureState:
    """Normalized complex amplitude vector over a tensor product of subsystems."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        dims = _as_dims(self.dims)
        if amps.size != math.prod(dims):
            raise DimensionMismatch(
                f"{amps.size} amplitudes do not fill subsystems of dimensions {dims}"
            )
        norm = _norm(amps)
        if not (abs(norm - 1.0) <= STATE_ATOL):
            raise DegenerateInput(f"state norm {norm:.12g} is not 1 within {STATE_ATOL:g}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    @property
    def dimension(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityOperator:
    """Trace-one positive-semidefinite Hermitian matrix over subsystems ``dims``.

    Entries must be finite, and the three defining properties are checked:
    hermiticity within STATE_ATOL max-entry error, unit trace within
    STATE_ATOL, and smallest eigenvalue >= -STATE_ATOL. The Hermitian part
    (A + A†)/2 is what is stored and what the eigenvalue check sees.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        dims = _as_dims(self.dims)
        d = math.prod(dims)
        if mat.ndim != 2 or mat.shape != (d, d):
            raise DimensionMismatch(
                f"matrix shape {mat.shape} does not match subsystem dimensions {dims}"
            )
        hermitian = _checked_hermitian(mat)
        trace = complex(mat.trace())
        if not (abs(trace - 1.0) <= STATE_ATOL):
            raise NumericalDomain(f"trace deviates from 1 by {abs(trace - 1.0):.3g}")
        smallest = float(np.linalg.eigvalsh(hermitian)[0])
        if not (smallest >= -STATE_ATOL):
            raise NumericalDomain(f"smallest eigenvalue {smallest:.3g} is below -{STATE_ATOL:g}, "
                                  "not positive semidefinite")
        hermitian.setflags(write=False)
        object.__setattr__(self, "matrix", hermitian)
        object.__setattr__(self, "dims", dims)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def bell_phi_plus() -> PureState:
    """The maximally entangled pair (|00⟩ + |11⟩)/√2 on signal ⊗ idler."""
    amps = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return PureState(amps, (2, 2))


def density_from_pure(psi: PureState) -> DensityOperator:
    """Rank-1 projector |ψ⟩⟨ψ| as a DensityOperator."""
    return DensityOperator(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.dims)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every subsystem not listed in ``keep``.

    ``keep`` is a set of subsystem indices into ``rho.dims``; the result lives
    on the kept subsystems in their original order.
    """
    dims = rho.dims
    n = len(dims)
    try:
        keep_set = {_check_integer("keep index", k, 0, n - 1) for k in keep}
        _check_integer("number of kept subsystems", len(keep_set), 1, n)
    except (TypeError, DegenerateInput):
        raise DimensionMismatch(f"keep indices {keep!r} invalid for {n} subsystems") from None
    tensor_form = rho.matrix.reshape(dims + dims)
    remaining = n
    # Trace highest-index subsystems first so lower axes keep their positions.
    for idx in reversed(range(n)):
        if idx in keep_set:
            continue
        tensor_form = np.trace(tensor_form, axis1=idx, axis2=idx + remaining)
        remaining -= 1
    kept_dims = tuple(dims[i] for i in sorted(keep_set))
    d = math.prod(kept_dims)
    return DensityOperator(tensor_form.reshape(d, d), kept_dims)


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
