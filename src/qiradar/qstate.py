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
* ``Spectrum`` eigenvalues are sorted descending along the last axis; a
  stack of matrices ``(..., d, d)`` is decomposed member by member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, NumericalDomain, _check_integer

MAX_DIMENSION = 16
STATE_ATOL = 1e-9    # norm, trace and hermiticity tolerance on stored states
DECOMP_ATOL = 1e-8   # hermiticity tolerance on eigendecompose_hermitian's input


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


def _check_hermitian(mat: np.ndarray, atol: float, what: str = "matrix") -> np.ndarray:
    """The adjoint of a square matrix or stack, checked finite and Hermitian within atol."""
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise DimensionMismatch(f"{what} must be square, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise NumericalDomain(f"{what} has a non-finite entry")
    adjoint = mat.conj().swapaxes(-1, -2)
    if not (float(np.abs(mat - adjoint).max(initial=0.0)) <= atol):
        raise NumericalDomain(f"{what} is not Hermitian within {atol:g}")
    return adjoint


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
    STATE_ATOL, and smallest eigenvalue of (A + A†)/2, the matrix every later
    eigensolve decomposes, >= -STATE_ATOL. The matrix is stored as given.
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
        adjoint = _check_hermitian(mat, STATE_ATOL)
        trace = complex(mat.trace())
        if not (abs(trace - 1.0) <= STATE_ATOL):
            raise NumericalDomain(f"trace deviates from 1 by {abs(trace - 1.0):.3g}")
        # eigvalsh(mat) would read only the lower triangle
        smallest = float(np.linalg.eigvalsh(mat + adjoint)[0]) / 2.0
        if not (smallest >= -STATE_ATOL):
            raise NumericalDomain(f"smallest eigenvalue {smallest:.3g} is below -{STATE_ATOL:g}, "
                                  "not positive semidefinite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix or of a stack of them.

    ``eigenvalues`` is real and descending along its last axis; column ``k``
    of ``eigenvectors`` is the unit eigenvector for ``eigenvalues[..., k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """V diag(λ) V† per stack member, which must reproduce the input."""
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


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


def eigendecompose_hermitian(m) -> Spectrum:
    """Eigendecompose a Hermitian matrix or stack ``(..., d, d)``, descending.

    Accepts a DensityOperator or a raw array. A non-finite entry, or a deviation
    from hermiticity beyond DECOMP_ATOL = 1e-8 in any member, raises NumericalDomain.
    """
    mat = m.matrix if isinstance(m, DensityOperator) else np.asarray(m, dtype=complex)
    adjoint = _check_hermitian(mat, DECOMP_ATOL)
    w, v = np.linalg.eigh((mat + adjoint) / 2.0)
    return Spectrum(eigenvalues=w[..., ::-1].copy(), eigenvectors=v[..., ::-1].copy())


def sqrt_psd(m) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix.

    Eigenvalues in [-STATE_ATOL, 0) = [-1e-9, 0), the window DensityOperator
    accepts, are clamped to 0 before the square root; anything below raises
    NumericalDomain. The result S is Hermitian PSD with S·S equal to the
    input within 1e-8.
    """
    spectrum = eigendecompose_hermitian(m)
    if spectrum.eigenvalues.ndim != 1:
        raise DimensionMismatch(f"expected one matrix, got shape {spectrum.eigenvectors.shape}")
    w = spectrum.eigenvalues.copy()
    smallest = float(w[-1])
    if not (smallest >= -STATE_ATOL):
        raise NumericalDomain(f"eigenvalue {smallest:.3g} is below -{STATE_ATOL:g}, "
                              "matrix is not positive semidefinite")
    w[w < 0.0] = 0.0
    root = Spectrum(np.sqrt(w), spectrum.eigenvectors).reconstruct()
    return (root + root.conj().T) / 2.0
