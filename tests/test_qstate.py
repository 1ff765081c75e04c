import numpy as np
import pytest

from conftest import random_density
from qiradar.channel import TargetParams, hypothesis_h0, hypothesis_h1
from qiradar.errors import MAX_DIMENSION, DimensionMismatch, NumericalDomain
from qiradar.qstate import DensityOperator, _checked_hermitian, eigendecompose_hermitian


class TestEigendecomposeHermitian:
    def test_diagonal(self):
        w, _ = eigendecompose_hermitian(np.diag([0.3, 0.7]))
        np.testing.assert_allclose(w, [0.7, 0.3], atol=1e-15)

    def test_pauli_x(self):
        w, _ = eigendecompose_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-12)

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(4242)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            herm = g + g.conj().T
            w, v = eigendecompose_hermitian(herm)
            np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, herm, atol=1e-8)
            assert np.all(np.diff(w) <= 1e-12)
            gram = v.conj().T @ v
            np.testing.assert_allclose(gram, np.eye(4), atol=1e-9)

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(88)
        for _ in range(10):
            rho = random_density(rng, 4)
            w, _ = eigendecompose_hermitian(rho)
            assert abs(w.sum() - 1.0) <= 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(NumericalDomain):
            eigendecompose_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("check", [eigendecompose_hermitian, _checked_hermitian])
    def test_stack_rejected(self, check):
        # One d×d matrix at a time: a stack of Hermitian matrices is not one.
        for shape in ((3, 2, 2), (0, 4, 4), (2, 3, 4, 4)):
            with pytest.raises(DimensionMismatch, match="must be square"):
                check(np.zeros(shape, dtype=complex))

    def test_residual_above_state_atol_rejected(self):
        # The one hermiticity tolerance: 2e-9 is past STATE_ATOL = 1e-9.
        m = np.eye(2, dtype=complex)
        m[0, 1] = 2e-9
        with pytest.raises(NumericalDomain, match="not Hermitian within 1e-09"):
            eigendecompose_hermitian(m)

    # One finiteness check runs before the hermiticity residual, so NaN is not
    # reported as "not Hermitian" and inf - inf never warns.
    @pytest.mark.parametrize("fill", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, fill):
        with pytest.raises(NumericalDomain, match="non-finite entry"):
            eigendecompose_hermitian(np.full((2, 2), fill))

    def test_non_square_rejected(self):
        for shape in ((4,), (2, 3), (5, 2, 3)):
            with pytest.raises(DimensionMismatch):
                eigendecompose_hermitian(np.zeros(shape))


class TestCheckedHermitian:
    @staticmethod
    def hermitian_part(mat):
        return (mat + mat.conj().swapaxes(-1, -2)) / 2.0

    def test_combinations_of_stored_states_come_back_bit_for_bit(self):
        # What the generic tests decompose: the model's states, their differences at the
        # priors and ROC thresholds, and perturbed random states. Each equals its adjoint,
        # is returned as it is, and holds the same bits as (A + A†)/2.
        rng = np.random.default_rng(31)
        pairs = [(hypothesis_h0(p), hypothesis_h1(TargetParams(phi, eta, p)))
                 for eta in (0.0, 0.35, 1.0) for p in (0.0, 1e-7, 0.5) for phi in (0.0, 1.0, 4.0)]
        pairs += [(random_density(rng, 4), random_density(rng, 4)) for _ in range(10)]
        for rho0, rho1 in pairs:
            for mat in (rho0.matrix, rho1.matrix, rho0.matrix - rho1.matrix,
                        0.3 * rho1.matrix - 0.7 * rho0.matrix,
                        *(rho1.matrix - t * rho0.matrix for t in (0.0, 0.4, 1.0, 8.0, 1e6))):
                assert _checked_hermitian(mat) is mat
                assert mat.tobytes() == self.hermitian_part(mat).tobytes()

    def test_small_asymmetry_is_symmetrised(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 1e-12
        got = _checked_hermitian(m)
        assert np.array_equal(got, self.hermitian_part(m))
        assert np.array_equal(got, got.conj().T) and got[0, 1] == 5e-13


class TestDensityOperatorInvariants:
    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(NumericalDomain):
            DensityOperator(m)

    def test_bad_trace_rejected(self):
        with pytest.raises(NumericalDomain):
            DensityOperator(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NumericalDomain):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_psd_floor_is_checked_on_the_hermitized_matrix(self):
        # The lower triangle alone has eigenvalues -9e-10, inside the window,
        # but (A + A†)/2, which every later eigensolve decomposes, reaches
        # -1.35e-9; accepting it let a later eigensolve see an eigenvalue past the window.
        m = np.diag([1 + 3.6e-9, -9e-10, -9e-10, -9e-10]).astype(complex)
        m[np.triu_indices(4, 1)] += 9e-10
        with pytest.raises(NumericalDomain, match="smallest eigenvalue"):
            DensityOperator(m)

    def test_hermitian_part_is_stored(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 5e-10 + 3e-10j
        m[1, 1] += 4e-10j
        stored = DensityOperator(m).matrix
        assert np.array_equal(stored, (m + m.conj().T) / 2)
        assert np.array_equal(stored, stored.conj().T)

    def test_combinations_of_perturbed_states_are_exactly_hermitian(self):
        # Off-diagonal residuals just inside STATE_ATOL: every real combination
        # of the stored matrices is Hermitian to the last bit, at any weight.
        rng = np.random.default_rng(606)
        off_diagonal = ~np.eye(4, dtype=bool)

        def perturbed():
            residual = rng.uniform(-3e-10, 3e-10, (2, 4, 4)) * off_diagonal
            return DensityOperator(random_density(rng, 4).matrix + residual[0]
                                   + 1j * residual[1]).matrix

        for _ in range(50):
            a, b = perturbed(), perturbed()
            for t in (1.0, 0.3, 30.0, 1e6):
                combination = a - t * b
                assert np.array_equal(combination, combination.conj().T)

    # A state is one d×d matrix with 1 <= d <= MAX_DIMENSION; the cap bounds CLAMP_WINDOW.
    @pytest.mark.parametrize("matrix", [
        np.eye(MAX_DIMENSION + 1) / (MAX_DIMENSION + 1), np.zeros((0, 0)), np.zeros((2, 3)),
        np.full(4, 0.25), np.eye(2)[None] / 2, np.array(1.0),
    ], ids=["past-the-cap", "0x0", "2x3", "vector", "stack", "scalar"])
    def test_what_is_not_d_by_d_within_the_cap_is_rejected(self, matrix):
        with pytest.raises(DimensionMismatch):
            DensityOperator(matrix)

    @pytest.mark.parametrize("d", [1, MAX_DIMENSION])
    def test_both_ends_of_the_dimension_range_build(self, d):
        assert DensityOperator(np.eye(d) / d).matrix.shape == (d, d)

    # NaN passes a "residual > tolerance" test, a 4x4 NaN matrix ends in
    # LinAlgError, and inf - inf warns (pyproject.toml makes that an error).
    @pytest.mark.parametrize("matrix", [
        np.full((2, 2), np.nan),
        np.full((4, 4), np.nan),
        np.array([[0.5, np.inf], [np.inf, 0.5]]),
        np.diag([np.inf, -np.inf]),
    ], ids=["nan-2x2", "nan-4x4", "inf-off-diagonal", "inf-diagonal"])
    def test_non_finite_entries_rejected(self, matrix):
        with pytest.raises(NumericalDomain, match="non-finite"):
            DensityOperator(matrix)

    # The trace check is what normalizes a state: a matrix scaled far past or below unit
    # trace fails it without a RuntimeWarning (pyproject.toml makes one an error).
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes_rejected(self, scale):
        with pytest.raises(NumericalDomain, match="trace deviates"):
            DensityOperator(np.eye(2) * scale)

    def test_subnormal_trace_rejected(self):
        with pytest.raises(NumericalDomain, match="trace deviates from 1 by 1"):
            DensityOperator(np.diag([1e-320, 1e-320]))

    # |a⟩⟨a| of an unnormalized, zero, NaN or infinite vector fails the trace or finiteness check.
    @pytest.mark.parametrize("amps", [[1.0, 1.0], [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]])
    def test_unnormalized_projector_rejected(self, amps):
        a = np.array(amps)
        with pytest.raises(NumericalDomain):
            DensityOperator(np.outer(a, a))

    def test_basis_projector(self):
        rho = DensityOperator(np.diag([1, 0]))
        assert rho.matrix.dtype == complex and rho.matrix.shape == (2, 2)
        np.testing.assert_array_equal(rho.matrix, np.diag([1.0, 0.0]))

    def test_complex_projector(self):
        a = np.array([1.0, 1j]) / np.sqrt(2.0)
        rho = DensityOperator(np.outer(a, a.conj()))
        np.testing.assert_allclose(rho.matrix, [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-15)

    # A rank-1 projector sits on the PSD boundary: its zero eigenvalues come out of eigvalsh
    # as roundoff of either sign, which the -STATE_ATOL floor accepts.
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_random_projectors_build_with_unit_purity(self, d):
        rng = np.random.default_rng(1351 + d)
        for _ in range(8):
            a = rng.normal(size=d) + 1j * rng.normal(size=d)
            a /= np.linalg.norm(a)
            m = DensityOperator(np.outer(a, a.conj())).matrix
            assert abs(float(np.trace(m @ m).real) - 1.0) <= 1e-9

    def test_stored_matrix_is_read_only(self):
        rho = DensityOperator(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_stored_matrix_does_not_alias_the_input(self):
        m = np.eye(2, dtype=complex) / 2
        rho = DensityOperator(m)
        m[0, 0] = 1.0
        np.testing.assert_array_equal(rho.matrix, np.eye(2) / 2)

    def test_random_constructions_pass(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            rho = random_density(rng, 4)
            m = rho.matrix
            assert float(np.max(np.abs(m - m.conj().T))) <= 1e-9
            assert abs(m.trace() - 1.0) <= 1e-9
            assert float(np.linalg.eigvalsh(m)[0]) >= -1e-9
