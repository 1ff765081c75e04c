import numpy as np
import pytest

from conftest import random_density, random_pure
from qiradar.channel import TargetParams, hypothesis_h0, hypothesis_h1
from qiradar.errors import DegenerateInput, DimensionMismatch, NumericalDomain
from qiradar.qstate import (
    DensityOperator,
    PureState,
    _checked_hermitian,
    bell_phi_plus,
    density_from_pure,
    eigendecompose_hermitian,
    partial_trace,
    sqrt_psd,
)

def manual_reduced_state(rho, keep_second):
    """Independent partial-trace oracle for a 2x2-subsystem operator: direct
    summation over the traced-out basis, no reshape tricks."""
    out = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            for s in range(2):
                if keep_second:
                    out[a, b] += rho.matrix[2 * s + a, 2 * s + b]
                else:
                    out[a, b] += rho.matrix[2 * a + s, 2 * b + s]
    return out


class TestPureState:
    def test_basis_state(self):
        psi = PureState([1, 0], [2])
        np.testing.assert_allclose(psi.amplitudes, [1.0, 0.0], atol=1e-15)
        assert psi.dims == (2,)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            PureState([1, 0, 0], [2, 2])

    def test_dimension_cap(self):
        with pytest.raises(DimensionMismatch):
            PureState([1] + [0] * 31, [2] * 5)

    # The norm is taken after scaling by the largest |amplitude|, so squaring
    # neither overflows (1e200) nor underflows to 0 (1e-200): both are rejected
    # as unnormalized without a RuntimeWarning.
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes_rejected(self, scale):
        with pytest.raises(DegenerateInput):
            PureState(np.array([scale, scale]), (2,))

    def test_complex_amplitudes_normalized(self):
        psi = PureState([1 / np.sqrt(2.0), 1j / np.sqrt(2.0)], [2])
        assert psi.amplitudes.dtype == complex
        norm_sq = float(np.vdot(psi.amplitudes, psi.amplitudes).real)
        assert abs(norm_sq - 1.0) <= 1e-12

    def test_subnormal_norm_rejected(self):
        # Scaling by the largest |amplitude| keeps a subnormal norm from reading as 0.
        with pytest.raises(DegenerateInput, match="state norm 1.4"):
            PureState([1e-320, 1e-320], [2])

    # Dimensions go through the shared integer gate: int() would truncate
    # 2.7 to 2 and read "2" as 2.
    @pytest.mark.parametrize("dims", [[2.7], [2.0], ["2"], [True, 2], [np.float64(2)], 2])
    def test_non_integer_dims_rejected(self, dims):
        with pytest.raises(DimensionMismatch):
            PureState([1, 0], dims)

    def test_numpy_integer_dims_accepted(self):
        psi = PureState([1, 0], [np.int64(2)])
        assert psi.dims == (2,) and type(psi.dims[0]) is int
        assert psi.dimension == 2

    # A zero, NaN or infinite norm must fail the norm tolerance.
    @pytest.mark.parametrize("amps", [[1.0, 1.0], [0, 0], [np.nan, 1.0], [np.inf, 1.0]])
    def test_unnormalized_constructor_rejected(self, amps):
        with pytest.raises(DegenerateInput):
            PureState(np.array(amps), (2,))


class TestBellPhiPlus:
    def test_amplitudes(self):
        psi = bell_phi_plus()
        np.testing.assert_allclose(psi.amplitudes, [0.7071067811865476, 0, 0, 0.7071067811865476],
                                   atol=1e-12)
        assert psi.dims == (2, 2)

    def test_reduced_idler_is_maximally_mixed(self):
        rho = density_from_pure(bell_phi_plus())
        reduced = partial_trace(rho, {1})
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-10)
        # Cross-check against the independent summation oracle.
        np.testing.assert_allclose(manual_reduced_state(rho, keep_second=True),
                                   np.eye(2) / 2, atol=1e-12)

    def test_unit_norm(self):
        psi = bell_phi_plus()
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes) - 1.0) <= 1e-12


class TestDensityFromPure:
    def test_basis_projector(self):
        rho = density_from_pure(PureState([1, 0], [2]))
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_bell_corners(self):
        rho = density_from_pure(bell_phi_plus())
        amps = bell_phi_plus().amplitudes
        np.testing.assert_allclose(rho.matrix, np.outer(amps, amps.conj()), atol=1e-15)
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            assert abs(rho.matrix[i, j] - 0.5) <= 1e-12

    def test_purity(self):
        rng = np.random.default_rng(1351)
        for dims in [(2,), (2, 2), (2, 2, 2)]:
            for _ in range(8):
                rho = density_from_pure(random_pure(rng, dims))
                purity = float(np.trace(rho.matrix @ rho.matrix).real)
                assert abs(purity - 1.0) <= 1e-9


class TestPartialTrace:
    def test_product_basis_keep_second(self):
        ket01 = PureState([0, 1, 0, 0], [2, 2])  # |0⟩ first, |1⟩ second
        rho = density_from_pure(ket01)
        out = partial_trace(rho, {1})
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0]), atol=1e-15)

    def test_three_subsystems(self):
        rng = np.random.default_rng(5621)
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        c = random_density(rng, 2)
        joint = DensityOperator(np.kron(np.kron(a.matrix, b.matrix), c.matrix), (2, 2, 2))
        np.testing.assert_allclose(partial_trace(joint, {1}).matrix, b.matrix, atol=1e-10)
        two = partial_trace(joint, {0, 2})
        np.testing.assert_allclose(two.matrix, np.kron(a.matrix, c.matrix), atol=1e-10)

    def test_inverts_the_kronecker_product(self):
        rng = np.random.default_rng(777)
        for _ in range(30):
            a = random_density(rng, 2)
            b = random_density(rng, 2)
            joint = DensityOperator(np.kron(a.matrix, b.matrix), (2, 2))
            np.testing.assert_allclose(partial_trace(joint, {0}).matrix, a.matrix, atol=1e-10)
            np.testing.assert_allclose(partial_trace(joint, {1}).matrix, b.matrix, atol=1e-10)

    def test_maximally_mixed_product(self):
        joint = DensityOperator(np.eye(4) / 4, (2, 2))
        for keep in ({0}, {1}):
            np.testing.assert_allclose(partial_trace(joint, keep).matrix, np.eye(2) / 2, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(33)
        rho = random_density(rng, 4, dims=(2, 2))
        out = partial_trace(rho, {0})
        assert abs(out.matrix.trace() - 1.0) <= 1e-12

    def test_invalid_index_rejected(self):
        rho = density_from_pure(bell_phi_plus())
        with pytest.raises(DimensionMismatch):
            partial_trace(rho, {2})
        with pytest.raises(DimensionMismatch):
            partial_trace(rho, set())

    # int() would keep subsystem 0 for 0.9 and for "0".
    @pytest.mark.parametrize("keep", [[0.9], ["0"], [True], [-1], 0])
    def test_non_integer_index_rejected(self, keep):
        with pytest.raises(DimensionMismatch):
            partial_trace(density_from_pure(bell_phi_plus()), keep)


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
            rho = random_density(rng, 4, dims=(4,))
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
    @pytest.mark.parametrize("decompose", [eigendecompose_hermitian, sqrt_psd])
    def test_non_finite_entries_rejected(self, decompose, fill):
        with pytest.raises(NumericalDomain, match="non-finite entry"):
            decompose(np.full((2, 2), fill))

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


class TestSqrtPsd:
    def test_scaled_identity(self):
        np.testing.assert_allclose(sqrt_psd(np.eye(4) / 4), np.eye(4) / 2, atol=1e-12)

    def test_diagonal(self):
        out = sqrt_psd(np.diag([0.25, 0.75]))
        np.testing.assert_allclose(out, np.diag([0.5, 0.8660254037844386]), atol=1e-12)

    def test_squaring_roundtrip(self):
        rng = np.random.default_rng(1999)
        for dim in (2, 4, 8):
            for _ in range(10):
                g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                psd = g @ g.conj().T / dim
                root = sqrt_psd(psd)
                np.testing.assert_allclose(root @ root, psd, atol=1e-8)
                np.testing.assert_allclose(root, root.conj().T, atol=1e-12)

    def test_clamps_roundoff_negatives(self):
        root = sqrt_psd(np.diag([1.0, -5e-11]))
        assert root[1, 1] == 0.0

    def test_genuinely_negative_rejected(self):
        with pytest.raises(NumericalDomain):
            sqrt_psd(np.diag([1.0, -1e-6]))

    def test_stack_rejected(self):
        for d in (1, 2, 4):
            with pytest.raises(DimensionMismatch):
                sqrt_psd(np.broadcast_to(np.eye(d) / d, (3, d, d)))

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionMismatch, match="non-empty"):
            sqrt_psd(np.zeros((0, 0)))


class TestDensityOperatorInvariants:
    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(NumericalDomain):
            DensityOperator(m, (2,))

    def test_bad_trace_rejected(self):
        with pytest.raises(NumericalDomain):
            DensityOperator(np.eye(2), (2,))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NumericalDomain):
            DensityOperator(np.diag([1.5, -0.5]), (2,))

    def test_psd_floor_is_checked_on_the_hermitized_matrix(self):
        # The lower triangle alone has eigenvalues -9e-10, inside the window,
        # but (A + A†)/2, which every later eigensolve decomposes, reaches
        # -1.35e-9; accepting it let fidelity(a, a) raise NumericalDomain.
        m = np.diag([1 + 3.6e-9, -9e-10, -9e-10, -9e-10]).astype(complex)
        m[np.triu_indices(4, 1)] += 9e-10
        with pytest.raises(NumericalDomain, match="smallest eigenvalue"):
            DensityOperator(m, (4,))

    def test_hermitian_part_is_stored(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 5e-10 + 3e-10j
        m[1, 1] += 4e-10j
        stored = DensityOperator(m, (2,)).matrix
        assert np.array_equal(stored, (m + m.conj().T) / 2)
        assert np.array_equal(stored, stored.conj().T)

    def test_combinations_of_perturbed_states_are_exactly_hermitian(self):
        # Off-diagonal residuals just inside STATE_ATOL: every real combination
        # of the stored matrices is Hermitian to the last bit, at any weight.
        rng = np.random.default_rng(606)
        off_diagonal = ~np.eye(4, dtype=bool)

        def perturbed():
            residual = rng.uniform(-3e-10, 3e-10, (2, 4, 4)) * off_diagonal
            return DensityOperator(random_density(rng, 4).matrix + residual[0] + 1j * residual[1],
                                   (2, 2)).matrix

        for _ in range(50):
            a, b = perturbed(), perturbed()
            for t in (1.0, 0.3, 30.0, 1e6):
                combination = a - t * b
                assert np.array_equal(combination, combination.conj().T)

    def test_shape_dims_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            DensityOperator(np.eye(2) / 2, (2, 2))

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
            DensityOperator(matrix, (matrix.shape[0],))

    def test_random_constructions_pass(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            rho = random_density(rng, 4, dims=(2, 2))
            m = rho.matrix
            assert float(np.max(np.abs(m - m.conj().T))) <= 1e-9
            assert abs(m.trace() - 1.0) <= 1e-9
            assert float(np.linalg.eigvalsh(m)[0]) >= -1e-9
