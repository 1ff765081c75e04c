import cmath
import math

import numpy as np
import pytest

from conftest import pure_pair, random_density
from qiradar import channel
from qiradar.channel import TargetParams, _h0_matrix, hypothesis_h0, hypothesis_h1
from qiradar.errors import DegenerateInput
from qiradar.metrics import trace_distance
from qiradar.qstate import DensityOperator

PHI_GRID = [k * math.pi / 4 for k in range(9)]           # 0 .. 2pi
ETA_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
P_GRID = [0.0, 0.25, 0.5, 0.9]


def reduced_idler(m):
    return m.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)


def reduced_return(m):
    return m.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


class TestTargetParams:
    def test_phase_reduced_to_principal_range(self):
        assert abs(TargetParams(2 * math.pi + 1.0, 1.0, 0.5).phase_phi - 1.0) <= 1e-12
        assert abs(TargetParams(-math.pi / 2, 1.0, 0.5).phase_phi - 3 * math.pi / 2) <= 1e-12
        assert TargetParams(0.0, 1.0, 0.5).phase_phi == 0.0

    def test_tiny_negative_phase_stays_in_range(self):
        phi = TargetParams(-1e-20, 1.0, 0.5).phase_phi
        assert 0.0 <= phi < 2 * math.pi

    def test_reflectivity_range(self):
        with pytest.raises(DegenerateInput):
            TargetParams(0.0, -0.1, 0.5)
        with pytest.raises(DegenerateInput):
            TargetParams(0.0, 1.1, 0.5)

    def test_noise_range(self):
        with pytest.raises(DegenerateInput):
            TargetParams(0.0, 1.0, 1.0)
        with pytest.raises(DegenerateInput):
            TargetParams(0.0, 1.0, -0.2)


class TestHypotheses:
    def test_h0_maximally_mixed_at_half(self):
        np.testing.assert_allclose(hypothesis_h0(0.5).matrix, np.eye(4) / 4, atol=1e-15)

    def test_h0_vacuum_noise(self):
        np.testing.assert_allclose(hypothesis_h0(0.0).matrix,
                                   np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-15)

    def test_h0_matrix_bits_equal_the_kronecker_product(self):
        edges = [0.0, 5e-324, 1e-300, 0.5, math.nextafter(1.0, 0.0)]
        for p in edges + list(np.random.default_rng(20240).random(200)):
            kron = np.kron(np.diag([1.0 - p, p]).astype(complex), np.eye(2, dtype=complex) / 2.0)
            assert _h0_matrix(p).tobytes() == kron.tobytes(), p

    def test_stored_states_give_every_eigensolve_the_bits_it_had(self, monkeypatch):
        # DensityOperator stores (A + A†)/2. ρ₀ and ρ₁'s off-diagonal entries
        # are stored exactly as built; the fused multiply-add in complex
        # multiplication can leave about 1e-17 on the imaginary part of ρ₁'s
        # |11⟩ diagonal entry, which is dropped. Each eigensolve decomposes the
        # Hermitian part of a combination of the built matrices, and that
        # must not move by one bit, so report bytes cannot move.
        built = []

        def recording(matrix):
            built.append(matrix)
            return DensityOperator(matrix)

        monkeypatch.setattr(channel, "DensityOperator", recording)
        off_diagonal = ~np.eye(4, dtype=bool)
        for phi in PHI_GRID + [1.0, 3.0, 5.5]:
            for eta in ETA_GRID + [1e-12]:
                for p in P_GRID + [1e-7]:
                    rho0, rho1 = hypothesis_h0(p), hypothesis_h1(TargetParams(phi, eta, p))
                    raw0, raw1 = built[-2:]
                    assert rho0.matrix.tobytes() == raw0.tobytes()
                    assert rho1.matrix[off_diagonal].tobytes() == raw1[off_diagonal].tobytes()
                    assert rho1.matrix.real.tobytes() == raw1.real.tobytes()
                    for w0, w1 in ((1.0, 1.0), (0.7, 0.3), (4.15, 1.0)):
                        raw = w1 * raw1 - w0 * raw0
                        stored = w1 * rho1.matrix - w0 * rho0.matrix
                        assert stored.tobytes() == ((raw + raw.conj().T) / 2.0).tobytes()

    def test_h0_return_factor(self):
        np.testing.assert_allclose(reduced_return(hypothesis_h0(0.3).matrix), np.diag([0.7, 0.3]), atol=1e-15)

    def test_h0_excitation_range_rejected(self):
        for p in (1.0, -0.1):
            with pytest.raises(DegenerateInput):
                hypothesis_h0(p)

    def test_h0_idler_factor(self):
        for p in P_GRID:
            np.testing.assert_allclose(reduced_idler(hypothesis_h0(p).matrix), np.eye(2) / 2,
                                       atol=1e-12)

    def test_h1_pure_at_full_reflectivity(self):
        for phi in (0.0, math.pi / 3, math.pi):
            rho1 = hypothesis_h1(TargetParams(phi, 1.0, 0.5))
            np.testing.assert_allclose(rho1.matrix, pure_pair(phi)[1].matrix, atol=1e-12)
            purity = float(np.trace(rho1.matrix @ rho1.matrix).real)
            assert abs(purity - 1.0) <= 1e-10

    def test_h1_collapses_to_h0_without_return(self):
        for phi in (0.0, 1.0, 4.5):
            rho1 = hypothesis_h1(TargetParams(phi, 0.0, 0.3))
            np.testing.assert_allclose(rho1.matrix, hypothesis_h0(0.3).matrix, atol=1e-15)

    def test_h1_convex_combination(self):
        rho1 = hypothesis_h1(TargetParams(0.0, 0.5, 0.5))
        bell = pure_pair(0.0)[0].matrix
        np.testing.assert_allclose(rho1.matrix, 0.5 * bell + 0.125 * np.eye(4), atol=1e-12)

    def test_grid_produces_valid_densities(self):
        # DensityOperator construction enforces hermiticity/trace/PSD itself.
        for phi in PHI_GRID:
            for eta in ETA_GRID:
                for p in P_GRID:
                    rho1 = hypothesis_h1(TargetParams(phi, eta, p))
                    assert abs(rho1.matrix.trace() - 1.0) <= 1e-9

    def test_phase_locally_invisible(self):
        # The idler alone never tells H1 from H0: its state is I/2 at every η, φ and p.
        for phi in PHI_GRID:
            for eta in ETA_GRID:
                for p in P_GRID:
                    m = hypothesis_h1(TargetParams(phi, eta, p)).matrix
                    np.testing.assert_allclose(reduced_idler(m), np.eye(2) / 2, atol=1e-12)

    def test_h1_two_pi_periodicity(self):
        rng = np.random.default_rng(271828)
        for _ in range(20):
            phi, eta, p = rng.uniform(-10.0, 10.0), rng.uniform(), rng.uniform(0.0, 0.99)
            a = hypothesis_h1(TargetParams(phi, eta, p)).matrix
            b = hypothesis_h1(TargetParams(phi + 2 * math.pi, eta, p)).matrix
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_trace_distance_monotone_in_reflectivity(self):
        rho0 = hypothesis_h0(0.5)
        distances = [
            trace_distance(rho0, hypothesis_h1(TargetParams(math.pi, eta, 0.5)))
            for eta in ETA_GRID
        ]
        assert all(b >= a - 1e-12 for a, b in zip(distances, distances[1:]))


class TestReducedStates:
    """The reduced states of the model's two hypotheses on return ⊗ idler, return first."""

    def test_reshape_and_trace_matches_the_summation_oracle(self):
        # Direct summation over the traced-out basis (index 2r + i), no reshape.
        def oracle(m, keep_idler):
            out = np.zeros((2, 2), dtype=complex)
            for a in range(2):
                for b in range(2):
                    for s in range(2):
                        i, j = (2 * s + a, 2 * s + b) if keep_idler else (2 * a + s, 2 * b + s)
                        out[a, b] += m[i, j]
            return out

        for phi in (0.0, 1.0, 4.0):
            for eta in ETA_GRID:
                m = hypothesis_h1(TargetParams(phi, eta, 0.3)).matrix
                np.testing.assert_allclose(reduced_idler(m), oracle(m, True), atol=1e-15)
                np.testing.assert_allclose(reduced_return(m), oracle(m, False), atol=1e-15)

    def test_reshape_and_trace_inverts_the_kronecker_product(self):
        rng = np.random.default_rng(777)
        for _ in range(30):
            a, b = random_density(rng, 2).matrix, random_density(rng, 2).matrix
            joint = np.kron(a, b)
            np.testing.assert_allclose(reduced_return(joint), a, atol=1e-12)
            np.testing.assert_allclose(reduced_idler(joint), b, atol=1e-12)

    # The pair's return half is I/2, so ρ₁'s return state mixes it with ρ₀'s diag(1 − p, p).
    @pytest.mark.parametrize("eta", ETA_GRID)
    def test_h1_return_state(self, eta):
        for p in P_GRID:
            for phi in PHI_GRID:
                m = hypothesis_h1(TargetParams(phi, eta, p)).matrix
                expected = eta * np.eye(2) / 2 + (1.0 - eta) * np.diag([1.0 - p, p])
                np.testing.assert_allclose(reduced_return(m), expected, atol=1e-12)

    # diag(1, e^{iφ}) ⊗ I moves only the |11⟩ amplitude: of ρ₁ just the |00⟩⟨11| coherence
    # and its adjoint depend on φ, as η e^{∓iφ}/2 (at φ = π the corner flips sign).
    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_only_the_corner_coherences_carry_the_phase(self, phi):
        corners = np.zeros((4, 4), dtype=bool)
        corners[0, 3] = corners[3, 0] = True
        for eta in ETA_GRID:
            m = hypothesis_h1(TargetParams(phi, eta, 0.4)).matrix
            m0 = hypothesis_h1(TargetParams(0.0, eta, 0.4)).matrix
            np.testing.assert_allclose(m[~corners], m0[~corners], rtol=0.0, atol=1e-15)
            assert abs(m[3, 0] - eta * cmath.exp(1j * phi) / 2) <= 1e-12
            assert abs(m[0, 3] - eta * cmath.exp(-1j * phi) / 2) <= 1e-12

    def test_overlap_with_the_unshifted_pair(self):
        # ⟨ψ|ρ₁|ψ⟩ = cos²(φ/2) at η = 1, with |ψ⟩ the pair before the target.
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        for phi in PHI_GRID:
            m = hypothesis_h1(TargetParams(phi, 1.0, 0.5)).matrix
            assert abs(float((bell @ m @ bell).real) - math.cos(phi / 2) ** 2) <= 1e-12
