import math

import numpy as np
import pytest

from conftest import random_pure
from qiradar import channel
from qiradar.channel import (
    TargetParams,
    _h0_matrix,
    apply_signal_phase,
    hypothesis_h0,
    hypothesis_h1,
)
from qiradar.errors import DegenerateInput, DimensionMismatch
from qiradar.metrics import trace_distance
from qiradar.qstate import (
    DensityOperator,
    PureState,
    bell_phi_plus,
    density_from_pure,
    partial_trace,
)

PHI_GRID = [k * math.pi / 4 for k in range(9)]           # 0 .. 2pi
ETA_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
P_GRID = [0.0, 0.25, 0.5, 0.9]


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


class TestApplySignalPhase:
    def test_zero_phase_is_identity(self):
        psi = bell_phi_plus()
        out = apply_signal_phase(psi, 0.0)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-15)

    def test_pi_flips_the_corner(self):
        out = apply_signal_phase(bell_phi_plus(), math.pi)
        inv = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(out.amplitudes, [inv, 0, 0, -inv], atol=1e-12)

    def test_overlap_closed_form(self):
        # |⟨ψ|ψ′⟩|² = cos²(φ/2), checked by direct vector arithmetic.
        psi = bell_phi_plus()
        for phi in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
            shifted = apply_signal_phase(psi, phi)
            overlap_sq = abs(np.vdot(psi.amplitudes, shifted.amplitudes)) ** 2
            assert abs(overlap_sq - math.cos(phi / 2) ** 2) <= 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(61803)
        for _ in range(30):
            psi = random_pure(rng, (2, 2))
            phi = rng.uniform(-10.0, 10.0)
            out = apply_signal_phase(psi, phi)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12

    def test_only_signal_one_block_changes(self):
        psi = PureState([0.5, 0.5, 0.5, 0.5], [2, 2])
        out = apply_signal_phase(psi, math.pi / 3)
        np.testing.assert_allclose(out.amplitudes[:2], psi.amplitudes[:2], atol=1e-15)
        factor = out.amplitudes[2:] / psi.amplitudes[2:]
        np.testing.assert_allclose(factor, np.exp(1j * math.pi / 3) * np.ones(2), atol=1e-12)

    def test_two_pi_periodicity(self):
        rng = np.random.default_rng(271828)
        for _ in range(10):
            psi = random_pure(rng, (2, 2))
            phi = rng.uniform(0.0, 2 * math.pi)
            a = apply_signal_phase(psi, phi)
            b = apply_signal_phase(psi, phi + 2 * math.pi)
            np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)

    def test_wrong_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            apply_signal_phase(PureState([1, 0], [2]), 0.5)
        with pytest.raises(DimensionMismatch):
            apply_signal_phase(PureState([1, 0, 0, 0], [4]), 0.5)


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

        def recording(matrix, dims):
            built.append(matrix)
            return DensityOperator(matrix, dims)

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
        rho = partial_trace(hypothesis_h0(0.3), {0})
        np.testing.assert_allclose(rho.matrix, np.diag([0.7, 0.3]), atol=1e-15)

    def test_h0_excitation_range_rejected(self):
        for p in (1.0, -0.1):
            with pytest.raises(DegenerateInput):
                hypothesis_h0(p)

    def test_h0_idler_factor(self):
        for p in P_GRID:
            reduced = partial_trace(hypothesis_h0(p), {1})
            np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_h1_pure_at_full_reflectivity(self):
        for phi in (0.0, math.pi / 3, math.pi):
            rho1 = hypothesis_h1(TargetParams(phi, 1.0, 0.5))
            psi = apply_signal_phase(bell_phi_plus(), phi)
            np.testing.assert_allclose(rho1.matrix, density_from_pure(psi).matrix, atol=1e-12)
            purity = float(np.trace(rho1.matrix @ rho1.matrix).real)
            assert abs(purity - 1.0) <= 1e-10

    def test_h1_collapses_to_h0_without_return(self):
        for phi in (0.0, 1.0, 4.5):
            rho1 = hypothesis_h1(TargetParams(phi, 0.0, 0.3))
            np.testing.assert_allclose(rho1.matrix, hypothesis_h0(0.3).matrix, atol=1e-15)

    def test_h1_convex_combination(self):
        rho1 = hypothesis_h1(TargetParams(0.0, 0.5, 0.5))
        bell = density_from_pure(bell_phi_plus()).matrix
        np.testing.assert_allclose(rho1.matrix, 0.5 * bell + 0.125 * np.eye(4), atol=1e-12)

    def test_grid_produces_valid_densities(self):
        # DensityOperator construction enforces hermiticity/trace/PSD itself.
        for phi in PHI_GRID:
            for eta in ETA_GRID:
                for p in P_GRID:
                    rho1 = hypothesis_h1(TargetParams(phi, eta, p))
                    assert abs(rho1.matrix.trace() - 1.0) <= 1e-9

    def test_phase_locally_invisible(self):
        # For eta=1 the reduced idler state of rho1 is I/2 whatever the phase.
        for phi in PHI_GRID:
            rho1 = hypothesis_h1(TargetParams(phi, 1.0, 0.5))
            reduced = partial_trace(rho1, {1})
            np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-10)

    def test_trace_distance_monotone_in_reflectivity(self):
        rho0 = hypothesis_h0(0.5)
        distances = [
            trace_distance(rho0, hypothesis_h1(TargetParams(math.pi, eta, 0.5)))
            for eta in ETA_GRID
        ]
        assert all(b >= a - 1e-12 for a, b in zip(distances, distances[1:]))
