import math

import numpy as np
import pytest
import scipy.linalg

from conftest import random_density, random_pure, random_unitary
from qiradar.channel import TargetParams, apply_signal_phase, hypothesis_h0, hypothesis_h1
from qiradar.errors import DegenerateInput, DimensionMismatch, NumericalDomain
from qiradar.metrics import (
    DistinguishabilityReport,
    distinguishability,
    fidelity,
    helstrom_error,
    trace_distance,
)
from qiradar.qstate import DensityOperator, bell_phi_plus, density_from_pure

KET0 = DensityOperator(np.diag([1.0, 0.0]), (2,))
KET1 = DensityOperator(np.diag([0.0, 1.0]), (2,))


def phase_pair(phi):
    """The entangled pair and its phase-shifted copy, both as projectors."""
    psi = bell_phi_plus()
    return density_from_pure(psi), density_from_pure(apply_signal_phase(psi, phi))


def nuclear_norm(matrix):
    """Independent trace-norm oracle via singular values."""
    return float(np.linalg.svd(matrix, compute_uv=False).sum())


def sqrtm_fidelity(a, b):
    """Independent fidelity oracle via scipy's general matrix square root."""
    root_a = scipy.linalg.sqrtm(a.matrix)
    inner = scipy.linalg.sqrtm(root_a @ b.matrix @ root_a)
    return float(np.trace(inner).real) ** 2


class TestTraceDistance:
    def test_identical_states(self):
        rho = random_density(np.random.default_rng(7), 4, dims=(2, 2))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert abs(trace_distance(KET0, KET1) - 1.0) <= 1e-12

    def test_pure_phase_pair_closed_form(self):
        a, b = phase_pair(math.pi / 2)
        assert abs(trace_distance(a, b) - math.sin(math.pi / 4)) <= 1e-10

    def test_matches_singular_value_oracle(self):
        rng = np.random.default_rng(314)
        for _ in range(20):
            a = random_density(rng, 4, dims=(2, 2))
            b = random_density(rng, 4, dims=(2, 2))
            oracle = 0.5 * nuclear_norm(a.matrix - b.matrix)
            assert abs(trace_distance(a, b) - oracle) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(DimensionMismatch):
            trace_distance(random_density(rng, 2), random_density(rng, 4, dims=(4,)))
        with pytest.raises(DimensionMismatch):
            trace_distance(random_density(rng, 4, dims=(4,)),
                           random_density(rng, 4, dims=(2, 2)))

    def test_metric_axioms(self):
        rng = np.random.default_rng(515)
        for _ in range(60):
            a = random_density(rng, 4, dims=(2, 2))
            b = random_density(rng, 4, dims=(2, 2))
            c = random_density(rng, 4, dims=(2, 2))
            dab, dba = trace_distance(a, b), trace_distance(b, a)
            assert dab >= 0.0
            assert abs(dab - dba) <= 1e-9
            assert trace_distance(a, c) <= dab + trace_distance(b, c) + 1e-9
        # Identity of indiscernibles, both directions.
        assert trace_distance(KET0, KET0) == 0.0
        near = DensityOperator(KET0.matrix * (1 - 1e-12) + KET1.matrix * 1e-12, (2,))
        assert trace_distance(KET0, near) <= 1e-9


class TestFidelity:
    def test_identical_states(self):
        rho = random_density(np.random.default_rng(17), 4, dims=(2, 2))
        assert abs(fidelity(rho, rho) - 1.0) <= 1e-9

    def test_orthogonal_pure_states(self):
        assert fidelity(KET0, KET1) <= 1e-12

    def test_pure_phase_pair_closed_form(self):
        for phi in (math.pi / 3, math.pi / 2, math.pi):
            a, b = phase_pair(phi)
            assert abs(fidelity(a, b) - math.cos(phi / 2) ** 2) <= 1e-10

    def test_matches_scipy_sqrtm_oracle(self):
        rng = np.random.default_rng(1618)
        for _ in range(10):
            a = random_density(rng, 4, dims=(2, 2))
            b = random_density(rng, 4, dims=(2, 2))
            assert abs(fidelity(a, b) - sqrtm_fidelity(a, b)) <= 1e-8

    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            a = random_density(rng, 4, dims=(2, 2))
            b = random_density(rng, 4, dims=(2, 2))
            f = fidelity(a, b)
            assert 0.0 <= f <= 1.0

    def test_accepts_every_state_the_constructor_accepts(self):
        # An eigenvalue of -5e-10 is inside DensityOperator's window, so the
        # square root must clamp it rather than raise.
        a = DensityOperator(np.diag([0.5 + 5e-10, 0.5, 0.0, -5e-10]).astype(complex), dims=(2, 2))
        b = hypothesis_h0(0.2)
        for first, second in ((a, b), (b, a)):
            assert 0.0 <= fidelity(first, second) <= 1.0
            distinguishability(first, second)


class TestHelstromError:
    def test_identical_states(self):
        rho = random_density(np.random.default_rng(29), 4, dims=(2, 2))
        assert helstrom_error(rho, rho, (0.5, 0.5)) == 0.5

    def test_orthogonal_pure_states(self):
        assert helstrom_error(KET0, KET1, (0.5, 0.5)) <= 1e-12

    def test_pure_phase_pair_closed_form(self):
        a, b = phase_pair(math.pi / 2)
        expected = 0.5 * (1.0 - math.sin(math.pi / 4))
        assert abs(helstrom_error(a, b, (0.5, 0.5)) - expected) <= 1e-10

    def test_equal_prior_reduction(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = random_density(rng, 4, dims=(2, 2))
            b = random_density(rng, 4, dims=(2, 2))
            reduction = 0.5 * (1.0 - trace_distance(a, b))
            assert abs(helstrom_error(a, b, (0.5, 0.5)) - reduction) <= 1e-12

    def test_unequal_priors_against_nuclear_norm(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            a = random_density(rng, 4, dims=(2, 2))
            b = random_density(rng, 4, dims=(2, 2))
            p0 = rng.uniform(0.05, 0.95)
            priors = (p0, 1.0 - p0)
            oracle = 0.5 * (1.0 - nuclear_norm(priors[1] * b.matrix - priors[0] * a.matrix))
            value = helstrom_error(a, b, priors)
            assert abs(value - oracle) <= 1e-10
            assert 0.0 <= value <= max(priors) + 1e-12

    def test_invalid_priors_rejected(self):
        with pytest.raises(DegenerateInput):
            helstrom_error(KET0, KET1, (0.6, 0.6))
        with pytest.raises(DegenerateInput):
            helstrom_error(KET0, KET1, (-0.1, 1.1))
        with pytest.raises(DegenerateInput):
            helstrom_error(KET0, KET1, (1.0,))


class TestSharedProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            a = random_density(rng, 4, dims=(2, 2))
            b = random_density(rng, 4, dims=(2, 2))
            assert abs(trace_distance(a, b) - trace_distance(b, a)) <= 1e-9
            assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-9

    def test_unitary_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            a = random_density(rng, 4, dims=(2, 2))
            b = random_density(rng, 4, dims=(2, 2))
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            ua = DensityOperator(u @ a.matrix @ u.conj().T, (2, 2))
            ub = DensityOperator(u @ b.matrix @ u.conj().T, (2, 2))
            assert abs(trace_distance(a, b) - trace_distance(ua, ub)) <= 1e-9
            assert abs(fidelity(a, b) - fidelity(ua, ub)) <= 1e-9

    def test_pure_state_consistency(self):
        # The general fidelity formula takes square roots of rank-1 products,
        # where eigensolver noise near the zero eigenvalues inflates to the
        # square root of machine epsilon; 1e-7 absorbs that amplification.
        rng = np.random.default_rng(47)
        for _ in range(20):
            psi = random_pure(rng, (2, 2))
            chi = random_pure(rng, (2, 2))
            a, b = density_from_pure(psi), density_from_pure(chi)
            f = fidelity(a, b)
            assert abs(f - abs(psi.overlap(chi)) ** 2) <= 1e-7
            assert abs(trace_distance(a, b) - math.sqrt(1.0 - f)) <= 1e-7

    def test_fuchs_van_de_graaff_on_channel_grid(self):
        for phi in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
            for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
                for p in (0.0, 0.25, 0.5, 0.9):
                    rho0 = hypothesis_h0(p)
                    rho1 = hypothesis_h1(TargetParams(phi, eta, p))
                    d = trace_distance(rho0, rho1)
                    f = fidelity(rho0, rho1)
                    assert 1.0 - math.sqrt(f) <= d + 1e-7
                    assert d <= math.sqrt(1.0 - f) + 1e-7


class TestDistinguishabilityReport:
    def test_bundles_all_three_metrics(self):
        rng = np.random.default_rng(53)
        a = random_density(rng, 4, dims=(2, 2))
        b = random_density(rng, 4, dims=(2, 2))
        report = distinguishability(a, b)
        assert report.trace_distance == trace_distance(a, b)
        assert report.fidelity == fidelity(a, b)
        assert report.helstrom_error == helstrom_error(a, b, (0.5, 0.5))
        assert report.priors == (0.5, 0.5)

    def test_sandwich_violation_rejected(self):
        # D = 0.9 with F = 0.9 would break D <= sqrt(1-F) ~ 0.316.
        with pytest.raises(NumericalDomain):
            DistinguishabilityReport(0.9, 0.9, 0.05, (0.5, 0.5))

    def test_out_of_range_rejected(self):
        with pytest.raises(NumericalDomain):
            DistinguishabilityReport(1.5, 0.2, 0.1, (0.5, 0.5))
        with pytest.raises(NumericalDomain):
            DistinguishabilityReport(0.5, 0.2, 0.7, (0.5, 0.5))
