import math

import mpmath
import numpy as np
import pytest

import mp_oracle as mp
from conftest import pure_pair, random_density, random_unitary
from qiradar import closed_form
from qiradar.channel import TargetParams, hypothesis_h0, hypothesis_h1
from qiradar.detector import roc_sweep
from qiradar.errors import (CLAMP_WINDOW, DegenerateInput, DimensionMismatch, NumericalDomain,
                            check_priors, clamp_unit)
from qiradar.metrics import helstrom_error, trace_distance
from qiradar.qstate import DensityOperator

KET0 = DensityOperator(np.diag([1.0, 0.0]))
KET1 = DensityOperator(np.diag([0.0, 1.0]))


def edge_state(d, first, tilt=0.0):
    """A state DensityOperator accepts at the edge of its tolerances: trace
    1 + 9e-10, all weight on basis state ``first`` and -9e-10 on the d - 1
    others, and ``tilt`` added above the diagonal and subtracted below it (a
    hermiticity residual of 2·|tilt|, which the constructor accepts up to
    1e-9). The residual is anti-Hermitian: a Hermitian one would move the
    eigenvalues of (A + A†)/2 below the constructor's -1e-9 floor."""
    eps = 9e-10
    diagonal = np.full(d, -eps)
    diagonal[first] = 1.0 + eps + (d - 1) * eps
    matrix = np.diag(diagonal).astype(complex)
    matrix[np.triu_indices(d, 1)] = tilt
    matrix[np.tril_indices(d, -1)] = -tilt
    return DensityOperator(matrix)


def nuclear_norm(matrix):
    """Independent trace-norm oracle via singular values."""
    return float(np.linalg.svd(matrix, compute_uv=False).sum())


class TestTraceDistance:
    def test_identical_states(self):
        rho = random_density(np.random.default_rng(7), 4)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert abs(trace_distance(KET0, KET1) - 1.0) <= 1e-12

    def test_pure_phase_pair_closed_form(self):
        a, b = pure_pair(math.pi / 2)
        assert abs(trace_distance(a, b) - math.sin(math.pi / 4)) <= 1e-10

    def test_matches_singular_value_oracle(self):
        rng = np.random.default_rng(314)
        for _ in range(20):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            oracle = 0.5 * nuclear_norm(a.matrix - b.matrix)
            assert abs(trace_distance(a, b) - oracle) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(DimensionMismatch):
            trace_distance(random_density(rng, 2), random_density(rng, 4))

    def test_metric_axioms(self):
        rng = np.random.default_rng(515)
        for _ in range(60):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            c = random_density(rng, 4)
            dab, dba = trace_distance(a, b), trace_distance(b, a)
            assert dab >= 0.0
            assert abs(dab - dba) <= 1e-9
            assert trace_distance(a, c) <= dab + trace_distance(b, c) + 1e-9
        # Identity of indiscernibles, both directions.
        assert trace_distance(KET0, KET0) == 0.0
        near = DensityOperator(KET0.matrix * (1 - 1e-12) + KET1.matrix * 1e-12)
        assert trace_distance(KET0, near) <= 1e-9


class TestHelstromError:
    def test_identical_states(self):
        rho = random_density(np.random.default_rng(29), 4)
        assert helstrom_error(rho, rho, (0.5, 0.5)) == 0.5

    def test_orthogonal_pure_states(self):
        assert helstrom_error(KET0, KET1, (0.5, 0.5)) <= 1e-12

    def test_pure_phase_pair_closed_form(self):
        a, b = pure_pair(math.pi / 2)
        expected = 0.5 * (1.0 - math.sin(math.pi / 4))
        assert abs(helstrom_error(a, b, (0.5, 0.5)) - expected) <= 1e-10

    def test_equal_prior_reduction(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            reduction = 0.5 * (1.0 - trace_distance(a, b))
            assert abs(helstrom_error(a, b, (0.5, 0.5)) - reduction) <= 1e-12

    def test_unequal_priors_against_nuclear_norm(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
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
        for priors in ((math.nan, 1.0), (math.inf, -math.inf), (math.inf, math.inf)):
            with pytest.raises(DegenerateInput):
                helstrom_error(KET0, KET1, priors)

    @pytest.mark.parametrize("miss, accepted", [(9e-10, True), (-9e-10, True), (1.1e-9, False),
                                                (-1.1e-9, False), (-0.4, False)])
    def test_prior_sum_tolerance_holds_on_both_sides(self, miss, accepted):
        priors = (0.25, 0.75 + miss)
        if accepted:
            assert check_priors(priors) == priors
        else:
            with pytest.raises(DegenerateInput):
                check_priors(priors)

    # A set has no order to read (π₀, π₁) from; a dict is indexed by its keys.
    @pytest.mark.parametrize("priors", [(0.2, 0.3, 0.5), {0.3, 0.7}, 0.5, {"h0": 0.5, "h1": 0.5}],
                             ids=["three", "set", "scalar", "dict"])
    def test_priors_that_are_not_a_pair_rejected(self, priors):
        with pytest.raises(DegenerateInput):
            helstrom_error(KET0, KET1, priors)


class TestSharedProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            assert abs(trace_distance(a, b) - trace_distance(b, a)) <= 1e-9

    def test_unitary_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            ua = DensityOperator(u @ a.matrix @ u.conj().T)
            ub = DensityOperator(u @ b.matrix @ u.conj().T)
            assert abs(trace_distance(a, b) - trace_distance(ua, ub)) <= 1e-9

    def test_pure_state_consistency(self):
        # For pure states D = √(1 − |⟨ψ|χ⟩|²): |ψ⟩⟨ψ| − |χ⟩⟨χ| has eigenvalues ±D on the
        # span of the two kets.
        rng = np.random.default_rng(47)
        for _ in range(20):
            psi, chi = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
            psi, chi = psi / np.linalg.norm(psi), chi / np.linalg.norm(chi)
            a = DensityOperator(np.outer(psi, psi.conj()))
            b = DensityOperator(np.outer(chi, chi.conj()))
            want = math.sqrt(1.0 - abs(np.vdot(psi, chi)) ** 2)
            assert abs(trace_distance(a, b) - want) <= 1e-12

    def test_fuchs_van_de_graaff_on_channel_grid(self):
        for phi in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
            for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
                for p in (0.0, 0.25, 0.5, 0.9):
                    rho0 = hypothesis_h0(p)
                    rho1 = hypothesis_h1(TargetParams(phi, eta, p))
                    d = trace_distance(rho0, rho1)
                    f = closed_form.fidelity(eta, p)
                    assert 1.0 - math.sqrt(f) <= d + 1e-7
                    assert d <= math.sqrt(1.0 - f) + 1e-7


class TestAgainstTheOracle:
    """The generic D and P_e of the model's states against the 50-digit oracle: D is the
    pipeline's, and the benchmark gate checks the pipeline's P_e against helstrom_error."""

    def test_trace_distance_and_helstrom_error(self):
        # Measured over these seeded phases: 1.4 ulp of 1 for D and 1.5 for P_e.
        rng = np.random.default_rng(5)
        for eta, p in mp.metric_pairs():
            phi = float(rng.uniform(-4 * math.pi, 6 * math.pi))
            rho0, rho1 = hypothesis_h0(p), hypothesis_h1(TargetParams(phi, eta, p))
            with mpmath.workdps(mp.DPS):
                d = trace_distance(rho0, rho1)
                assert abs(d - mp.trace_distance(eta, p)) <= mp.EIGH_ATOL, (eta, p, phi, d)
                for prior in mp.MP_PRIORS:
                    priors = (prior, 1.0 - prior)
                    pe = helstrom_error(rho0, rho1, priors)
                    ref = mp.helstrom_error(eta, p, priors)
                    assert abs(pe - ref) <= mp.EIGH_ATOL, (eta, p, phi, prior, pe)

    @pytest.mark.parametrize("eta, p, prior", [(0.6, 0.2, 0.3), (1.0, 0.5, 0.5),
                                               (0.35, 0.0, 0.8)])
    def test_metrics_and_roc_do_not_depend_on_the_phase(self, eta, p, prior):
        # φ is a local unitary on the signal mode that commutes with ρ₀, so the model's
        # numbers hold no φ at all; the generic path must agree up to roundoff.
        ts = [0.0, 0.25, 0.5, 1.0 - eta, 1.0, 2.0, 4.0]
        values = []
        for k in range(120):
            rho0 = hypothesis_h0(p)
            rho1 = hypothesis_h1(TargetParams(2.0 * math.pi * k / 120 - 1.0, eta, p))
            roc = roc_sweep(rho0, rho1, ts)
            values.append([trace_distance(rho0, rho1),
                           helstrom_error(rho0, rho1, (prior, 1.0 - prior)),
                           *(pt.p_false_alarm for pt in roc), *(pt.p_detection for pt in roc)])
        spread = np.ptp(np.array(values), axis=0)
        assert float(spread.max()) <= 1e-14, spread


class TestClampWindow:
    def test_found_pair_is_certainly_distinguishable(self):
        a = DensityOperator(np.diag([1 + 9e-10, 0, 0, -9e-10]).astype(complex))
        b = DensityOperator(np.diag([-9e-10, 0, 0, 1 + 9e-10]).astype(complex))
        assert trace_distance(a, b) == 1.0  # 1 + 1.8e-9 before clamping
        assert helstrom_error(a, b) == 0.0

    @pytest.mark.parametrize("d", [4, 16])
    def test_worst_accepted_pair_is_clamped(self, d):
        # Each state carries its weight where the other is negative; their
        # opposite residuals add up in the stored difference, and hermitizing
        # removes them.
        a, b = edge_state(d, 0, 4.5e-10), edge_state(d, d - 1, -4.5e-10)
        hermitian = [(m.matrix + m.matrix.conj().T) / 2 for m in (a, b)]
        excess = 0.5 * np.abs(np.linalg.eigvalsh(hermitian[0] - hermitian[1])).sum() - 1.0
        assert 1e-9 < excess <= CLAMP_WINDOW
        assert trace_distance(a, b) == 1.0
        for priors in ((0.5, 0.5), (0.3, 0.7)):
            assert helstrom_error(a, b, priors) == 0.0

    def test_larger_excursions_still_raise(self):
        for value in (1.0 + 2 * CLAMP_WINDOW, -2 * CLAMP_WINDOW, math.nan):
            with pytest.raises(NumericalDomain):
                clamp_unit(value, "probe")
        assert clamp_unit(1.0 + CLAMP_WINDOW, "probe") == 1.0
        assert clamp_unit(-CLAMP_WINDOW, "probe") == 0.0
        # The window is pinned: (2·16 − 1 + 16^1.5/2)·1e-9 = 6.3e-8, so 1e-7 is no roundoff.
        for value in (1.0 + 1e-7, -1e-7):
            with pytest.raises(NumericalDomain):
                clamp_unit(value, "probe")
        assert clamp_unit(1.0 + 6.2e-8, "probe") == 1.0 and clamp_unit(-6.2e-8, "probe") == 0.0
