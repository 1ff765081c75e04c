import math
import re

import numpy as np
import pytest

from conftest import random_density, random_unitary
from qiradar import detector
from qiradar.channel import TargetParams, apply_signal_phase, hypothesis_h0, hypothesis_h1
from qiradar.detector import (
    BinaryMeasurement,
    TrialOutcome,
    born_probability,
    detection_counts,
    empirical_error,
    helstrom_measurement,
    measurement_error,
    roc_sweep,
    simulate_trials,
)
from qiradar.errors import DegenerateInput, DimensionMismatch, NumericalDomain
from qiradar.metrics import clamp_unit, helstrom_error
from qiradar.qstate import (
    DensityOperator,
    bell_phi_plus,
    density_from_pure,
    eigendecompose_hermitian,
)

KET0 = DensityOperator(np.diag([1.0, 0.0]), (2,))
KET1 = DensityOperator(np.diag([0.0, 1.0]), (2,))
HALF = (0.5, 0.5)


def pure_pair(phi):
    psi = bell_phi_plus()
    return density_from_pure(psi), density_from_pure(apply_signal_phase(psi, phi))


def identity_measurement(dim):
    return BinaryMeasurement(project_h1=np.eye(dim), project_h0=np.zeros((dim, dim)))


def never_measurement(dim):
    return BinaryMeasurement(project_h1=np.zeros((dim, dim)), project_h0=np.eye(dim))


def random_projective_measurement(rng, dim):
    u = random_unitary(rng, dim)
    rank = int(rng.integers(0, dim + 1))
    cols = u[:, :rank]
    p1 = cols @ cols.conj().T
    return BinaryMeasurement(project_h1=p1, project_h0=np.eye(dim) - p1)


class TestBinaryMeasurement:
    def test_invariants_accept_valid_projectors(self):
        rng = np.random.default_rng(101)
        m = random_projective_measurement(rng, 4)
        p1, p0 = m.project_h1, m.project_h0
        assert float(np.max(np.abs(p1 @ p1 - p1))) <= 1e-8
        assert float(np.max(np.abs(p0 + p1 - np.eye(4)))) <= 1e-9
        assert float(np.max(np.abs(p1 @ p0))) <= 1e-8

    def test_non_idempotent_rejected(self):
        with pytest.raises(NumericalDomain):
            BinaryMeasurement(project_h1=np.eye(2) / 2, project_h0=np.eye(2) / 2)

    def test_incomplete_pair_rejected(self):
        with pytest.raises(NumericalDomain):
            BinaryMeasurement(project_h1=np.diag([1.0, 0.0]), project_h0=np.diag([0.0, 0.0]))

    def test_non_hermitian_rejected(self):
        p1 = np.array([[0.5, 0.5], [0.2, 0.5]])
        with pytest.raises(NumericalDomain):
            BinaryMeasurement(project_h1=p1, project_h0=np.eye(2) - p1)


class TestHelstromMeasurement:
    def test_identical_states_decide_h0_everywhere(self):
        rho = random_density(np.random.default_rng(3), 4, dims=(2, 2))
        m = helstrom_measurement(rho, rho, HALF)
        assert float(np.max(np.abs(m.project_h1))) <= 1e-12
        assert abs(measurement_error(m, rho, rho, HALF) - 0.5) <= 1e-12

    def test_orthogonal_pure_states(self):
        m = helstrom_measurement(KET0, KET1, HALF)
        np.testing.assert_allclose(m.project_h1, np.diag([0.0, 1.0]), atol=1e-12)
        assert measurement_error(m, KET0, KET1, HALF) <= 1e-12

    def test_zero_eigenvalues_side_with_h0(self):
        a = DensityOperator(np.diag([0.5, 0.3, 0.2, 0.0]), (4,))
        b = DensityOperator(np.diag([0.3, 0.5, 0.2, 0.0]), (4,))
        m = helstrom_measurement(a, b, HALF)
        # Difference diag(-0.1, 0.1, 0, 0); only the second axis is positive.
        np.testing.assert_allclose(m.project_h1, np.diag([0.0, 1.0, 0.0, 0.0]), atol=1e-12)

    def test_analytic_error_matches_bound_on_grid(self):
        for phi in (0.0, math.pi / 2, math.pi):
            for eta in (0.25, 0.5, 1.0):
                for p in (0.25, 0.5):
                    rho0 = hypothesis_h0(p)
                    rho1 = hypothesis_h1(TargetParams(phi, eta, p))
                    m = helstrom_measurement(rho0, rho1, HALF)
                    analytic = measurement_error(m, rho0, rho1, HALF)
                    assert abs(analytic - helstrom_error(rho0, rho1, HALF)) <= 1e-8

    def test_unequal_priors(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_density(rng, 4, dims=(2, 2))
            b = random_density(rng, 4, dims=(2, 2))
            p0 = rng.uniform(0.1, 0.9)
            priors = (p0, 1.0 - p0)
            m = helstrom_measurement(a, b, priors)
            assert abs(measurement_error(m, a, b, priors)
                       - helstrom_error(a, b, priors)) <= 1e-8


class TestBornProbability:
    def test_identity_projector(self):
        rho = random_density(np.random.default_rng(13), 4, dims=(4,))
        assert born_probability(identity_measurement(4), rho) == 1.0

    def test_diagonal_readout(self):
        m = BinaryMeasurement(project_h1=np.diag([0.0, 1.0]), project_h0=np.diag([1.0, 0.0]))
        rho = DensityOperator(np.diag([0.7, 0.3]), (2,))
        assert abs(born_probability(m, rho) - 0.3) <= 1e-12

    def test_consistent_with_analytic_error(self):
        rho0, rho1 = pure_pair(math.pi / 2)
        m = helstrom_measurement(rho0, rho1, HALF)
        composed = 0.5 * born_probability(m, rho0) + 0.5 * (1.0 - born_probability(m, rho1))
        assert abs(composed - helstrom_error(rho0, rho1, HALF)) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            born_probability(identity_measurement(2),
                             random_density(np.random.default_rng(1), 4, dims=(4,)))


class TestSimulateTrials:
    def test_deterministic_for_fixed_seed(self):
        rho0, rho1 = pure_pair(math.pi / 3)
        m = helstrom_measurement(rho0, rho1, HALF)
        a = simulate_trials(m, rho1, 50_000, seed=99)
        b = simulate_trials(m, rho1, 50_000, seed=99)
        assert (a.decide_h1_count, a.decide_h0_count) == (b.decide_h1_count, b.decide_h0_count)
        c = simulate_trials(m, rho1, 50_000, seed=100)
        assert c.decide_h1_count != a.decide_h1_count

    def test_counts_sum_and_metadata(self):
        rho0, rho1 = pure_pair(1.0)
        m = helstrom_measurement(rho0, rho1, HALF)
        out = simulate_trials(m, rho0, 12_345, seed=7, true_hypothesis="H0")
        assert out.decide_h0_count + out.decide_h1_count == out.trials == 12_345
        assert out.true_hypothesis == "H0"
        assert out.seed == 7

    def test_certain_outcomes(self):
        rho = random_density(np.random.default_rng(21), 4, dims=(4,))
        always = simulate_trials(identity_measurement(4), rho, 1000, seed=1)
        assert always.decide_h1_count == 1000
        never = simulate_trials(never_measurement(4), rho, 1000, seed=1)
        assert never.decide_h1_count == 0

    def test_partition_invariance(self):
        rho0, rho1 = pure_pair(math.pi / 2)
        m = helstrom_measurement(rho0, rho1, HALF)
        # 100_000 trials spans 13 blocks; merged counts must not depend on
        # how the blocks are chunked.
        reference = simulate_trials(m, rho1, 100_000, seed=5150, partitions=1)
        for partitions in (2, 3, 7, 13):
            split = simulate_trials(m, rho1, 100_000, seed=5150, partitions=partitions)
            assert split.decide_h1_count == reference.decide_h1_count

    def test_binomial_consistency(self):
        rho0, rho1 = pure_pair(math.pi / 2)
        m = helstrom_measurement(rho0, rho1, HALF)
        trials = 1_000_000
        p = born_probability(m, rho1)
        out = simulate_trials(m, rho1, trials, seed=20240817)
        sigma = math.sqrt(p * (1.0 - p) / trials)
        assert abs(out.decide_h1_count / trials - p) <= 4.0 * sigma

    def test_degenerate_inputs_rejected(self):
        rho0, rho1 = pure_pair(1.0)
        m = helstrom_measurement(rho0, rho1, HALF)
        with pytest.raises(DegenerateInput):
            simulate_trials(m, rho1, 0, seed=1)
        with pytest.raises(DegenerateInput):
            simulate_trials(m, rho1, 10, seed=-1)
        with pytest.raises(DegenerateInput):
            simulate_trials(m, rho1, 10, seed=1, true_hypothesis="H2")
        with pytest.raises(DegenerateInput):
            simulate_trials(m, rho1, 10, seed=1, partitions=0)

    def test_trial_outcome_count_invariant(self):
        with pytest.raises(DegenerateInput):
            TrialOutcome(decide_h1_count=3, decide_h0_count=3, trials=5,
                         true_hypothesis="H1", seed=0)


class TestEmpiricalError:
    def test_orthogonal_states_never_err(self):
        assert empirical_error(KET0, KET1, HALF, 10_000, seed=3) == 0.0

    def test_identical_states_err_half(self):
        rho = random_density(np.random.default_rng(2), 4, dims=(2, 2))
        trials = 100_000
        value = empirical_error(rho, rho, HALF, trials, seed=11)
        sigma = math.sqrt(0.25 / trials)
        assert abs(value - 0.5) <= 4.0 * sigma

    def test_matches_analytic_error(self):
        rho0 = hypothesis_h0(0.5)
        rho1 = hypothesis_h1(TargetParams(math.pi, 0.5, 0.5))
        trials = 1_000_000
        analytic = helstrom_error(rho0, rho1, HALF)
        value = empirical_error(rho0, rho1, HALF, trials, seed=90210)
        sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
        assert abs(value - analytic) <= 4.0 * sigma

    def test_floor_allocation(self):
        rho0, rho1 = pure_pair(math.pi / 2)
        out0, out1 = detection_counts(rho0, rho1, (0.3, 0.7), 10, seed=1)
        assert (out0.trials, out1.trials) == (3, 7)
        out0, out1 = detection_counts(rho0, rho1, HALF, 7, seed=1)
        assert (out0.trials, out1.trials) == (3, 4)

    def test_extreme_priors_allocate_everything_to_one_side(self):
        rho0, rho1 = pure_pair(math.pi / 2)
        out0, out1 = detection_counts(rho0, rho1, (0.0, 1.0), 100, seed=1)
        assert (out0.trials, out1.trials) == (0, 100)

    def test_partition_invariance(self):
        rho0 = hypothesis_h0(0.5)
        rho1 = hypothesis_h1(TargetParams(math.pi / 4, 0.75, 0.5))
        reference = empirical_error(rho0, rho1, HALF, 50_000, seed=314159)
        for partitions in (2, 5, 10**12):  # 4 blocks each; 10**12 acts as 4
            assert empirical_error(rho0, rho1, HALF, 50_000, seed=314159,
                                   partitions=partitions) == reference


class TestRocSweep:
    def test_zero_threshold_full_rank(self):
        rho0 = hypothesis_h0(0.5)
        rho1 = hypothesis_h1(TargetParams(math.pi, 0.5, 0.5))  # full rank
        point = roc_sweep(rho0, rho1, [0.0])[0]
        assert abs(point.p_false_alarm - 1.0) <= 1e-9
        assert abs(point.p_detection - 1.0) <= 1e-9

    def test_huge_threshold_rejects_everything(self):
        rho0 = hypothesis_h0(0.5)
        rho1 = hypothesis_h1(TargetParams(math.pi, 0.5, 0.5))
        point = roc_sweep(rho0, rho1, [1e9])[0]
        assert point.p_false_alarm == 0.0
        assert point.p_detection == 0.0

    def test_orthogonal_pure_states_are_free(self):
        for t in (0.5, 1.0, 2.0, 100.0):
            point = roc_sweep(KET0, KET1, [t])[0]
            assert point.p_false_alarm <= 1e-12
            assert abs(point.p_detection - 1.0) <= 1e-12

    def test_unit_threshold_matches_equal_prior_helstrom(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            a = random_density(rng, 4, dims=(2, 2))
            b = random_density(rng, 4, dims=(2, 2))
            point = roc_sweep(a, b, [1.0])[0]
            m = helstrom_measurement(a, b, HALF)
            assert abs(point.p_false_alarm - born_probability(m, a)) <= 1e-9
            assert abs(point.p_detection - born_probability(m, b)) <= 1e-9

    def test_monotone_after_sorting(self):
        rho0 = hypothesis_h0(0.25)
        rho1 = hypothesis_h1(TargetParams(math.pi / 3, 0.6, 0.25))
        thresholds = np.concatenate([[0.0], np.logspace(-2, 2, 41)])
        points = sorted(roc_sweep(rho0, rho1, thresholds), key=lambda p: p.p_false_alarm)
        for first, second in zip(points, points[1:]):
            assert second.p_detection >= first.p_detection - 1e-9

    def test_negative_threshold_rejected(self):
        for bad in ([-0.5], [0.5, "a"], [None], [float("nan")], [[1.0]], [10**400]):
            with pytest.raises(DegenerateInput, match="got " + re.escape(repr(bad[-1]))):
                roc_sweep(KET0, KET1, bad)

    def test_non_iterable_thresholds_rejected(self):
        for bad in (5, 0.5, None, "123", b"12"):
            with pytest.raises(DegenerateInput, match="got " + re.escape(repr(bad))):
                roc_sweep(KET0, KET1, bad)

    def test_no_thresholds_give_no_points(self):
        assert roc_sweep(KET0, KET1, []) == []

    @pytest.mark.parametrize("entries", [1 << 16, 48, 80, 1])  # 6, 3, 5, 1 thresholds per stack
    def test_stacked_sweep_equals_the_per_threshold_loop(self, entries, monkeypatch):
        # Reference: one eigensolve per threshold, positive columns sliced out.
        monkeypatch.setattr(detector, "ROC_STACK_ENTRIES", entries)
        rng = np.random.default_rng(2718)
        pairs = [(hypothesis_h0(0.2), hypothesis_h1(TargetParams(1.0, 0.6, 0.2)))]
        pairs += [(random_density(rng, 4), random_density(rng, 4)) for _ in range(5)]
        thresholds = [0.0, 0.25, 0.4, 1.0, 4.15, 8.0]  # 0.4: triply degenerate crossing
        for rho0, rho1 in pairs:
            expected = []
            for t in thresholds:
                spectrum = eigendecompose_hermitian(rho1.matrix - t * rho0.matrix)
                columns = spectrum.eigenvectors[:, spectrum.eigenvalues > 1e-10]
                projector = columns @ columns.conj().T
                projector = (projector + projector.conj().T) / 2.0
                expected.append((t, *(clamp_unit(float(np.trace(projector @ rho.matrix).real), "")
                                      for rho in (rho0, rho1))))
            swept = roc_sweep(rho0, rho1, thresholds)
            assert [(p.threshold, p.p_false_alarm, p.p_detection) for p in swept] == expected


class TestOptimality:
    def test_helstrom_beats_random_projective_tests(self):
        rng = np.random.default_rng(4747)
        for _ in range(5):
            a = random_density(rng, 4, dims=(2, 2))
            b = random_density(rng, 4, dims=(2, 2))
            best = measurement_error(helstrom_measurement(a, b, HALF), a, b, HALF)
            for _ in range(20):
                rival = random_projective_measurement(rng, 4)
                assert best <= measurement_error(rival, a, b, HALF) + 1e-12


class TestPhaseDetectability:
    def test_error_below_half_whenever_target_returns(self):
        rho0 = hypothesis_h0(0.5)
        errors = {}
        for k in range(1, 16):
            phi = 2 * math.pi * k / 16
            rho1 = hypothesis_h1(TargetParams(phi, 1.0, 0.5))
            errors[phi] = helstrom_error(rho0, rho1, HALF)
            assert errors[phi] < 0.5
        # The pi point attains the minimum over the grid (with equality in
        # this channel, where the phase commutes with the noise state).
        assert errors[math.pi] <= min(errors.values()) + 1e-12
