import math
import random
import re

import numpy as np
import pytest

import mp_oracle as mp
from conftest import pure_pair, random_density, random_unitary
from qiradar.channel import TargetParams, hypothesis_h0, hypothesis_h1
from qiradar.closed_form import TIE_ATOL
from qiradar.detector import born_pair, roc_sweep
from qiradar.errors import (MAX_TRIALS, DegenerateInput, DimensionMismatch, NumericalDomain,
                            _check_thresholds, clamp_unit)
from qiradar.metrics import helstrom_error
from qiradar.montecarlo import draw_counts, outcome_error
from qiradar.qstate import DensityOperator, eigendecompose_hermitian
from qiradar.report import RocPoint, _Curve

KET0 = DensityOperator(np.diag([1.0, 0.0]))
KET1 = DensityOperator(np.diag([0.0, 1.0]))
HALF = (0.5, 0.5)


def _sweep_pairs():
    rng = np.random.default_rng(2718)
    pairs = [(hypothesis_h0(0.2), hypothesis_h1(TargetParams(1.0, 0.6, 0.2)))]
    return pairs + [(random_density(rng, 4), random_density(rng, 4)) for _ in range(5)]


SWEEP_PAIRS = _sweep_pairs()  # the model's pair at η 0.6, p 0.2, then five random pairs


def documented_count(p, n, seed, tag):
    """README "Determinism", inversion branch: the decide-H1 count of n trials at Born
    probability p under seed and tag, for n*min(p, 1 - p) < 10."""
    if p > 0.5:
        return n - documented_count(1.0 - p, n, seed, tag)
    assert n * p < 10
    uniforms = random.Random(2 * seed + tag).random
    r = p / (1.0 - p)
    a = (n + 1) * r
    while True:
        u, x, f = uniforms(), 0, math.exp(n * math.log1p(-p))
        while u > f and f > 0.0 and x < n:
            u -= f
            x += 1
            f *= a / x - r
        if u <= f:
            return x


def born_error(rho0, rho1, priors):
    """π₀·Tr(Pρ₀) + π₁·(1 − Tr(Pρ₁)) of born_pair's test at the priors."""
    p_fa, p_d = born_pair(rho0, rho1, *priors)
    return priors[0] * p_fa + priors[1] * (1.0 - p_d)


def generic_counts(rho0, rho1, priors, trials, seed):
    """The generic Monte Carlo run: draw_counts of born_pair's Born probabilities at the priors."""
    return draw_counts(born_pair(rho0, rho1, *priors), priors[0], trials, seed)


def random_projector(rng, dim):
    """A random orthogonal projector of random rank, as a plain matrix."""
    cols = random_unitary(rng, dim)[:, :int(rng.integers(0, dim + 1))]
    return cols @ cols.conj().T


def projector_error(p1, rho0, rho1, priors):
    """π₀·Tr(P₁ρ₀) + π₁·(1 − Tr(P₁ρ₁)) of the test that decides H1 on projector p1."""
    born = [float(np.trace(p1 @ rho.matrix).real) for rho in (rho0, rho1)]
    return priors[0] * born[0] + priors[1] * (1.0 - born[1])


class TestHelstromMeasurement:
    def test_identical_states_decide_h0_everywhere(self):
        rho = random_density(np.random.default_rng(3), 4)
        assert born_pair(rho, rho, *HALF) == (0.0, 0.0)
        assert born_error(rho, rho, HALF) == 0.5

    def test_orthogonal_pure_states(self):
        p_fa, p_d = born_pair(KET0, KET1, *HALF)
        assert p_fa <= 1e-12 and abs(p_d - 1.0) <= 1e-12
        assert born_error(KET0, KET1, HALF) <= 1e-12

    def test_zero_eigenvalues_side_with_h0(self):
        a = DensityOperator(np.diag([0.5, 0.3, 0.2, 0.0]))
        b = DensityOperator(np.diag([0.3, 0.5, 0.2, 0.0]))
        # Difference diag(-0.1, 0.1, 0, 0); only the second axis is positive.
        p_fa, p_d = born_pair(a, b, *HALF)
        assert abs(p_fa - 0.3) <= 1e-12 and abs(p_d - 0.5) <= 1e-12

    def test_analytic_error_matches_bound_on_grid(self):
        for phi in (0.0, math.pi / 2, math.pi):
            for eta in (0.25, 0.5, 1.0):
                for p in (0.25, 0.5):
                    rho0 = hypothesis_h0(p)
                    rho1 = hypothesis_h1(TargetParams(phi, eta, p))
                    analytic = born_error(rho0, rho1, HALF)
                    assert abs(analytic - helstrom_error(rho0, rho1, HALF)) <= 1e-8

    def test_unequal_priors(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            p0 = rng.uniform(0.1, 0.9)
            priors = (p0, 1.0 - p0)
            assert abs(born_error(a, b, priors) - helstrom_error(a, b, priors)) <= 1e-8


class TestBornProbability:
    def test_identity_projector(self):
        # At w₀ = 0 the test on a full-rank ρ₁ decides H1 on every state.
        rng = np.random.default_rng(13)
        rho0, rho1 = random_density(rng, 4), random_density(rng, 4)
        assert all(abs(p - 1.0) <= 1e-12 for p in born_pair(rho0, rho1, 0.0, 1.0))

    def test_diagonal_readout(self):
        rho0 = DensityOperator(np.diag([0.7, 0.3]))
        rho1 = DensityOperator(np.diag([0.3, 0.7]))
        p_fa, p_d = born_pair(rho0, rho1, *HALF)  # decides H1 on the second axis
        assert abs(p_fa - 0.3) <= 1e-12 and abs(p_d - 0.7) <= 1e-12

    def test_consistent_with_analytic_error(self):
        rho0, rho1 = pure_pair(math.pi / 2)
        assert abs(born_error(rho0, rho1, HALF) - helstrom_error(rho0, rho1, HALF)) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(DimensionMismatch):
            born_pair(random_density(rng, 2), random_density(rng, 4), *HALF)


class TestTrialCounts:
    def test_deterministic_for_fixed_seed(self):
        rho0, rho1 = pure_pair(math.pi / 3)
        _, a = generic_counts(rho0, rho1, HALF, 100_000, seed=99)
        _, b = generic_counts(rho0, rho1, HALF, 100_000, seed=99)
        assert (a.decide_h1_count, a.decide_h0_count) == (b.decide_h1_count, b.decide_h0_count)
        _, c = generic_counts(rho0, rho1, HALF, 100_000, seed=100)
        assert c.decide_h1_count != a.decide_h1_count

    def test_counts_sum_and_metadata(self):
        rho0, rho1 = pure_pair(1.0)
        out, _ = generic_counts(rho0, rho1, HALF, 24_690, seed=7)
        assert out.decide_h0_count + out.decide_h1_count == out.trials == 12_345
        assert out.true_hypothesis == "H0"
        assert out.seed == 7

    @pytest.mark.parametrize("trials", [1000, MAX_TRIALS])
    def test_certain_outcomes(self, trials):
        certain = (1.0, 0.0)  # Born probabilities of the tests that always and never decide H1
        for prior_h0, side in ((1.0, 0), (0.0, 1)):  # every trial under one hypothesis
            always, never = (draw_counts((p, p), prior_h0, trials, 1)[side]
                             for p in certain)
            assert always.decide_h1_count == always.trials == trials
            assert never.decide_h1_count == 0 and never.trials == trials

    @pytest.mark.parametrize("trials", [1, 21])
    def test_counts_follow_the_documented_stream(self, trials):
        # The stream contract (README "Determinism"): the decide-H1 count of n trials
        # under tag t and seed s, p the Born probability of the Helstrom H1 projector,
        # recomputed here by inversion from the uniforms of random.Random(2s + t); at
        # these n, n*min(p, 1 - p) < 10. BTRD's counts are pinned in test_montecarlo.py.
        rho0 = hypothesis_h0(0.3)
        rho1 = hypothesis_h1(TargetParams(1.0, 0.6, 0.3))
        p = dict(enumerate(born_pair(rho0, rho1, *HALF)))
        n_h0 = trials // 2
        for seed in (5150, 2**64 - 1):
            for tag, prior_h0 in ((0, 1.0), (1, 0.0)):  # every trial under hypothesis tag
                out = draw_counts((p[0], p[1]), prior_h0, trials, seed)[tag]
                assert out.decide_h1_count == documented_count(p[tag], trials, seed, tag)
            out0, out1 = generic_counts(rho0, rho1, HALF, trials, seed)
            assert (out0.trials, out1.trials) == (n_h0, trials - n_h0)
            assert out0.decide_h1_count == documented_count(p[0], n_h0, seed, 0)
            assert out1.decide_h1_count == documented_count(p[1], trials - n_h0, seed, 1)

    def test_tiny_probabilities_at_max_trials_follow_the_documented_stream(self):
        # q**n as exp(n*log1p(-p)): n*p = 1.5 at n = 5*10**8 a side, and its mirror at 1 - p.
        for p in (3e-9, 1.0 - 3e-9):
            for seed in (0, 5150, 2**64 - 1):
                out0, out1 = draw_counts((p, p), 0.5, MAX_TRIALS, seed)
                assert out0.decide_h1_count == documented_count(p, out0.trials, seed, 0)
                assert out1.decide_h1_count == documented_count(p, out1.trials, seed, 1)

    def test_draw_counts_clamps_roundoff_past_the_unit_interval(self):
        # The closed form can return 1 + 2^-52 (or a tiny negative); clamp_unit snaps it
        # onto [0, 1] before the draw.
        h0, h1 = draw_counts((1.0 + 2**-52, -2**-60), 0.5, 10, 1)
        assert (h0.decide_h1_count, h1.decide_h1_count) == (5, 0)
        with pytest.raises(NumericalDomain, match="Born probability"):
            draw_counts((0.5, 1.0 + 1e-6), 0.5, 10, 1)

    def test_trial_outcome_stores_plain_ints(self):
        rho0, rho1 = pure_pair(1.0)
        outcomes = generic_counts(rho0, rho1, HALF, np.int32(5), np.uint64(2**64 - 1))
        for outcome in outcomes:
            values = (outcome.decide_h1_count, outcome.decide_h0_count, outcome.trials,
                      outcome.seed)
            assert all(type(v) is int for v in values)
            assert outcome.seed == 2**64 - 1
        assert sum(outcome.trials for outcome in outcomes) == 5

    def test_binomial_consistency(self):
        rho0, rho1 = pure_pair(math.pi / 2)
        trials = 1_000_000
        _, p = born_pair(rho0, rho1, *HALF)
        _, out = draw_counts((0.0, p), 0.0, trials, 20240817)
        sigma = math.sqrt(p * (1.0 - p) / trials)
        assert abs(out.decide_h1_count / trials - p) <= 4.0 * sigma

    @pytest.mark.parametrize("trials, seed", [
        (0, 1),
        (10, -1),
        (10, 2**64),
        (MAX_TRIALS + 1, 1),
        (10**19, 1),  # would not finish on a per-trial stream and overflows a binomial's n
        (1.5, 1),     # a float is not a count, not even rounded down
        (10, 1.5),
        (True, 1),
    ])
    def test_degenerate_inputs_rejected(self, trials, seed):
        rho0, rho1 = pure_pair(1.0)
        with pytest.raises(DegenerateInput):
            generic_counts(rho0, rho1, HALF, trials, seed)


class TestEmpiricalError:
    def test_orthogonal_states_never_err(self):
        assert outcome_error(*generic_counts(KET0, KET1, HALF, 10_000, seed=3)) == 0.0

    def test_identical_states_err_half(self):
        rho = random_density(np.random.default_rng(2), 4)
        trials = 100_000
        value = outcome_error(*generic_counts(rho, rho, HALF, trials, seed=11))
        sigma = math.sqrt(0.25 / trials)
        assert abs(value - 0.5) <= 4.0 * sigma

    def test_matches_analytic_error(self):
        rho0 = hypothesis_h0(0.5)
        rho1 = hypothesis_h1(TargetParams(math.pi, 0.5, 0.5))
        trials = 1_000_000
        analytic = helstrom_error(rho0, rho1, HALF)
        value = outcome_error(*generic_counts(rho0, rho1, HALF, trials, seed=90210))
        sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
        assert abs(value - analytic) <= 4.0 * sigma

    def test_floor_allocation(self):
        rho0, rho1 = pure_pair(math.pi / 2)
        out0, out1 = generic_counts(rho0, rho1, (0.3, 0.7), 10, seed=1)
        assert (out0.trials, out1.trials) == (3, 7)
        out0, out1 = generic_counts(rho0, rho1, HALF, 7, seed=1)
        assert (out0.trials, out1.trials) == (3, 4)

    def test_extreme_priors_allocate_everything_to_one_side(self):
        rho0, rho1 = pure_pair(math.pi / 2)
        out0, out1 = generic_counts(rho0, rho1, (0.0, 1.0), 100, seed=1)
        assert (out0.trials, out1.trials) == (0, 100)


class TestRocSweep:
    def test_zero_threshold_full_rank(self):
        rho0 = hypothesis_h0(0.5)
        rho1 = hypothesis_h1(TargetParams(math.pi, 0.5, 0.5))  # full rank
        point = roc_sweep(rho0, rho1, [0.0])[0]
        assert abs(point.p_false_alarm - 1.0) <= 1e-9
        assert abs(point.p_detection - 1.0) <= 1e-9

    def test_sweep_survives_a_hermiticity_residual_at_large_thresholds(self):
        # A 4e-10 residual passes the constructor; stored as given, it grew to
        # 1.2e-8 in ρ₁ − 30ρ₀ and the sweep raised "not Hermitian".
        m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        m[0, 1], m[1, 0] = 0.05 + 4e-10j, 0.05
        rho0, rho1 = DensityOperator(m), DensityOperator(np.eye(4) / 4)
        thresholds = [30.0, 100.0, 1e6]
        swept = roc_sweep(rho0, rho1, thresholds)
        assert swept == roc_sweep(DensityOperator((m + m.conj().T) / 2), rho1, thresholds)
        # I/4 − tρ₀ is negative definite for t >= 30 (ρ₀'s eigenvalues exceed 0.09).
        assert [(p.threshold, p.p_false_alarm, p.p_detection) for p in swept] == [
            (t, 0.0, 0.0) for t in thresholds]

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
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            point = roc_sweep(a, b, [1.0])[0]
            p_fa, p_d = born_pair(a, b, *HALF)
            assert abs(point.p_false_alarm - p_fa) <= 1e-9
            assert abs(point.p_detection - p_d) <= 1e-9

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

    def test_threshold_gate_takes_each_list_as_before(self):
        # A list of floats with a finite sum passes in one C-level check; any other
        # list goes entry by entry, with the same values and the same messages.
        assert _check_thresholds((1e308, 1e308)) == [1e308, 1e308]  # sum overflows
        [zero] = _check_thresholds([-0.0])
        assert math.copysign(1.0, zero) == -1.0
        values = _check_thresholds([0.5, np.float64(2.0), 3])
        assert values == [0.5, 2.0, 3.0] and {type(v) for v in values} == {float}
        for bad, message in (([0.5, math.nan], "threshold must be finite, got nan"),
                             ([math.inf, -math.inf], "threshold must be finite, got inf"),
                             ([np.float64(math.nan)], f"finite, got {np.float64(math.nan)!r}"),
                             ([0.5, True], "threshold must be a real number, got True"),
                             ([1e308, -1e308], "thresholds must be >= 0, got -1e+308"),
                             ([1e308, 1e308, -1.0], "thresholds must be >= 0, got -1.0")):
            with pytest.raises(DegenerateInput, match=re.escape(message)):
                _check_thresholds(bad)

    def test_non_iterable_thresholds_rejected(self):
        for bad in (5, 0.5, None, "123", b"12"):
            with pytest.raises(DegenerateInput, match="got " + re.escape(repr(bad))):
                roc_sweep(KET0, KET1, bad)

    def test_no_thresholds_give_no_points(self):
        assert roc_sweep(KET0, KET1, []) == []

    def test_roc_points_clamp_each_probability_column(self):
        # The pipeline's curve builder: a column inside [0, 1] passes as it is;
        # any other goes through clamp_unit.
        points = _Curve.of_columns((0.5, 1.0), (1.0 + 2**-52, 0.25), (-5e-324, -0.0))
        assert type(points) is _Curve
        assert points == (RocPoint(0.5, 1.0, 0.0), RocPoint(1.0, 0.25, -0.0))
        assert math.copysign(1.0, points[1].p_detection) == -1.0
        for column in ([0.5, math.nan], [math.nan, 0.5], [0.5, 1.5], [-1e-6, 0.5]):
            with pytest.raises(NumericalDomain, match="false-alarm probability"):
                _Curve.of_columns((0.5, 1.0), column, (0.5, 0.5))
            with pytest.raises(NumericalDomain, match="detection probability"):
                _Curve.of_columns((0.5, 1.0), (0.5, 0.5), column)

    def test_an_eigenvalue_at_the_tie_tolerance_sides_with_h0(self):
        # ρ₁ − 0·ρ₀ has the eigenvalue TIE_ATOL exactly; only λ > TIE_ATOL decides H1.
        rho0 = DensityOperator(np.eye(2) / 2)
        rho1 = DensityOperator(np.diag([TIE_ATOL, 1.0 - TIE_ATOL]))
        [point] = roc_sweep(rho0, rho1, [0.0])
        assert (point.p_false_alarm, point.p_detection) == (0.5, 1.0 - TIE_ATOL)

    def test_roc_point_is_an_immutable_named_tuple(self):
        point = RocPoint(0.5, 0.25, 0.75)
        assert RocPoint._fields == ("threshold", "p_false_alarm", "p_detection")
        assert (point.threshold, point.p_false_alarm, point.p_detection) == (0.5, 0.25, 0.75)
        assert tuple(point) == (0.5, 0.25, 0.75)
        with pytest.raises(AttributeError):
            point.threshold = 1.0

    @pytest.mark.parametrize("rho0, rho1", SWEEP_PAIRS,
                             ids=["model", *(f"random-{k}" for k in range(1, 6))])
    def test_sweep_equals_the_per_threshold_loop(self, rho0, rho1):
        # Reference: one eigensolve per threshold, positive columns sliced out.
        thresholds = [0.0, 0.25, 0.4, 1.0, 4.15, 8.0]  # 0.4: triply degenerate crossing
        expected = []
        for t in thresholds:
            w, v = eigendecompose_hermitian(rho1.matrix - t * rho0.matrix)
            columns = v[:, w > 1e-10]
            projector = columns @ columns.conj().T
            projector = (projector + projector.conj().T) / 2.0
            expected.append((t, *(clamp_unit(float(np.trace(projector @ rho.matrix).real), "")
                                  for rho in (rho0, rho1))))
        swept = roc_sweep(rho0, rho1, thresholds)
        assert [(p.threshold, p.p_false_alarm, p.p_detection) for p in swept] == expected


def test_born_pair_matches_the_oracle_on_the_50_digit_grid():
    # The generic born_pair forms w₁ρ₁ − w₀ρ₀ from two rounded states: an error of about
    # ε(w₀ + w₁) that turns its projector by that over the gap between the eigenvalues it keeps
    # and those it drops, and can flip the call on an eigenvalue that close to TIE_ATOL. So it
    # matches within EIGH_ATOL plus that turn wherever no eigenvalue is within 4ε(w₀ + w₁) of
    # the tie line. Measured: 969 of the 1014 cases are checked, none past 2.5 ulp of 1 beyond
    # the turn; of the 45 ties skipped, only the far crossing at t ≈ 5.1e8 is off by more than
    # 1e-12, by ½, its call flipped.
    checked = 0
    for eta, p, w0, w1 in mp.mp_cases():
        noise = math.ulp(1.0) * (w0 + w1)
        spectrum, expected = mp.spectrum(eta, p, w0, w1)
        if any(abs(x - TIE_ATOL) <= 4 * noise for x in spectrum):
            continue
        kept = [x for x in spectrum if x > TIE_ATOL]
        dropped = [x for x in spectrum if x <= TIE_ATOL]
        gap = float(min(kept) - max(dropped)) if kept and dropped else math.inf
        got = born_pair(hypothesis_h0(p), hypothesis_h1(TargetParams(1.0, eta, p)), w0, w1)
        for x, ref in zip(got, expected):
            assert abs(x - float(ref)) <= mp.EIGH_ATOL + noise / gap, (eta, p, w0, w1, got)
        checked += 1
    assert checked >= 969


class TestOptimality:
    def test_helstrom_beats_random_projective_tests(self):
        rng = np.random.default_rng(4747)
        for _ in range(5):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            best = born_error(a, b, HALF)
            assert abs(best - helstrom_error(a, b, HALF)) <= 1e-12
            for _ in range(20):
                assert best <= projector_error(random_projector(rng, 4), a, b, HALF) + 1e-12


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
