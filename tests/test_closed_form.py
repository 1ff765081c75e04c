"""The package's closed form against the 50-digit oracle of the 4×4 model.

``qiradar.closed_form`` gives the pipeline's Born pairs (``born_pair``, and ``born_pairs`` for a
sweep), its fidelity F and its Helstrom error P_e from the model's 2×2-block structure,
without an eigensolver. mp_oracle forms ρ₀ and ρ₁ as 4×4 mpmath matrices and takes every
number from a 50-digit eigensolve, so it shares no step of that derivation. Here each closed
form, and the trace distance D that run_scenario reports, is held to the oracle over its
grids; the rest pins exact ties, the sweep's zero tail and its bits, the phase, and F where
η = 0 or 1. This file imports none of the generic library (qstate, metrics, channel,
detector), which its own tests check against the same oracle, and no numpy.
"""

import math
import random

import mpmath
import pytest
from conftest import ieee_bytes, unstopped_born_pair

import mp_oracle as mp
from qiradar import closed_form
from qiradar.cli import run_scenario
from qiradar.closed_form import TIE_ATOL, born_pair, born_pairs
from qiradar.errors import clamp_unit
from qiradar.scenario import Scenario

with mpmath.workdps(400):  # a phase factor of modulus 1 at every precision the oracle runs
    PHASE_1 = mpmath.expj(1)  # e^{iφ} at φ = 1


def grid():
    """Seeded (η, p, φ, π₀) cases plus the edges η ∈ {0, 1} and p = 0."""
    rng = random.Random(20261018)
    cases = [(eta, p, phi, prior)
             for eta in (0.0, 0.35, 1.0) for p in (0.0, 1e-7, 0.2, 0.5, 0.97)
             for phi in (0.0, 1.0, math.pi) for prior in (0.0, 0.3, 0.5, 1.0)]
    for _ in range(150):
        cases.append((rng.uniform(0, 1), rng.uniform(0, 1),
                      rng.uniform(-4 * math.pi, 6 * math.pi), rng.uniform(0, 1)))
    return cases


def thresholds(eta, p, rng):
    ts = [0.0, 0.5, 1.0, 2.0, 8.0, *mp.crossings(eta, p), *(rng.uniform(0, 8) for _ in range(5))]
    return sorted(ts)


def test_born_pair_within_a_few_ulp_of_50_digits():
    # Every case is checked. 64 have an eigenvalue within 4ε(w₀ + w₁) of TIE_ATOL, where the
    # rounding of a generic eigensolve may flip the call; each is a crossing, whose eigenvalue
    # near 0 the closed form finds within a few ulp of itself, far from TIE_ATOL.
    for eta, p, w0, w1 in mp.mp_cases() + mp.interior_cases():
        for got, ref in zip(born_pair(eta, p, w0, w1), mp.born_pair(eta, p, w0, w1)):
            assert mp.ulps(got, ref) <= mp.MP_ULPS, (eta, p, w0, w1, got, ref)


def test_born_pairs_sweeps_within_a_few_ulp_of_50_digits():
    # Each (η, p) of the grids swept at once over its sorted thresholds, zero tail included.
    sweeps = {}
    for eta, p, t, w1 in mp.mp_cases() + mp.interior_cases():
        if w1 == 1.0:
            sweeps.setdefault((eta, p), set()).add(t)
    for (eta, p), ts in sweeps.items():
        ts = sorted(ts)
        for t, point in zip(ts, padded(born_pairs(eta, p, ts), len(ts))):
            for got, ref in zip(point, mp.born_pair(eta, p, t, 1.0)):
                assert mp.ulps(got, ref) <= mp.MP_ULPS, (eta, p, t, got, ref)


def test_the_far_crossing_sides_with_h0():
    # At t₊ ≈ 5.1e8 an eigenvalue of ρ₁ − tρ₀ is within 1e-16 of 0, 1e-10 under TIE_ATOL,
    # and every other is negative, so nothing decides H1. A generic eigensolve, whose
    # rounding of ρ₁ − tρ₀ is about 5.1e8·ε ≈ 1e-7, decided H1 there with P_D = ½.
    eta, p = mp.MP_FAR_CROSSINGS[0]
    t = max(mp.crossings(eta, p))
    values = sorted(mp.spectrum(eta, p, t, 1.0)[0], key=abs)
    assert 5.1e8 < t < 5.2e8 and abs(values[0]) < 1e-16 and max(values[1:]) < 0
    assert born_pair(eta, p, t, 1.0) == (0.0, 0.0) and mp.born_pair(eta, p, t, 1.0) == (0, 0)


def test_the_oracle_holds_no_phase():
    # The oracle solves at φ = π, where its matrices are real. At φ = 1 they are complex, and
    # mpmath takes its complex eigensolve; the model's numbers must not move.
    for eta, p, w0, w1 in mp.mp_cases()[::40]:
        real, complex_ = mp.spectrum(eta, p, w0, w1), mp.spectrum(eta, p, w0, w1, PHASE_1)
        for a, b in zip((*real[0], *real[1]), (*complex_[0], *complex_[1])):
            assert abs(a - b) <= 1e-45 * (w0 + w1), (eta, p, w0, w1, a, b)
    for eta, p in mp.metric_pairs()[::10]:
        assert abs(mp.fidelity(eta, p) - mp.fidelity(eta, p, PHASE_1)) <= 1e-45, (eta, p)
    # Each crossing is snapped to 0 within 10^−DPS and rounded to one float, so eigensolve noise
    # moves none: 1 − η at η = 0.3 lies halfway between two floats, and η = 1 has a true 0.
    assert mp.mp_cases(PHASE_1) == mp.mp_cases()
    assert mp.crossings(0.3, 0.5) == (0.7000000000000001, 1.9)
    assert mp.crossings(1.0, 0.2) == (0.0, 6.25)


def test_fidelity_and_helstrom_error_within_a_few_ulp_of_50_digits():
    for eta, p in mp.metric_pairs():
        got = closed_form.fidelity(eta, p)
        assert mp.ulps(got, mp.fidelity(eta, p)) <= mp.MP_F_ULPS, (eta, p, got)
        for prior in mp.MP_PRIORS:
            priors = (prior, 1.0 - prior)
            got = closed_form.helstrom_error(eta, p, priors)
            ref = mp.helstrom_error(eta, p, priors)
            assert mp.ulps(got, ref) <= mp.MP_PE_ULPS, (eta, p, prior, got, ref)


@pytest.mark.xfail(strict=True, reason="P_e is 3.83 ulp from the oracle at MP_WORST")
def test_helstrom_error_at_the_worst_case_found():
    eta, p, prior = mp.MP_WORST
    priors = (prior, 1.0 - prior)
    got = closed_form.helstrom_error(eta, p, priors)
    assert mp.ulps(got, mp.helstrom_error(eta, p, priors)) <= mp.MP_PE_ULPS, got


def test_pipeline_metrics_at_a_tiny_prior():
    # P_e = π₀/2 here. The oracle solves at 172 digits, 110 of them for π₀, so that
    # 1 − ‖π₁ρ₁ − π₀ρ₀‖₁ does not cancel to 0.
    eta = prior = 1.235772337592904e-110
    ref = mp.helstrom_error(eta, 1e-12, (prior, 1.0))
    assert mpmath.nstr(ref, 20) == "6.1788616879645198722e-111"
    report = run_scenario(Scenario(phase_rad=1.0, reflectivity=eta, noise_excitation=1e-12,
                                   prior_h0=prior, prior_h1=1.0))
    mp.check_metrics(eta, 1e-12, (prior, 1.0), report.trace_distance, report.fidelity,
                     report.helstrom_error)


def test_pipeline_trace_distance_within_a_few_ulp_of_one_of_50_digits():
    # D comes from one generic eigensolve: measured 1.7 ulp of 1 over these pairs.
    for eta, p in mp.metric_pairs():
        report = run_scenario(Scenario(phase_rad=1.0, reflectivity=eta, noise_excitation=p))
        d = report.trace_distance
        with mpmath.workdps(mp.DPS):
            assert abs(d - mp.trace_distance(eta, p)) <= mp.EIGH_ATOL, (eta, p, d)


def ulp_neighbours(t, k=4):
    """t and the k floats on either side of it that are >= 0."""
    below, above = [t], [t]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return [x for x in below + above[1:] if x >= 0.0]


def test_pipeline_roc_is_born_pair_bit_for_bit():
    # run_scenario sweeps with born_pairs, which forms the (η, p) constants once and
    # stops at the zero tail past the last crossing t₊; each point must still be
    # born_pair's (clamped to [0, 1]) to the last bit, at the crossings, a few ulp
    # either side of t₊, at the tie t = 1 − η, at huge and repeated thresholds, and
    # at p = 0 (where there is no tail), p = 5e-324 and η = 0.
    rng = random.Random(7)
    edges = [(eta, p, 0.5, None) for eta in (0.0, 0.35, 0.6, 1.0) for p in (0.0, 5e-324)]
    edges += [(0.0, p, 1.0, None) for p in (1e-7, 0.2, 0.5, 0.97)]
    for eta, p, phi, _ in grid() + edges:
        ts = [*thresholds(eta, p, rng), 1.0 - eta, *ulp_neighbours(max(mp.crossings(eta, p))),
              1e16, 1e300, 1e308]
        ts = sorted(ts + ts[::4])  # every fourth threshold twice
        roc = ieee_bytes(run_scenario(Scenario(phase_rad=phi, reflectivity=eta,
                                               noise_excitation=p, roc_thresholds=ts)).roc)
        for point in born_pair, unstopped_born_pair:
            expected = [(t, *(clamp_unit(x, "") for x in point(eta, p, t, 1.0))) for t in ts]
            assert roc == ieee_bytes(expected), (eta, p, point.__name__)


class Counted(list):
    """A list that counts the items its iterators have handed out."""

    taken = 0

    def __iter__(self):
        for item in super().__iter__():
            self.taken += 1
            yield item


def padded(columns, n):
    """born_pairs' prefix columns as n points, (0.0, 0.0) past the prefix."""
    p_fa, p_d = columns
    assert len(p_fa) == len(p_d) <= n
    return list(zip(p_fa, p_d)) + [(0.0, 0.0)] * (n - len(p_fa))


def test_sweep_stops_at_the_first_tail_point():
    # η = p = 1/2: the crossings are 1 − η = 0.5 and t₊ = 2.5, where q = c/2 + s·a·b is
    # exactly 0. The first threshold past t₊ is the first tail point: born_pairs takes
    # it from the list and no further one, and returns the five points before it.
    assert mp.crossings(0.5, 0.5) == (0.5, 2.5)
    ts = Counted([0.0, 0.5, 1.0, 2.0, 2.5, math.nextafter(2.5, 3.0), 3.0, 8.0, 1e308])
    p_fa, p_d = born_pairs(0.5, 0.5, ts)
    assert ts.taken == 6
    assert len(p_fa) == len(p_d) == 5
    assert padded((p_fa, p_d), len(ts)) == [unstopped_born_pair(0.5, 0.5, t, 1.0) for t in ts]
    assert p_fa[3] > 0.0 and p_d[3] > 0.0 and p_fa[4] == p_d[4] == 0.0


@pytest.mark.parametrize("eta, p, ts, computed", [
    (0.5, 0.5, [2.6, 3.0, 1e308], 0),              # every threshold past t₊: an empty prefix
    (0.5, 0.0, [0.0, 1.0, 8.0, 1e308], 4),         # p = 0: q = c/2 ≥ 0, so there is no tail
    (0.5, 0.5, [0.0, 0.0, 2.6, 2.6, 2.6], 2),      # repeated thresholds either side of t₊
    (0.5, 0.5, [-0.0, 0.5, 2.5, 3.0], 3),          # −0.0 is 0 to the kernel
])
def test_sweep_prefix_pads_to_the_unstopped_pairs(eta, p, ts, computed):
    ts = Counted(ts)
    columns = born_pairs(eta, p, ts)
    assert len(columns[0]) == computed and ts.taken == min(computed + 1, len(ts))
    assert padded(columns, len(ts)) == [unstopped_born_pair(eta, p, t, 1.0) for t in ts]
    assert born_pair(eta, p, ts[-1], 1.0) == unstopped_born_pair(eta, p, ts[-1], 1.0)


ULP_1 = 2.0**-52


@pytest.mark.parametrize("eta, p", [(eta, p) for eta in (0.0, 0.25, 0.375, 0.6, 1.0 - 1e-6, 1.0)
                                    for p in (0.0, 0.2, 0.5)])
def test_ties_at_threshold_one_minus_eta(eta, p):
    # Each η here has 1 − η exact in binary, so t = 1 − η is the crossing itself;
    # (0.6, 0.2) is the dense golden's, at t = 50/125 = 0.4 on its grid.
    # There ρ₁ − tρ₀ = η|ψ′⟩⟨ψ′| exactly: both scalars and the block's
    # lower eigenvalue are 0 (a triple crossing) and side with H0, so P = |ψ′⟩⟨ψ′|
    # (or 0 at η = 0), and ⟨ψ′|ρ₀|ψ′⟩ = (a + b)/2 = ¼, ⟨ψ′|ρ₁|ψ′⟩ = η + (1 − η)/4.
    p_fa, p_d = born_pair(eta, p, 1.0 - eta, 1.0)
    expected = (0.0, 0.0) if eta == 0.0 else (0.25, eta + (1.0 - eta) / 4.0)
    assert abs(p_fa - expected[0]) <= ULP_1 and abs(p_d - expected[1]) <= ULP_1


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_ties_when_the_states_coincide(p):
    # η = 0: ρ₁ = ρ₀, so w₁ρ₁ − w₀ρ₀ = (w₁ − w₀)ρ₀ is positive on the support
    # of ρ₀ (all four modes, or |00⟩ and |01⟩ at p = 0) or nowhere.
    for w0, w1 in ((0.0, 1.0), (0.5, 1.0), (0.3, 0.7), (1.0 - 1e-9, 1.0)):
        assert born_pair(0.0, p, w0, w1) == pytest.approx((1.0, 1.0), abs=ULP_1)
    # Eigenvalues (w₁ − w₀)·{a, b} of at most 5e-11 are ties.
    for w0, w1 in ((1.0, 1.0), (0.5, 0.5), (2.0, 1.0), (1.0, 0.0), (1.0 - 1e-10, 1.0)):
        assert born_pair(0.0, p, w0, w1) == (0.0, 0.0)


def test_a_block_eigenvalue_at_the_tie_tolerance_sides_with_h0():
    # η = p = 0, w₀ = 0, w₁ = 2·TIE_ATOL: the block is diag(TIE_ATOL, 0) exactly (c = 0,
    # s·a = TIE_ATOL), so its upper eigenvalue is a tie and nothing decides H1.
    assert born_pair(0.0, 0.0, 0.0, 2 * TIE_ATOL) == (0.0, 0.0)


def test_sorted_sweep_does_not_increase():
    # Tr(P_t ρ) falls with t for the Neyman-Pearson projector P_t of ρ₁ − tρ₀;
    # the float evaluation may rise by one rounding at 1 (2^−52).
    for eta, p, _, _ in grid()[::3]:
        ts = sorted({0.0, 1.0 - eta, *mp.crossings(eta, p), *(k / 20 for k in range(161)),
                     *(10.0 ** (k / 2) for k in range(-18, 19))})
        points = [born_pair(eta, p, t, 1.0) for t in ts]
        for t, (fa0, d0), (fa1, d1) in zip(ts[1:], points, points[1:]):
            assert fa1 <= fa0 + ULP_1 and d1 <= d0 + ULP_1, (eta, p, t)


def test_pipeline_metrics_do_not_depend_on_the_phase():
    # At η = 1, p = 1/2 the generic F spread 9.7e-9 over these phases; the closed form
    # holds no φ, and ρ₁ is pure there, so F = ⟨ψ′|ρ₀|ψ′⟩ = ¼ exactly.
    metrics = {(r.fidelity, r.helstrom_error)
               for r in (run_scenario(Scenario(phase_rad=2.0 * math.pi * k / 120 - 1.0,
                                               reflectivity=1.0, noise_excitation=0.5,
                                               prior_h0=0.3, prior_h1=0.7))
                         for k in range(120))}
    assert len(metrics) == 1 and next(iter(metrics))[0] == 0.25


P_EDGES = (0.0, 1e-300, 0.2, 0.5, 0.999999)


@pytest.mark.parametrize("p", P_EDGES)
def test_fidelity_is_one_when_the_target_vanishes(p):
    # At η = 0, ρ₁ = ρ₀: Tr ρ₀ρ₁ + 2√(det ρ₀ det ρ₁) on the block is (a + b)² = ¼, so
    # F = ¼ + ½ + ¼. Over 10⁵ random p, 7% round to 1 − 2⁻⁵³ and none further.
    assert mp.ulps(closed_form.fidelity(0.0, p), 1.0) <= 0.5


@pytest.mark.parametrize("p", P_EDGES)
def test_fidelity_against_a_pure_return_is_a_quarter(p):
    # At η = 1, ρ₁ = |ψ⟩⟨ψ| with |ψ⟩ = (|00⟩ + e^{iφ}|11⟩)/√2, so F = ⟨ψ|ρ₀|ψ⟩ = (a + b)/2 = ¼:
    # det ρ₁ and 1 − η are 0, and Tr ρ₀ρ₁ = ¼ is exact.
    assert closed_form.fidelity(1.0, p) == 0.25


# π₀·P_FA + π₁·P_miss from a rounded Born pair against the report's P_e plus miss/2.
TEST_ERROR_ATOL = 1e-12


@pytest.mark.parametrize("miss", [5e-10, -5e-10])
def test_helstrom_error_at_priors_that_miss_one_within_tolerance(miss):
    # check_priors accepts π₀ + π₁ within 1e-9 of 1. The report's P_e is the documented
    # ½(1 − ‖π₁ρ₁ − π₀ρ₀‖₁), and not the error π₀·P_FA + π₁·P_miss = ½(π₀ + π₁ − ‖·‖₁) of
    # the Helstrom test, 2.5e-10 away.
    priors = (0.3, 0.7 + miss)
    report = run_scenario(Scenario(phase_rad=1.0, reflectivity=0.6, noise_excitation=0.2,
                                   prior_h0=priors[0], prior_h1=priors[1]))
    assert mp.ulps(report.helstrom_error, mp.helstrom_error(0.6, 0.2, priors)) <= mp.MP_PE_ULPS
    p_fa, p_d = born_pair(0.6, 0.2, *priors)
    test_error = priors[0] * p_fa + priors[1] * (1.0 - p_d)
    assert abs(report.helstrom_error + miss / 2.0 - test_error) <= TEST_ERROR_ATOL
    if miss > 0:
        # The value the generic metrics.helstrom_error gave for these states, to the bit.
        assert report.helstrom_error == 0.28497857242219815
