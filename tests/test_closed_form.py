"""Closed-form oracle for the detection model, independent of any eigensolver.

In the signal-first basis |00⟩, |01⟩, |10⟩, |11⟩ the no-target state is
ρ₀ = diag(A, A, B, B) with A = (1 − p)/2 and B = p/2, and ρ₁ couples only
|00⟩ and |11⟩, through ηe^{−iφ}/2. Every operator the pipeline decomposes,
α·ρ₁ − β·ρ₀, is therefore a 2×2 block on {|00⟩, |11⟩} plus two scalars on
|01⟩ and |10⟩, and:

- the block [[u, w], [w̄, v]] has eigenvalues m ± r with m = (u + v)/2 and
  r = √(((u − v)/2)² + |w|²);
- the projector onto its eigenvalue λ is (M − λ′I)/(λ − λ′), λ′ the other;
- the fidelity of two 2×2 PSD blocks is Tr(AB) + 2√(det A · det B)
  (Hübner, Phys. Lett. A 163, 239, 1992), and fidelities of a direct sum
  add under the square root.

Eigenvalues within TIE_ATOL of zero side with H0, as in the package.

The package's own closed form, ``qiradar.closed_form``'s ``born_pair``,
``fidelity`` and ``helstrom_error``, is checked here against this oracle,
against the generic eigensolver path, and against a 50-digit mpmath evaluation
of the same model.
"""

import math

import numpy as np
import pytest
from conftest import GENERIC_ATOL, generic_fidelity_atol, unstopped_born_pair

from qiradar import closed_form, detector
from qiradar.channel import TargetParams, hypothesis_h0, hypothesis_h1
from qiradar.cli import run_scenario
from qiradar.closed_form import born_pair, born_pairs
from qiradar.detector import TIE_ATOL, roc_sweep
from qiradar.errors import clamp_unit
from qiradar.metrics import fidelity, helstrom_error, trace_distance
from qiradar.scenario import Scenario

ATOL = GENERIC_ATOL


class Model:
    """ρ₀ and ρ₁ of one (η, p, φ) as a 2×2 block plus two scalars each."""

    def __init__(self, eta, p, phi):
        a, b = (1.0 - p) / 2.0, p / 2.0
        self.eta = eta
        self.rho0 = (np.diag([a, b]).astype(complex), a, b)
        coupling = eta * complex(math.cos(phi), -math.sin(phi)) / 2.0
        block = np.array([[eta / 2 + (1 - eta) * a, coupling],
                          [coupling.conjugate(), eta / 2 + (1 - eta) * b]])
        self.rho1 = (block, (1 - eta) * a, (1 - eta) * b)

    def combine(self, alpha, beta):
        """α·ρ₁ − β·ρ₀ in block form."""
        return tuple(alpha * x1 - beta * x0 for x1, x0 in zip(self.rho1, self.rho0))

    def eigenvalues(self, alpha, beta):
        """Block eigenvalues m + r, m − r and the two scalars of α·ρ₁ − β·ρ₀."""
        block, s01, s10 = self.combine(alpha, beta)
        u, v, w = block[0, 0].real, block[1, 1].real, block[0, 1]
        m, r = (u + v) / 2.0, math.hypot((u - v) / 2.0, abs(w))
        return block, m + r, m - r, s01, s10

    def positive_projector(self, alpha, beta):
        """Projector onto the eigenvalues > TIE_ATOL of α·ρ₁ − β·ρ₀."""
        block, upper, lower, s01, s10 = self.eigenvalues(alpha, beta)
        if lower > TIE_ATOL:
            p_block = np.eye(2)
        elif upper > TIE_ATOL:
            p_block = (block - lower * np.eye(2)) / (upper - lower)
        else:
            p_block = np.zeros((2, 2))
        return p_block, float(s01 > TIE_ATOL), float(s10 > TIE_ATOL)

    @staticmethod
    def born(projector, state):
        """Tr(P·ρ), clamped to [0, 1] as the package clamps it."""
        (p_block, p01, p10), (x_block, x01, x10) = projector, state
        value = float(np.trace(p_block @ x_block).real) + p01 * x01 + p10 * x10
        return min(max(value, 0.0), 1.0)

    def trace_norm(self, alpha, beta):
        return sum(abs(x) for x in self.eigenvalues(alpha, beta)[1:])

    def trace_distance(self):
        return 0.5 * self.trace_norm(1.0, 1.0)

    def helstrom_error(self, prior_h0):
        return 0.5 * (1.0 - self.trace_norm(1.0 - prior_h0, prior_h0))

    def fidelity(self):
        (x, x01, x10), (y, y01, y10) = self.rho0, self.rho1
        det = np.linalg.det(x).real * np.linalg.det(y).real
        block = float(np.trace(x @ y).real) + 2.0 * math.sqrt(max(det, 0.0))
        return (math.sqrt(max(block, 0.0)) + math.sqrt(x01 * y01) + math.sqrt(x10 * y10)) ** 2

    def crossings(self):
        """Thresholds t ≥ 0 where an eigenvalue of ρ₁ − t·ρ₀ is zero."""
        (_, a, b), (y, _, _) = self.rho0, self.rho1
        ts = [1.0 - self.eta]  # both scalars vanish
        # det(y − t·x) = 0 with x = diag(a, b): a·b·t² − (y11·b + y22·a)·t + det y = 0
        qa, qb, qc = a * b, -(y[0, 0].real * b + y[1, 1].real * a), np.linalg.det(y).real
        if qa > 0.0:
            disc = max(qb * qb - 4.0 * qa * qc, 0.0)
            ts += [(-qb + sign * math.sqrt(disc)) / (2.0 * qa) for sign in (1.0, -1.0)]
        return [t for t in ts if t >= 0.0]


def grid():
    """Seeded (η, p, φ, π₀) cases plus the edges η ∈ {0, 1} and p = 0."""
    rng = np.random.default_rng(20261018)
    cases = [(eta, p, phi, prior)
             for eta in (0.0, 0.35, 1.0) for p in (0.0, 1e-7, 0.2, 0.5, 0.97)
             for phi in (0.0, 1.0, math.pi) for prior in (0.0, 0.3, 0.5, 1.0)]
    for _ in range(150):
        cases.append((float(rng.uniform(0, 1)), float(rng.uniform(0, 1)),
                      float(rng.uniform(-4 * math.pi, 6 * math.pi)), float(rng.uniform(0, 1))))
    return cases


def states(eta, p, phi):
    return hypothesis_h0(p), hypothesis_h1(TargetParams(phi, eta, p))


def thresholds(model, rng):
    ts = [0.0, 0.5, 1.0, 2.0, 8.0, *model.crossings(), *rng.uniform(0, 8, 5)]
    return sorted(float(t) for t in ts)


def test_metrics_match_the_closed_form():
    for eta, p, phi, prior in grid():
        model = Model(eta, p, phi)
        rho0, rho1 = states(eta, p, phi)
        where = f"eta={eta!r} p={p!r} phi={phi!r} prior_h0={prior!r}"
        d, pe = trace_distance(rho0, rho1), helstrom_error(rho0, rho1, (prior, 1.0 - prior))
        assert abs(d - min(model.trace_distance(), 1.0)) <= ATOL, where
        assert abs(pe - max(model.helstrom_error(prior), 0.0)) <= ATOL, where
        f_atol = generic_fidelity_atol(eta, p)
        assert abs(fidelity(rho0, rho1) - min(model.fidelity(), 1.0)) <= f_atol, where
        # The package's closed form is exact here, generic tolerances or not.
        assert abs(closed_form.fidelity(eta, p) - model.fidelity()) <= ATOL, where
        pe = closed_form.helstrom_error(eta, p, (prior, 1.0 - prior))
        assert abs(pe - model.helstrom_error(prior)) <= ATOL, where


def test_helstrom_born_probabilities_match_the_closed_form():
    for eta, p, phi, prior in grid():
        model = Model(eta, p, phi)
        generic = detector.born_pair(*states(eta, p, phi), prior, 1.0 - prior)
        projector = model.positive_projector(1.0 - prior, prior)
        expected = (model.born(projector, model.rho0), model.born(projector, model.rho1))
        ours = born_pair(eta, p, prior, 1.0 - prior)
        for got, want, package in zip(generic, expected, ours):
            assert abs(got - want) <= ATOL and abs(got - package) <= ATOL, (eta, p, phi, prior)


def test_roc_sweep_matches_the_closed_form():
    rng = np.random.default_rng(7)
    for eta, p, phi, _ in grid():
        model = Model(eta, p, phi)
        ts = thresholds(model, rng)
        for point, t in zip(roc_sweep(*states(eta, p, phi), ts), ts):
            projector = model.positive_projector(1.0, t)
            p_fa = model.born(projector, model.rho0)
            p_d = model.born(projector, model.rho1)
            ours = born_pair(eta, p, t, 1.0)
            assert point.threshold == t
            assert abs(point.p_false_alarm - p_fa) <= ATOL, (eta, p, phi, t)
            assert abs(point.p_detection - p_d) <= ATOL, (eta, p, phi, t)
            assert max(abs(g - o) for g, o in zip(point[1:], ours)) <= ATOL, (eta, p, phi, t)


@pytest.mark.parametrize("eta, p, prior", [(0.6, 0.2, 0.3), (1.0, 0.5, 0.5), (0.35, 0.0, 0.8)])
def test_metrics_do_not_depend_on_the_phase(eta, p, prior):
    # φ is a local unitary on the signal mode that commutes with ρ₀, so the
    # closed forms hold no φ at all; the package must agree up to roundoff.
    ts = [0.0, 0.25, 0.5, 1.0 - eta, 1.0, 2.0, 4.0]
    values = []
    for k in range(120):
        rho0, rho1 = states(eta, p, 2.0 * math.pi * k / 120 - 1.0)
        roc = roc_sweep(rho0, rho1, ts)
        values.append([trace_distance(rho0, rho1),
                       helstrom_error(rho0, rho1, (prior, 1.0 - prior)),
                       *(pt.p_false_alarm for pt in roc), *(pt.p_detection for pt in roc)])
    spread = np.ptp(np.array(values), axis=0)
    assert float(spread.max()) <= 1e-14, spread


def weights(model, rng, prior):
    """(w₀, w₁) of a sorted ROC sweep with its eigenvalue crossings, then the
    Helstrom weights (π₀, π₁)."""
    return [(t, 1.0) for t in thresholds(model, rng)] + [(prior, 1.0 - prior)]


def test_born_pair_matches_the_oracle():
    rng = np.random.default_rng(11)
    for eta, p, phi, prior in grid():
        model = Model(eta, p, phi)
        for w0, w1 in weights(model, rng, prior):
            projector = model.positive_projector(w1, w0)
            expected = (model.born(projector, model.rho0), model.born(projector, model.rho1))
            got = born_pair(eta, p, w0, w1)
            assert max(abs(g - e) for g, e in zip(got, expected)) <= ATOL, (eta, p, w0, w1)


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
    rng = np.random.default_rng(7)
    edges = [(eta, p, 0.5, None) for eta in (0.0, 0.35, 0.6, 1.0) for p in (0.0, 5e-324)]
    edges += [(0.0, p, 1.0, None) for p in (1e-7, 0.2, 0.5, 0.97)]
    for eta, p, phi, _ in grid() + edges:
        model = Model(eta, p, phi)
        ts = [*thresholds(model, rng), 1.0 - eta, *ulp_neighbours(max(model.crossings())),
              1e16, 1e300, 1e308]
        ts = sorted(ts + ts[::4])  # every fourth threshold twice
        roc = np.array(run_scenario(Scenario(phase_rad=phi, reflectivity=eta,
                                             noise_excitation=p, roc_thresholds=ts)).roc)
        for point in born_pair, unstopped_born_pair:
            expected = [(t, *(clamp_unit(x, "") for x in point(eta, p, t, 1.0))) for t in ts]
            assert roc.tobytes() == np.array(expected).tobytes(), (eta, p, point.__name__)


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
    assert max(Model(0.5, 0.5, 0.0).crossings()) == 2.5
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
    for eta, p, phi, _ in grid()[::3]:
        model = Model(eta, p, phi)
        ts = sorted({0.0, 1.0 - eta, *model.crossings(), *np.linspace(0.0, 8.0, 161),
                     *np.geomspace(1e-9, 1e9, 37)})
        points = [born_pair(eta, p, float(t), 1.0) for t in ts]
        for t, (fa0, d0), (fa1, d1) in zip(ts[1:], points, points[1:]):
            assert fa1 <= fa0 + ULP_1 and d1 <= d0 + ULP_1, (eta, p, t)


# Edges of item 3 of the accuracy contract: η and p near 0 and 1, priors
# down to 1e-12 on either side, and thresholds at the eigenvalue crossings.
MP_ETAS = (0.0, 1e-12, 1e-6, 0.3, 0.6, 1.0 - 1e-6, 1.0 - 1e-12, 1.0)
MP_PS = (0.0, 1e-300, 1e-12, 1e-6, 0.2, 0.5, 1.0 - 1e-6)
MP_PRIORS = (0.0, 1e-12, 1e-8, 1e-3, 0.3, 0.5, 0.7, 1.0 - 1e-8, 1.0 - 1e-12, 1.0)
MP_THRESHOLDS = (0.0, 0.4, 1.0, 1.5, 8.0, 1e6)
# Crossings at huge thresholds, where m + r cancels to nothing: m − r and
# det/(m − r) must give the eigenvalue near 0 (found by a seeded random search).
MP_FAR_CROSSINGS = ((0.9999996580576973, 1.958143668256522e-09),
                    (0.7127192548373937, 1.592423588492364e-10),
                    (0.3608345856139843, 7.821151399112491e-12))
# Measured: at most 3.4 ulp over this grid, and 4.4 ulp over 3000 random
# log-uniform (η, p, t, π₀) cases at their crossings. 0 must come out exactly 0.
MP_ULPS = 8


def mp_born(mpmath, eta, p, w0, w1, phi=1.0):
    """(Tr Pρ₀, Tr Pρ₁) at 50 digits from the textbook block formulas: eigenvalues
    m ± r and the projector (M − λ₋I)/(λ₊ − λ₋), with no care for cancellation."""
    eta, p, w0, w1 = (mpmath.mpf(x) for x in (eta, p, w0, w1))
    a, b = (1 - p) / 2, p / 2
    coupling = eta * mpmath.expj(-phi) / 2
    rho0 = ([[a, 0], [0, b]], a, b)
    rho1 = ([[eta / 2 + (1 - eta) * a, coupling], [mpmath.conj(coupling), eta / 2 + (1 - eta) * b]],
            (1 - eta) * a, (1 - eta) * b)
    m = [[w1 * y - w0 * x for x, y in zip(rx, ry)] for rx, ry in zip(rho0[0], rho1[0])]
    u, v = mpmath.re(m[0][0]), mpmath.re(m[1][1])
    mid, rad = (u + v) / 2, mpmath.sqrt(((u - v) / 2) ** 2 + abs(m[0][1]) ** 2)
    if mid - rad > TIE_ATOL:
        proj = [[1, 0], [0, 1]]
    elif mid + rad > TIE_ATOL:
        proj = [[(m[i][j] - (mid - rad) * (i == j)) / (2 * rad) for j in (0, 1)] for i in (0, 1)]
    else:
        proj = [[0, 0], [0, 0]]
    scalars = [w1 * y - w0 * x > TIE_ATOL for x, y in zip(rho0[1:], rho1[1:])]
    return tuple(mpmath.re(sum(proj[i][j] * block[j][i] for i in (0, 1) for j in (0, 1)))
                 + sum(x for x, on in zip(rest, scalars) if on)
                 for block, *rest in (rho0, rho1))


def mp_cases():
    """The (η, p, w₀, w₁) of the 50-digit grid: the far crossings, then each (η, p) at
    MP_THRESHOLDS and its crossings, and at MP_PRIORS."""
    cases = [(eta, p, t, 1.0) for eta, p in MP_FAR_CROSSINGS for t in Model(eta, p, 0.0).crossings()]
    for eta in MP_ETAS:
        for p in MP_PS:
            ts = (*MP_THRESHOLDS, *Model(eta, p, 0.0).crossings())
            cases += [(eta, p, t, 1.0) for t in ts] + [(eta, p, pr, 1.0 - pr) for pr in MP_PRIORS]
    return cases


def test_born_pair_within_a_few_ulp_of_50_digits():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for eta, p, w0, w1 in mp_cases():
            for got, ref in zip(born_pair(eta, p, w0, w1), mp_born(mpmath, eta, p, w0, w1)):
                bound = MP_ULPS * math.ulp(float(ref))
                assert abs(mpmath.mpf(got) - ref) <= bound, (eta, p, w0, w1, got, ref)



def mp_spectrum(mpmath, eta, p, w0, w1):
    """The eigenvalues m ± r of the block and the two scalars of w₁ρ₁ − w₀ρ₀ at 50 digits."""
    eta, p, w0, w1 = (mpmath.mpf(x) for x in (eta, p, w0, w1))
    a, b = (1 - p) / 2, p / 2
    u, v = w1 * (eta / 2 + (1 - eta) * a) - w0 * a, w1 * (eta / 2 + (1 - eta) * b) - w0 * b
    m, r = (u + v) / 2, mpmath.sqrt(((u - v) / 2) ** 2 + (w1 * eta / 2) ** 2)
    return m + r, m - r, (w1 * (1 - eta) - w0) * a, (w1 * (1 - eta) - w0) * b


def test_generic_born_pair_matches_the_closed_form_on_the_50_digit_grid():
    # The generic test forms w₁ρ₁ − w₀ρ₀ from two rounded states: an error of about
    # ε(w₀ + w₁) that turns its projector by that over the gap between the eigenvalues it
    # keeps and those it drops, and can flip the call on an eigenvalue that close to
    # TIE_ATOL. So it matches within ATOL plus that turn wherever no eigenvalue is within
    # 4ε(w₀ + w₁) of the tie line. Measured: 1012 of the 1057 cases are checked, none past
    # 0.5% of its bound; of the 45 ties skipped, only the far crossing at t ≈ 5.1e8 is off
    # by more than ATOL, by 0.5, its call flipped.
    mpmath = pytest.importorskip("mpmath")
    checked = 0
    with mpmath.workdps(50):
        for eta, p, w0, w1 in mp_cases():
            noise = math.ulp(1.0) * (w0 + w1)
            spectrum = mp_spectrum(mpmath, eta, p, w0, w1)
            if any(abs(x - TIE_ATOL) <= 4 * noise for x in spectrum):
                continue
            kept = [x for x in spectrum if x > TIE_ATOL]
            dropped = [x for x in spectrum if x <= TIE_ATOL]
            gap = float(min(kept) - max(dropped)) if kept and dropped else math.inf
            generic = detector.born_pair(*states(eta, p, 1.0), w0, w1)
            for got, ours in zip(generic, born_pair(eta, p, w0, w1)):
                assert abs(got - ours) <= ATOL + noise / gap, (eta, p, w0, w1, got, ours)
            checked += 1
    assert checked >= 1000

# Measured: at most 1.6 ulp for F and 2.4 ulp for P_e over this grid, and 1.7 and 2.7 ulp
# over 335 (η, p) at the ten priors. Just below a power of 2 an ulp is 2⁻⁵³ of the value.
MP_F_ULPS, MP_PE_ULPS = 4, 3


def mp_metrics(mpmath, eta, p, p0, p1):
    """(F, P_e) at 50 digits from the textbook forms: Hübner's 2×2 fidelity with
    det ρ₁ = y₁₁y₂₂ − η²/4 and √(x·y) on each scalar, and ½(1 − Σ|λ|) over the
    eigenvalues m ± r of the block and the two scalars of π₁ρ₁ − π₀ρ₀, taking the total
    trace as 1 whatever π₀ + π₁ is, as helstrom_error documents."""
    eta, p, p0, p1 = (mpmath.mpf(x) for x in (eta, p, p0, p1))
    a, b = (1 - p) / 2, p / 2
    fa, fb = (1 - eta) * a, (1 - eta) * b
    y11, y22 = eta / 2 + fa, eta / 2 + fb
    block = a * y11 + b * y22 + 2 * mpmath.sqrt(a * b * (y11 * y22 - eta**2 / 4))
    fid = (mpmath.sqrt(block) + mpmath.sqrt(a * fa) + mpmath.sqrt(b * fb)) ** 2
    u, v = p1 * y11 - p0 * a, p1 * y22 - p0 * b
    m, r = (u + v) / 2, mpmath.sqrt(((u - v) / 2) ** 2 + (p1 * eta / 2) ** 2)
    norm = abs(m + r) + abs(m - r) + abs(p1 * fa - p0 * a) + abs(p1 * fb - p0 * b)
    return fid, (1 - norm) / 2


def mp_ulps(mpmath, got, ref):
    """|got − ref| in ulps of ref; a zero reference must come out exactly 0."""
    if not ref:
        return 0.0 if got == 0.0 else math.inf
    return float(abs(mpmath.mpf(got) - ref) / math.ulp(float(ref)))


def metric_pairs():
    """The (η, p) edge grid of the Born test, then seeded random pairs, uniform and
    log-uniform near 0 and 1."""
    rng = np.random.default_rng(20261019)
    pairs = [(eta, p) for eta in MP_ETAS for p in MP_PS]
    for _ in range(100):
        eta = rng.choice([rng.uniform(0, 1), 10 ** rng.uniform(-12, 0),
                          1 - 10 ** rng.uniform(-12, 0)])
        p = rng.choice([rng.uniform(0, 1), 10 ** rng.uniform(-12, 0),
                        1 - 10 ** rng.uniform(-6, 0)])
        pairs.append((float(eta), float(p)))
    return pairs


def test_fidelity_and_helstrom_error_within_a_few_ulp_of_50_digits():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for eta, p in metric_pairs():
            ref_f, _ = mp_metrics(mpmath, eta, p, 0.5, 0.5)
            got = closed_form.fidelity(eta, p)
            assert mp_ulps(mpmath, got, ref_f) <= MP_F_ULPS, (eta, p, got, ref_f)
            for prior in MP_PRIORS:
                priors = (prior, 1.0 - prior)
                _, ref_pe = mp_metrics(mpmath, eta, p, *priors)
                got = closed_form.helstrom_error(eta, p, priors)
                assert mp_ulps(mpmath, got, ref_pe) <= MP_PE_ULPS, (eta, p, prior, got, ref_pe)


def test_pipeline_metrics_do_not_depend_on_the_phase():
    # At η = 1, p = 1/2 the generic F spread 9.7e-9 over these phases; the closed form
    # holds no φ, and ρ₁ is pure there, so F = ⟨ψ′|ρ₀|ψ′⟩ = ¼ exactly.
    metrics = {(r.fidelity, r.helstrom_error)
               for r in (run_scenario(Scenario(phase_rad=2.0 * math.pi * k / 120 - 1.0,
                                               reflectivity=1.0, noise_excitation=0.5,
                                               prior_h0=0.3, prior_h1=0.7))
                         for k in range(120))}
    assert len(metrics) == 1 and next(iter(metrics))[0] == 0.25


@pytest.mark.parametrize("miss", [5e-10, -5e-10])
def test_helstrom_error_at_priors_that_miss_one_within_tolerance(miss):
    # check_priors accepts π₀ + π₁ within 1e-9 of 1. The report's P_e is the documented
    # ½(1 − ‖π₁ρ₁ − π₀ρ₀‖₁), which the generic path computes, and not the error
    # π₀·P_FA + π₁·P_miss = ½(π₀ + π₁ − ‖·‖₁) of the Helstrom test, 2.5e-10 away.
    priors = (0.3, 0.7 + miss)
    report = run_scenario(Scenario(phase_rad=1.0, reflectivity=0.6, noise_excitation=0.2,
                                   prior_h0=priors[0], prior_h1=priors[1]))
    generic = helstrom_error(*states(0.6, 0.2, 1.0), priors)
    assert abs(report.helstrom_error - generic) <= ATOL
    p_fa, p_d = born_pair(0.6, 0.2, *priors)
    test_error = priors[0] * p_fa + priors[1] * (1.0 - p_d)
    assert abs(report.helstrom_error + miss / 2.0 - test_error) <= ATOL
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        _, ref = mp_metrics(mpmath, 0.6, 0.2, *priors)
        assert mp_ulps(mpmath, report.helstrom_error, ref) <= MP_PE_ULPS
    if miss > 0:
        assert report.helstrom_error == 0.28497857242219815  # the generic value, to the bit
