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
"""

import math

import numpy as np
import pytest

from qiradar.channel import TargetParams, hypothesis_h0, hypothesis_h1
from qiradar.detector import TIE_ATOL, born_probability, helstrom_measurement, roc_sweep
from qiradar.metrics import FVG_ATOL, distinguishability

ATOL = 1e-12


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
        report = distinguishability(rho0, rho1, (prior, 1.0 - prior))
        where = f"eta={eta!r} p={p!r} phi={phi!r} prior_h0={prior!r}"
        assert abs(report.trace_distance - min(model.trace_distance(), 1.0)) <= ATOL, where
        assert abs(report.helstrom_error - max(model.helstrom_error(prior), 0.0)) <= ATOL, where
        # The generic fidelity takes sqrt_psd of a rank-deficient product at
        # η = 1 or small p, which amplifies roundoff; elsewhere it is exact.
        f_atol = ATOL if 0.05 <= p <= 0.95 and eta <= 0.99 else FVG_ATOL
        assert abs(report.fidelity - min(model.fidelity(), 1.0)) <= f_atol, where


def test_helstrom_born_probabilities_match_the_closed_form():
    for eta, p, phi, prior in grid():
        model = Model(eta, p, phi)
        rho0, rho1 = states(eta, p, phi)
        m = helstrom_measurement(rho0, rho1, (prior, 1.0 - prior))
        projector = model.positive_projector(1.0 - prior, prior)
        for state, ours in ((rho0, model.rho0), (rho1, model.rho1)):
            expected = model.born(projector, ours)
            assert abs(born_probability(m, state) - expected) <= ATOL, (eta, p, phi, prior)


def test_roc_sweep_matches_the_closed_form():
    rng = np.random.default_rng(7)
    for eta, p, phi, _ in grid():
        model = Model(eta, p, phi)
        ts = thresholds(model, rng)
        for point, t in zip(roc_sweep(*states(eta, p, phi), ts), ts):
            projector = model.positive_projector(1.0, t)
            p_fa = model.born(projector, model.rho0)
            p_d = model.born(projector, model.rho1)
            assert point.threshold == t
            assert abs(point.p_false_alarm - p_fa) <= ATOL, (eta, p, phi, t)
            assert abs(point.p_detection - p_d) <= ATOL, (eta, p, phi, t)


@pytest.mark.parametrize("eta, p, prior", [(0.6, 0.2, 0.3), (1.0, 0.5, 0.5), (0.35, 0.0, 0.8)])
def test_metrics_do_not_depend_on_the_phase(eta, p, prior):
    # φ is a local unitary on the signal mode that commutes with ρ₀, so the
    # closed forms hold no φ at all; the package must agree up to roundoff.
    ts = [0.0, 0.25, 0.5, 1.0 - eta, 1.0, 2.0, 4.0]
    values = []
    for k in range(120):
        rho0, rho1 = states(eta, p, 2.0 * math.pi * k / 120 - 1.0)
        report = distinguishability(rho0, rho1, (prior, 1.0 - prior))
        roc = roc_sweep(rho0, rho1, ts)
        values.append([report.trace_distance, report.helstrom_error,
                       *(pt.p_false_alarm for pt in roc), *(pt.p_detection for pt in roc)])
    spread = np.ptp(np.array(values), axis=0)
    assert float(spread.max()) <= 1e-14, spread
