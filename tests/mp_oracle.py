"""A 50-digit oracle of the detection model, computed from its 4×4 matrices, and its grids.

The states are the channel module's, ρ₀ = diag(1 − p, p) ⊗ I/2 and ρ₁ = η|ψ′⟩⟨ψ′| + (1 − η)ρ₀
with |ψ′⟩ = (|00⟩ + e^{iφ}|11⟩)/√2, formed in mpmath from the float (η, p). Every number comes
from mpmath.eigh of a 4×4 Hermitian matrix: nothing here uses the model's 2×2-block structure,
the derivation that qiradar.closed_form rests on, the package's linear-algebra layer or numpy.

The model's numbers hold no φ. The oracle takes φ = π, where e^{iφ} = −1 and |ψ′⟩ is the other
Bell state (|00⟩ − |11⟩)/√2: its matrices stay real, and mpmath's real eigensolve costs less
than half its complex one. Another phase factor can be passed, and a test checks that φ = 1
gives the same numbers.

An eigensolve is good to about 10^−digits of its matrix's norm, so each one runs at DPS digits
plus the decimal digits of that norm, of 1/p and of 1/w for the smallest nonzero weight w: its
numbers are then good to about 10^−DPS of the model's smallest scales, p and the weights,
however large the weights' sum. Each weighted spectrum is solved once per process, and a Born
pair and a trace norm of the same weights share it.

The tests hold the pipeline's numbers, D, F, P_e, the ROC and the Born pair of its Monte Carlo,
to this oracle, within the bounds defined here.
"""

import functools
import math
import random

import mpmath

from qiradar.closed_form import TIE_ATOL

DPS = 50
PHASE = -1  # e^{iφ} at φ = π
CROSSING_DIGITS = 30

# The bounds that the package's numbers are held to against the oracle, each with the most that
# the tests measure over the grids below, the goldens and the property draws. Just below a
# power of 2 an ulp is 2⁻⁵³ of the value.
MP_ULPS = 8  # a closed-form Born probability: 4.5 ulp
MP_F_ULPS, MP_PE_ULPS = 4, 3  # the closed-form F and P_e: 1.54 and 2.10 ulp
# A generic eigensolve's D, P_e and Born probabilities, beyond what its rounding of
# w₁ρ₁ − w₀ρ₀ moves a Born probability: measured up to 2.5 ulp of 1.
EIGH_ATOL = 8 * 2.0**-52


def _digits(p: float, weights: tuple[float, ...] = (1.0,)) -> int:
    """The digits that leave an eigensolve of a matrix of these weights good to 10^−DPS of p and
    of the smallest nonzero weight, whatever the weights' sum."""
    smallest = min((w for w in weights if w), default=1.0)
    return DPS + math.ceil(math.log10(max(sum(weights), 1.0))) + sum(
        math.ceil(-math.log10(x)) for x in (p, smallest) if 0.0 < x < 1.0)


def _matrix(f) -> "mpmath.matrix":
    """The 4×4 matrix of entries f(i, j), built from a list: mpmath's matrix arithmetic would
    add about a third to the eigensolve it feeds."""
    return mpmath.matrix([[f(i, j) for j in range(4)] for i in range(4)])


@functools.cache
def states(eta: float, p: float, dps: int = DPS, phase=PHASE):
    """(ρ₀, ρ₁) at dps digits with the phase factor e^{iφ}, each a list of rows."""
    with mpmath.workdps(dps):
        eta, p = mpmath.mpf(eta), mpmath.mpf(p)
        diagonal = [(1 - p) / 2, (1 - p) / 2, p / 2, p / 2]
        rho0 = [[diagonal[i] if i == j else mpmath.mpf(0) for j in range(4)] for i in range(4)]
        psi = [1 / mpmath.sqrt(2), 0, 0, phase / mpmath.sqrt(2)]
        rho1 = [[eta * psi[i] * mpmath.conj(psi[j]) + (1 - eta) * rho0[i][j] for j in range(4)]
                for i in range(4)]
        return rho0, rho1


@functools.cache
def spectrum(eta: float, p: float, w0: float, w1: float, phase=PHASE):
    """(the eigenvalues of w₁ρ₁ − w₀ρ₀, (Re Tr Pρ₀, Re Tr Pρ₁)), P the projector onto the
    eigenvalues > TIE_ATOL, which side with H1 as in the package."""
    dps = _digits(p, (w0, w1))
    rho0, rho1 = states(eta, p, dps, phase)
    with mpmath.workdps(dps):
        w0, w1 = mpmath.mpf(w0), mpmath.mpf(w1)
        values, vectors = mpmath.eigh(_matrix(lambda i, j: w1 * rho1[i][j] - w0 * rho0[i][j]),
                                      overwrite_a=True)
        kept = [[vectors[i, k] for i in range(4)] for k in range(4) if values[k] > TIE_ATOL]
        return tuple(values), tuple(  # Re Σ v̄ᵢ ρᵢⱼ vⱼ over the kept eigenvectors v
            mpmath.re(mpmath.fsum(mpmath.conj(v[i]) * rho[i][j] * v[j] for v in kept
                                  for i in range(4) for j in range(4) if rho[i][j]))
            for rho in (rho0, rho1))


def born_pair(eta: float, p: float, w0: float, w1: float):
    """(Tr Pρ₀, Tr Pρ₁) for the weights (w₀, w₁)."""
    return spectrum(eta, p, w0, w1)[1]


def trace_distance(eta: float, p: float):
    """D = ½‖ρ₁ − ρ₀‖₁."""
    with mpmath.workdps(DPS):
        return mpmath.fsum(abs(x) for x in spectrum(eta, p, 1.0, 1.0)[0]) / 2


def helstrom_error(eta: float, p: float, priors: tuple[float, float]):
    """P_e = ½(1 − ‖π₁ρ₁ − π₀ρ₀‖₁), the total trace taken as 1 whatever π₀ + π₁ is, as the
    package defines it. 1 − ‖·‖₁ cancels to within 10^−digits of 0 where P_e is 0 (a prior
    of 0 or 1), so a value that small is 0."""
    dps = _digits(p, priors)
    with mpmath.workdps(dps):
        error = (1 - mpmath.fsum(abs(x) for x in spectrum(eta, p, *priors)[0])) / 2
        return error if abs(error) > mpmath.mpf(10) ** -dps else mpmath.mpf(0)


@functools.cache
def fidelity(eta: float, p: float, phase=PHASE):
    """F = (Σ√λ)² over the eigenvalues λ of √ρ₀ρ₁√ρ₀. ρ₀ is diagonal, so √ρ₀ takes the roots
    of its entries; mpmath.sqrtm divides by zero on the singular ρ₀ at p = 0."""
    dps = _digits(p)
    rho0, rho1 = states(eta, p, dps, phase)
    with mpmath.workdps(dps):
        root = [mpmath.sqrt(rho0[k][k]) for k in range(4)]
        values = mpmath.eigh(_matrix(lambda i, j: root[i] * rho1[i][j] * root[j]),
                             eigvals_only=True)
        return mpmath.fsum(mpmath.sqrt(max(x, 0)) for x in values) ** 2


@functools.cache
def crossings(eta: float, p: float, phase=PHASE) -> tuple[float, ...]:
    """The sorted distinct finite floats of the thresholds t ≥ 0 where ρ₁ − tρ₀ is singular, the
    eigenvalues of ρ₀^{−1/2}ρ₁ρ₀^{−1/2}, whose norm is about 1/min(p, 1 − p). At p = 0,
    ρ₀^{−1/2} inverts ρ₀ on its support only, and the values are 0, 1 and 1 − η; 1 − η is the
    one threshold where an eigenvalue of ρ₁ − tρ₀ other than |10⟩'s constant 0 crosses 0.

    Each value is good to about 10^−DPS, so one within that of 0 is 0, and each is rounded to
    CROSSING_DIGITS significant digits before it is made a float: eigensolve noise then cannot
    round a crossing halfway between two floats (1 − η at η = 0.3) to either one, and the list
    is the same at every phase."""
    dps = _digits(min(p, 1.0 - p))
    rho0, rho1 = states(eta, p, dps, phase)
    with mpmath.workdps(dps):
        inverse_root = [1 / mpmath.sqrt(rho0[k][k]) if rho0[k][k] else 0 for k in range(4)]
        values = mpmath.eigh(_matrix(lambda i, j: inverse_root[i] * rho1[i][j] * inverse_root[j]),
                             eigvals_only=True)
        values = [0.0 if abs(t) <= mpmath.mpf(10) ** -DPS else t for t in values]
        return tuple(sorted({float(mpmath.nstr(t, CROSSING_DIGITS)) for t in values if t >= 0}
                            - {math.inf}))


def ulps(got: float, ref) -> float:
    """|got − ref| in ulps of ref; a zero reference must come out exactly 0."""
    if not ref:
        return 0.0 if got == 0.0 else math.inf
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpf(got) - ref) / math.ulp(float(ref)))


def check_metrics(eta: float, p: float, priors: tuple[float, float], d: float, f: float,
                  pe: float) -> None:
    """Assert that a D, F and P_e of (η, p) at these priors are the oracle's within their bounds:
    D, which the pipeline takes from one generic eigensolve, within EIGH_ATOL, and the
    closed-form F and P_e in ulps."""
    with mpmath.workdps(DPS):
        assert abs(d - trace_distance(eta, p)) <= EIGH_ATOL, ("D", eta, p, d)
    assert ulps(f, fidelity(eta, p)) <= MP_F_ULPS, ("F", eta, p, f)
    assert ulps(pe, helstrom_error(eta, p, priors)) <= MP_PE_ULPS, ("P_e", eta, p, priors, pe)


# Edges of the accuracy contract: η and p near 0 and 1, priors down to 1e-12 on either side,
# and thresholds at the eigenvalue crossings.
MP_ETAS = (0.0, 1e-12, 1e-6, 0.3, 0.6, 1.0 - 1e-6, 1.0 - 1e-12, 1.0)
MP_PS = (0.0, 1e-300, 1e-12, 1e-6, 0.2, 0.5, 1.0 - 1e-6)
MP_PRIORS = (0.0, 1e-12, 1e-8, 1e-3, 0.3, 0.5, 0.7, 1.0 - 1e-8, 1.0 - 1e-12, 1.0)
MP_THRESHOLDS = (0.0, 0.4, 1.0, 1.5, 8.0, 1e6)
# The worst case of P_e that a seeded search found, off the grid of MP_PRIORS: (η, p, π₀), with
# π₁ = 1 − π₀. closed_form.helstrom_error is 3.83 ulp from the oracle there.
MP_WORST = (0.9998804099324343, 0.054680721008665216, 0.5129702482638414)
# Crossings at huge thresholds, where the block's larger eigenvalue m + r cancels to nothing
# (found by a seeded random search); the first one's largest is t ≈ 5.1e8.
MP_FAR_CROSSINGS = ((0.9999996580576973, 1.958143668256522e-09),
                    (0.7127192548373937, 1.592423588492364e-10),
                    (0.3608345856139843, 7.821151399112491e-12))


def mp_cases(phase=PHASE):
    """The (η, p, w₀, w₁) of the 50-digit grid: the far crossings, then each (η, p) at
    MP_THRESHOLDS and its crossings, and at MP_PRIORS. The crossings are found at this
    phase factor."""
    cases = [(eta, p, t, 1.0) for eta, p in MP_FAR_CROSSINGS for t in crossings(eta, p, phase)]
    for eta in MP_ETAS:
        for p in MP_PS:
            ts = (*MP_THRESHOLDS, *crossings(eta, p, phase))
            cases += [(eta, p, t, 1.0) for t in ts] + [(eta, p, pr, 1.0 - pr) for pr in MP_PRIORS]
    return cases


def interior_cases():
    """The seeded pairs of metric_pairs, past its edge grid, each at its crossings, at five
    seeded thresholds in [0, 8] and at MP_PRIORS, whose solves P_e shares."""
    rng = random.Random(20261021)
    cases = []
    for eta, p in metric_pairs()[len(MP_ETAS) * len(MP_PS):]:
        ts = (*crossings(eta, p), *(rng.uniform(0, 8) for _ in range(5)))
        cases += [(eta, p, t, 1.0) for t in ts] + [(eta, p, pr, 1.0 - pr) for pr in MP_PRIORS]
    return cases


def metric_pairs():
    """The (η, p) edge grid of mp_cases, then seeded random pairs, uniform and log-uniform near
    0 and 1."""
    rng = random.Random(20261019)
    pairs = [(eta, p) for eta in MP_ETAS for p in MP_PS]
    for _ in range(100):
        eta = rng.choice([rng.uniform(0, 1), 10 ** rng.uniform(-12, 0),
                          1 - 10 ** rng.uniform(-12, 0)])
        p = rng.choice([rng.uniform(0, 1), 10 ** rng.uniform(-12, 0),
                        1 - 10 ** rng.uniform(-6, 0)])
        pairs.append((eta, p))
    return pairs
