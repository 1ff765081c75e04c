"""Binary hypothesis test: optimal measurement, Monte Carlo trials, ROC sweeps.

The optimal (Helstrom) test decides H1 exactly on the strictly positive
eigenspace of π₁ρ₁ − π₀ρ₀. Eigenvalues within 1e-10 of zero side with H0,
the conservative "no target" call; the tie assignment does not change the
error probability.

Reproducible Monte Carlo
------------------------
Trials are consumed in fixed blocks of 8192 draws. Block ``b`` of the stream
for hypothesis tag ``t`` (0 for H0, 1 for H1) under seed ``s`` comes from
``Generator(PCG64(SeedSequence((s, t, b))))``. Merged counts therefore depend
only on (seed, trials), never on how many partitions the blocks are dealt out
to, so parallel workers can split the block range and still reproduce a
single-worker run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, NumericalDomain
from .metrics import _require_same_dims, check_priors, clamp_unit
from .qstate import DensityOperator, eigendecompose_hermitian

TIE_ATOL = 1e-10       # eigenvalues in [-TIE_ATOL, TIE_ATOL] are assigned to H0
BLOCK_SIZE = 8192      # draws consumed per RNG block
MAX_SEED = 2**64 - 1

PROJECTOR_ATOL = 1e-8  # idempotency and orthogonality tolerance
COMPLETE_ATOL = 1e-9   # hermiticity and completeness tolerance
ROC_STACK_ENTRIES = 1 << 16  # matrix entries per stacked ROC eigensolve: ~1 MB per scratch array

HYPOTHESIS_H0 = "H0"
HYPOTHESIS_H1 = "H1"
_STREAM_TAG = {HYPOTHESIS_H0: 0, HYPOTHESIS_H1: 1}


@dataclass(frozen=True)
class BinaryMeasurement:
    """Complementary orthogonal projector pair realizing a two-outcome test.

    project_h1 decides "target present", project_h0 decides "no target".
    Idempotency, hermiticity, completeness (sum = identity) and mutual
    orthogonality are verified on construction.
    """

    project_h1: np.ndarray
    project_h0: np.ndarray

    def __post_init__(self):
        p1 = np.array(self.project_h1, dtype=complex)
        p0 = np.array(self.project_h0, dtype=complex)
        if p1.ndim != 2 or p1.shape[0] != p1.shape[1] or p1.shape != p0.shape:
            raise DimensionMismatch(
                f"projectors must be square and congruent, got {p1.shape} and {p0.shape}"
            )
        for name, proj in (("project_h1", p1), ("project_h0", p0)):
            if float(np.abs(proj - proj.conj().T).max()) > COMPLETE_ATOL:
                raise NumericalDomain(f"{name} is not Hermitian within 1e-9")
            if float(np.abs(proj @ proj - proj).max()) > PROJECTOR_ATOL:
                raise NumericalDomain(f"{name} is not idempotent within 1e-8")
        identity = np.eye(p1.shape[0])
        if float(np.abs(p0 + p1 - identity).max()) > COMPLETE_ATOL:
            raise NumericalDomain("projectors do not sum to the identity within 1e-9")
        if float(np.abs(p1 @ p0).max()) > PROJECTOR_ATOL:
            raise NumericalDomain("projectors are not orthogonal within 1e-8")
        p1.setflags(write=False)
        p0.setflags(write=False)
        object.__setattr__(self, "project_h1", p1)
        object.__setattr__(self, "project_h0", p0)

    @property
    def dimension(self) -> int:
        return self.project_h1.shape[0]


@dataclass(frozen=True)
class TrialOutcome:
    """Decision counts from a batch of measurement trials under one true state."""

    decide_h1_count: int
    decide_h0_count: int
    trials: int
    true_hypothesis: str
    seed: int

    def __post_init__(self):
        if self.decide_h1_count + self.decide_h0_count != self.trials:
            raise DegenerateInput(
                f"counts {self.decide_h1_count} + {self.decide_h0_count} "
                f"do not sum to {self.trials} trials"
            )
        if self.true_hypothesis not in _STREAM_TAG:
            raise DegenerateInput(f"true_hypothesis must be H0 or H1, got {self.true_hypothesis!r}")


@dataclass(frozen=True)
class RocPoint:
    """One operating point of the threshold sweep."""

    threshold: float
    p_false_alarm: float
    p_detection: float


def _positive_eigenspace_projector(matrix: np.ndarray) -> np.ndarray:
    """Projector onto the strictly positive (λ > 1e-10) eigenspace, per stack member."""
    spectrum = eigendecompose_hermitian(matrix)
    columns = spectrum.eigenvectors * (spectrum.eigenvalues > TIE_ATOL)[..., None, :]
    projector = columns @ columns.conj().swapaxes(-1, -2)
    return (projector + projector.conj().swapaxes(-1, -2)) / 2.0


def helstrom_measurement(rho0: DensityOperator, rho1: DensityOperator,
                         priors=(0.5, 0.5)) -> BinaryMeasurement:
    """Optimal binary measurement for H0 = rho0 versus H1 = rho1.

    project_h1 spans the strictly positive eigenspace of π₁ρ₁ − π₀ρ₀; its
    analytic error probability equals helstrom_error within 1e-8.
    """
    _require_same_dims(rho0, rho1)
    p0, p1 = check_priors(priors)
    project_h1 = _positive_eigenspace_projector(p1 * rho1.matrix - p0 * rho0.matrix)
    project_h0 = np.eye(rho0.dimension, dtype=complex) - project_h1
    return BinaryMeasurement(project_h1=project_h1, project_h0=project_h0)


def born_probability(m: BinaryMeasurement, rho: DensityOperator) -> float:
    """Probability Tr(project_h1 · ρ) of deciding H1 on state ρ."""
    if m.project_h1.shape != rho.matrix.shape:
        raise DimensionMismatch(
            f"measurement dimension {m.dimension} does not match state dimension {rho.dimension}"
        )
    return clamp_unit(float(np.trace(m.project_h1 @ rho.matrix).real), "Born probability")


def measurement_error(m: BinaryMeasurement, rho0: DensityOperator, rho1: DensityOperator,
                      priors=(0.5, 0.5)) -> float:
    """Analytic error probability π₀·Tr(P₁ρ₀) + π₁·Tr(P₀ρ₁) of a measurement."""
    _require_same_dims(rho0, rho1)
    p0, p1 = check_priors(priors)
    false_alarm = born_probability(m, rho0)
    detection = born_probability(m, rho1)
    return p0 * false_alarm + p1 * (1.0 - detection)


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not (0 <= seed <= MAX_SEED):
        raise DegenerateInput(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return seed


def _count_decide_h1(p: float, trials: int, seed: int, tag: int, partitions: int) -> int:
    """Count draws below p over the block-structured stream (seed, tag).

    The partition loop only changes which chunk of blocks each pass handles;
    the merged count is identical for every partition count. Partitions
    beyond the block count would get no block, so there are at most as many
    partitions as blocks.
    """
    n_blocks = -(-trials // BLOCK_SIZE)
    partitions = min(partitions, n_blocks)
    total = 0
    for part in range(partitions):
        first = part * n_blocks // partitions
        last = (part + 1) * n_blocks // partitions
        for block in range(first, last):
            n = min(BLOCK_SIZE, trials - block * BLOCK_SIZE)
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, tag, block))))
            total += int(np.count_nonzero(rng.random(n) < p))
    return total


def simulate_trials(m: BinaryMeasurement, rho_true: DensityOperator, trials: int, seed: int,
                    true_hypothesis: str = HYPOTHESIS_H1, partitions: int = 1) -> TrialOutcome:
    """Draw ``trials`` independent measurement outcomes on ``rho_true``.

    Deterministic for a fixed seed; ``partitions`` splits the work into
    independent block ranges (at most one per block) without changing the
    merged counts.
    """
    trials = int(trials)
    if trials < 1:
        raise DegenerateInput(f"trials must be >= 1, got {trials}")
    if true_hypothesis not in _STREAM_TAG:
        raise DegenerateInput(f"true_hypothesis must be H0 or H1, got {true_hypothesis!r}")
    if int(partitions) < 1:
        raise DegenerateInput(f"partitions must be >= 1, got {partitions!r}")
    seed = _check_seed(seed)
    p = born_probability(m, rho_true)
    decide_h1 = _count_decide_h1(p, trials, seed, _STREAM_TAG[true_hypothesis], int(partitions))
    return TrialOutcome(
        decide_h1_count=decide_h1,
        decide_h0_count=trials - decide_h1,
        trials=trials,
        true_hypothesis=true_hypothesis,
        seed=seed,
    )


def detection_counts(rho0: DensityOperator, rho1: DensityOperator, priors, trials: int,
                     seed: int, partitions: int = 1) -> tuple[TrialOutcome, TrialOutcome]:
    """Run the Helstrom test under both true states.

    Trials are allocated deterministically: floor(π₀·trials) under H0, the
    remainder under H1. Returns the (H0, H1) outcome pair.
    """
    _require_same_dims(rho0, rho1)
    p0, _ = check_priors(priors)
    trials = int(trials)
    if trials < 1:
        raise DegenerateInput(f"trials must be >= 1, got {trials}")
    seed = _check_seed(seed)
    n_h0 = math.floor(p0 * trials)
    n_h1 = trials - n_h0
    m = helstrom_measurement(rho0, rho1, priors)
    if n_h0 > 0:
        outcome_h0 = simulate_trials(m, rho0, n_h0, seed, HYPOTHESIS_H0, partitions)
    else:
        outcome_h0 = TrialOutcome(0, 0, 0, HYPOTHESIS_H0, seed)
    if n_h1 > 0:
        outcome_h1 = simulate_trials(m, rho1, n_h1, seed, HYPOTHESIS_H1, partitions)
    else:
        outcome_h1 = TrialOutcome(0, 0, 0, HYPOTHESIS_H1, seed)
    return outcome_h0, outcome_h1


def empirical_error(rho0: DensityOperator, rho1: DensityOperator, priors, trials: int,
                    seed: int, partitions: int = 1) -> float:
    """Empirical error rate of the Helstrom test over ``trials`` trials.

    False alarms under H0 plus misses under H1, divided by the total trial
    count; converges to helstrom_error as trials grows.
    """
    return outcome_error(*detection_counts(rho0, rho1, priors, trials, seed, partitions))


def outcome_error(outcome_h0: TrialOutcome, outcome_h1: TrialOutcome) -> float:
    """Fraction of wrong calls in an (H0, H1) outcome pair: false alarms under
    H0 plus misses under H1, over all trials."""
    wrong = outcome_h0.decide_h1_count + outcome_h1.decide_h0_count
    return wrong / (outcome_h0.trials + outcome_h1.trials)


def _float_or_nan(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def roc_sweep(rho0: DensityOperator, rho1: DensityOperator, thresholds) -> list[RocPoint]:
    """Quantum Neyman-Pearson sweep.

    For each threshold t the test decides H1 on the strictly positive
    eigenspace of ρ₁ − t·ρ₀; the point records (t, Tr(P·ρ₀), Tr(P·ρ₁)).
    The t = 1 point coincides with the equal-prior Helstrom test. One
    stacked eigensolve serves up to ROC_STACK_ENTRIES / d² thresholds.
    """
    _require_same_dims(rho0, rho1)
    try:
        if isinstance(thresholds, (str, bytes, bytearray)):  # would iterate per character
            raise TypeError
        raw = list(thresholds)
    except TypeError:
        raise DegenerateInput(f"thresholds must be a list of numbers, got {thresholds!r}") from None
    values = [_float_or_nan(v) for v in raw]  # NaN: float() rejects it
    t = np.array(values, dtype=float)
    bad = np.flatnonzero(~((t >= 0.0) & (t < math.inf)))  # NaN fails both
    if bad.size:
        raise DegenerateInput(f"thresholds must be finite and >= 0, got {raw[bad[0]]!r}")
    step = max(1, ROC_STACK_ENTRIES // rho0.matrix.size)
    points = []
    for lo in range(0, t.size, step):
        stack = rho1.matrix - t[lo:lo + step, None, None] * rho0.matrix
        projectors = _positive_eigenspace_projector(stack)
        p_fa = np.trace(projectors @ rho0.matrix, axis1=-2, axis2=-1).real
        p_d = np.trace(projectors @ rho1.matrix, axis1=-2, axis2=-1).real
        points += [RocPoint(ti, clamp_unit(float(fa), "false-alarm probability"),
                            clamp_unit(float(d), "detection probability"))
                   for ti, fa, d in zip(values[lo:lo + step], p_fa, p_d)]
    return points
