"""Reproducible Monte Carlo on the standard library: one seeded binomial draw per hypothesis.

The trials under one hypothesis are independent Bernoulli(p) outcomes, p the Born
probability of the test's H1 projector, so their decide-H1 count is one Binomial(n, p)
draw, and a run costs about the same at any trial count. Stream version 3 draws the count
of hypothesis tag t (0 for H0, 1 for H1) under seed s from the uniforms
``random.Random(2*s + t).random()``, the one method whose sequence Python keeps across
versions for an int seed. For p > 1/2 the count is n minus the draw at 1 - p, so the draw
itself has p <= 1/2. When n*p < INVERSION_MEAN it is inversion: with r = p/(1 - p),
a = (n + 1)*r, f = exp(n*log1p(-p)) and u the first uniform, x counts up from 0 while
u > f, taking u -= f, then x += 1, then f *= a/x - r; a u that outlasts the pmf by
roundoff (f reaches 0, or x reaches n) is replaced by the next uniform. Otherwise it is
Hörmann's BTRD, a transformed rejection with a squeeze whose expected number of uniforms
is bounded in n (W. Hörmann, J. Stat. Comput. Simul. 46, 101-110, 1993).
The pipeline draws at closed_form.born_pair's Born probabilities, the tests also at the
generic detector.born_pair's. The outcome records and their error rate live here too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import (MAX_TRIALS, DegenerateInput, _check_integer, _check_seed, _real, _unit_interval,
                     clamp_unit)

HYPOTHESIS_H0 = "H0"
HYPOTHESIS_H1 = "H1"


@dataclass(frozen=True)
class TrialOutcome:
    """Decision counts from a batch of measurement trials under one true state, as
    draw_counts makes them: plain ints that sum to trials, the tag H0 or H1 and the seed."""

    decide_h1_count: int
    decide_h0_count: int
    trials: int
    true_hypothesis: str
    seed: int


def split_trials(prior_h0: float, trials: int) -> tuple[int, int]:
    """The (H0, H1) trial counts of a run: floor(π₀·trials) under H0, the rest under H1."""
    n_h0 = math.floor(prior_h0 * trials)
    return n_h0, trials - n_h0


def outcome_error(outcome_h0: TrialOutcome, outcome_h1: TrialOutcome) -> float:
    """Fraction of wrong calls in an (H0, H1) outcome pair: false alarms under
    H0 plus misses under H1, over all trials, of which there must be some."""
    trials = outcome_h0.trials + outcome_h1.trials
    if not trials:
        raise DegenerateInput("an outcome pair with no trials has no error rate")
    return (outcome_h0.decide_h1_count + outcome_h1.decide_h0_count) / trials


_STREAM_TAG = {HYPOTHESIS_H0: 0, HYPOTHESIS_H1: 1}
INVERSION_MEAN = 10  # n*min(p, 1 - p) below this draws by inversion, else by BTRD

# ln k! - (k + 1/2) ln(k + 1) + (k + 1) - ln(2 pi)/2 for k < 10, correctly rounded
_STIRLING_TAIL = (0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
                  0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
                  0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
                  0.00833056343336287)


def draw_counts(born, prior_h0, trials: int, seed: int) -> tuple[TrialOutcome, TrialOutcome]:
    """The (H0, H1) outcome pair of a test that decides H1 with probability born[k]
    under hypothesis k: split_trials' counts (a side with none counts zero), each
    count one binomial draw from the stream (seed, tag)."""
    trials = _check_integer("trials", trials, 1, MAX_TRIALS)
    seed = _check_seed(seed)
    prior_h0 = _unit_interval("prior_h0", prior_h0)
    try:
        born = [clamp_unit(_real("Born probability", p), "Born probability") for p in born]
    except TypeError:  # not iterable
        raise DegenerateInput(f"born must be a pair of probabilities, got {born!r}") from None
    if len(born) != 2:
        raise DegenerateInput(f"born must be a pair of probabilities, got {len(born)} values")
    outcomes = []
    for hypothesis, n, p in zip((HYPOTHESIS_H0, HYPOTHESIS_H1), split_trials(prior_h0, trials), born):
        uniform = random.Random(2 * seed + _STREAM_TAG[hypothesis]).random
        decide_h1 = _binomial(uniform, n, p)
        outcomes.append(TrialOutcome(decide_h1, n - decide_h1, n, hypothesis, seed))
    return tuple(outcomes)


def _binomial(uniform, n: int, p: float) -> int:
    """One Binomial(n, p) variate, p in [0, 1], from the uniforms that uniform() returns."""
    if p > 0.5:
        return n - _binomial(uniform, n, 1.0 - p)
    return _inversion(uniform, n, p) if n * p < INVERSION_MEAN else _btrd(uniform, n, p)


def _inversion(uniform, n: int, p: float) -> int:
    """Sequential search up the pmf from 0, about n*p + 1 steps; qⁿ as exp(n·log1p(-p)) keeps
    a tiny p at a large n exact to roundoff."""
    r = p / (1.0 - p)
    a = (n + 1) * r
    first = math.exp(n * math.log1p(-p))
    while True:
        u, x, f = uniform(), 0, first
        while u > f > 0.0 and x < n:
            u -= f
            x += 1
            f *= a / x - r
        if u <= f:
            return x


def _stirling_tail(k: int) -> float:
    if k < 10:
        return _STIRLING_TAIL[k]
    r = 1.0 / (k + 1)
    return (1.0 / 12.0 - (1.0 / 360.0 - r * r / 1260.0) * r * r) * r


def _btrd(uniform, n: int, p: float) -> int:
    """Hörmann's BTRD for n*p >= 10, step for step: a cheap acceptance in the hat's
    centre, else a rejection test of f(k)/f(m), m the mode, by the pmf's recurrence near
    the mode and by a squeeze, then the Stirling form of ln f(k)/f(m), past it."""
    q = 1.0 - p
    m = math.floor((n + 1) * p)
    r = p / q
    nr = (n + 1) * r
    npq = n * p * q
    sqrt_npq = math.sqrt(npq)
    b = 1.15 + 2.53 * sqrt_npq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    alpha = (2.83 + 5.1 / b) * sqrt_npq
    v_r = 0.92 - 4.2 / b
    while True:
        v = uniform()
        if v <= 0.86 * v_r:
            u = v / v_r - 0.43
            return math.floor((2.0 * a / (0.5 - abs(u)) + b) * u + c)
        if v >= v_r:
            u = uniform() - 0.5
        else:
            u = v / v_r - 0.93
            u = (0.5 if u >= 0.0 else -0.5) - u
            v = uniform() * v_r
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + c)
        if not 0 <= k <= n:
            continue
        v = v * alpha / (a / (us * us) + b)
        km = abs(k - m)
        if km <= 15:  # f(k)/f(m) by the recurrence f(i)/f(i - 1) = nr/i - r
            f = 1.0
            for i in range(m + 1, k + 1):
                f *= nr / i - r
            for i in range(k + 1, m + 1):
                v *= nr / i - r
            if v <= f:
                return k
            continue
        v = math.log(v)
        rho = (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5)
        t = -km * km / (2.0 * npq)
        if v < t - rho:
            return k
        if v > t + rho:
            continue
        if v <= _log_pmf_ratio(n, k, m, r):
            return k


def _log_pmf_ratio(n: int, k: int, m: int, r: float) -> float:
    """ln f(k)/f(m) of Binomial(n, p), r = p/(1 - p), in BTRD's Stirling form."""
    nm, nk = n - m + 1, n - k + 1
    h = (m + 0.5) * math.log((m + 1) / (r * nm)) + _stirling_tail(m) + _stirling_tail(n - m)
    return (h + (n + 1) * math.log(nm / nk) + (k + 0.5) * math.log(nk * r / (k + 1))
            - _stirling_tail(k) - _stirling_tail(n - k))
