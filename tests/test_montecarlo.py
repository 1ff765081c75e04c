"""Monte Carlo stream version 3: the binomial draw's distribution, cost and pinned counts,
draw_counts' input gate and the outcome records it makes.

The chi-square tests hold both branches of the sampler, inversion and BTRD, to the exact
Binomial(n, p) pmf over many seeds. The pinned counts fix the stream itself, so that a
change to any branch of BTRD (its quick acceptance, the recurrence near the mode, the
squeeze and the final Stirling test) moves at least one of them.
"""

import math
import random
from collections import Counter

import mpmath
import pytest
from conftest import BOUNDED
from hypothesis import given
from hypothesis import strategies as st

from qiradar import montecarlo
from qiradar.errors import MAX_SEED, MAX_TRIALS, DegenerateInput
from qiradar.montecarlo import HYPOTHESIS_H0, HYPOTHESIS_H1, draw_counts, split_trials

DRAWS = 2000  # seeds per chi-square test


def binomial_pmf(n, p, k):
    """Binomial(n, p) at k: exactly through math.comb up to n = 1000, by lgamma above."""
    if n <= 1000:
        return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * math.log(p) + (n - k) * math.log1p(-p))


def chi_square_pvalue(counts: Counter, n, p, draws):
    """Pearson's chi-square p-value of the observed counts against Binomial(n, p).

    Consecutive values are merged into bins of at least max(5, draws/40) expected draws;
    the first and last bins also take everything below and above the ±12σ window.
    """
    sd = math.sqrt(n * p * (1.0 - p))
    lo, hi = max(0, math.floor(n * p - 12 * sd - 12)), min(n, math.ceil(n * p + 12 * sd + 12))
    target = max(5.0, draws / 40)
    bins, observed, expected = [], 0, 0.0
    for k in range(lo, hi + 1):
        observed += counts[k]
        expected += draws * binomial_pmf(n, p, k)
        if expected >= target:
            bins.append([observed, expected])
            observed, expected = 0, 0.0
    bins[-1][0] += observed
    bins[-1][1] += expected
    bins[0][0] += sum(v for k, v in counts.items() if k < lo)
    bins[-1][0] += sum(v for k, v in counts.items() if k > hi)
    assert sum(o for o, _ in bins) == draws and len(bins) >= 2
    statistic = sum((o - e) ** 2 / e for o, e in bins)
    return float(mpmath.gammainc((len(bins) - 1) / 2, statistic / 2, regularized=True))


# n in {1, 10, 1000, 10**6} at p near 0, 1/2 and near 1. Near 0, p leaves about 3% of the
# draws above 0 at n <= 1000 (two bins of at least DRAWS/40), and at 10**6 it sits on
# both sides of the branch point n*p = INVERSION_MEAN. The last four have a mid-sized
# n*p, where BTRD reaches its recurrence near the mode most often.
GRID = [(1, 0.03), (1, 0.5), (1, 0.97),
        (10, 0.003), (10, 0.5), (10, 0.997),
        (1000, 3e-5), (1000, 0.5), (1000, 1 - 3e-5),
        (10**6, 9.99e-6), (10**6, 1e-5), (10**6, 0.5), (10**6, 1 - 1e-5),
        (40, 0.7), (40, 0.25), (1000, 0.01), (10**6, 0.3)]


@pytest.mark.parametrize("n, p", GRID)
def test_counts_follow_the_exact_binomial_pmf(n, p):
    counts = Counter(draw_counts((p, p), 1.0, n, seed)[0].decide_h1_count
                     for seed in range(DRAWS))
    assert chi_square_pvalue(counts, n, p, DRAWS) > 1e-4


@pytest.mark.parametrize("n, p", [(10**3, 0.5), (10**6, 0.3), (MAX_TRIALS, 0.5), (MAX_TRIALS, 0.01)])
def test_btrd_uses_a_bounded_number_of_uniforms(n, p):
    # The expected cost is O(1) in n: about 1.2 uniforms a draw, at n = 10**9 as at 10**3.
    calls = []
    for seed in range(500):
        stream = random.Random(2 * seed).random
        used = 0

        def uniform():
            nonlocal used
            used += 1
            return stream()

        montecarlo._binomial(uniform, n, p)
        calls.append(used)
    assert sum(calls) / len(calls) < 1.5 and max(calls) <= 12


def test_inversion_at_the_largest_n_has_mean_n_p():
    # n*p = 3: the pmf starts at exp(n*log1p(-p)) = e^-3 and the search stops near 3.
    draws = [montecarlo._binomial(random.Random(2 * seed).random, MAX_TRIALS, 3e-9)
             for seed in range(500)]
    assert abs(sum(draws) / len(draws) - 3.0) < 4 * math.sqrt(3.0 / len(draws))
    assert max(draws) < 20


@pytest.mark.parametrize("seed, trials, p, counts", [
    (5150, 2**20 + 1, 0.23038838648618154, (241925, 241252)),
    (2**64 - 1, MAX_TRIALS, 0.6863295573017486, (686350358, 686333405)),
    (0, 1000, 0.5, (513, 487)),
    (1, 10**6, 1e-5, (16, 11)),  # n*p = 10: BTRD's lower edge
    (7, MAX_TRIALS, 0.5, (499984098, 500020456)),
])
def test_btrd_counts_are_pinned(seed, trials, p, counts):
    # (tag 0, tag 1) counts: every trial under H0, then every trial under H1.
    assert (draw_counts((p, p), 1.0, trials, seed)[0].decide_h1_count,
            draw_counts((p, p), 0.0, trials, seed)[1].decide_h1_count) == counts


@pytest.mark.parametrize("n, p, total, squares", [
    (1000, 0.5, 199848, 99947698),                  # reaches the final Stirling test most
    (100, 0.2, 7919, 163163),                       # mostly the recurrence near the mode
    (10**6, 0.5, 199995356, 99995460327088),        # mostly the squeeze
])
def test_btrd_stream_is_pinned_over_many_seeds(n, p, total, squares):
    draws = [montecarlo._binomial(random.Random(2 * seed).random, n, p) for seed in range(400)]
    assert (sum(draws), sum(k * k for k in draws)) == (total, squares)


def test_stirling_tail_is_the_log_factorial_remainder():
    mpmath.mp.dps = 40
    for k in (*range(30), 100, 10**6, MAX_TRIALS):
        exact = (mpmath.loggamma(k + 1) - (k + mpmath.mpf(1) / 2) * mpmath.log(k + 1) + (k + 1)
                 - mpmath.log(2 * mpmath.pi) / 2)
        # The table is correctly rounded; the three-term series is Hörmann's, 4e-9 off at 10.
        tol = 0.0 if k < 10 else 5e-9 * float(exact)
        assert abs(montecarlo._stirling_tail(k) - float(exact)) <= tol, k


@pytest.mark.parametrize("n, p", [(40, 0.25), (1000, 0.5), (1000, 0.01), (10**6, 0.3),
                                  (MAX_TRIALS, 0.5), (MAX_TRIALS, 0.01)])
def test_final_test_is_the_log_pmf_ratio(n, p):
    # BTRD's last test compares ln v with ln f(k)/f(m) past the mode's ±15 neighbourhood.
    # Its logarithms of ratios near 1, scaled by n, keep about 1e-16·n absolute.
    mpmath.mp.dps = 50
    mp_p = mpmath.mpf(p)

    def log_pmf(k):
        return (mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
                + k * mpmath.log(mp_p) + (n - k) * mpmath.log1p(-mp_p))

    m, sd = math.floor((n + 1) * p), math.sqrt(n * p * (1 - p))
    for k in {m + s * max(16, round(z * sd)) for s in (-1, 1) for z in (1, 2, 4, 6)}:
        if 0 <= k <= n:
            exact = float(log_pmf(k) - log_pmf(m))
            got = montecarlo._log_pmf_ratio(n, k, m, p / (1 - p))
            assert abs(got - exact) <= 1e-9 + 2e-16 * n, k


@pytest.mark.parametrize("born, prior_h0", [
    ((0.5, 0.5), math.nan),
    ((0.5, 0.5), math.inf),
    ((0.5, 0.5), 2.0),
    ((0.5, 0.5), -0.5),
    ((0.5, 0.5), "0.5"),
    ((0.5, 0.5), None),
    ((0.5,), 0.5),
    ((0.1, 0.2, 0.3), 0.5),
    (0.5, 0.5),
    (None, 0.5),
    (("0.5", 0.5), 0.5),
    ((0.5, math.nan), 0.5),
], ids=["prior-nan", "prior-inf", "prior-2", "prior-negative", "prior-str", "prior-none",
        "born-1", "born-3", "born-scalar", "born-none", "born-str", "born-nan"])
def test_draw_counts_gates_its_inputs(born, prior_h0):
    with pytest.raises(DegenerateInput):
        draw_counts(born, prior_h0, 10, 1)


# A TrialOutcome does not check its fields: draw_counts is its only maker, so the record's
# contract is held here, over Born probabilities at 0, the smallest subnormal, 1/2, the
# largest double below 1 and 1, and trial counts at both ends of their range.
born_values = st.one_of(st.sampled_from([0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0]),
                        st.floats(0.0, 1.0))
trial_counts = st.one_of(
    st.sampled_from([1, MAX_TRIALS]),
    st.floats(0.0, math.log(MAX_TRIALS)).map(lambda x: min(MAX_TRIALS, round(math.exp(x)))))


@BOUNDED
@given(st.tuples(born_values, born_values), st.floats(0.0, 1.0), trial_counts,
       st.integers(0, MAX_SEED))
def test_draw_counts_makes_outcomes_that_keep_their_contract(born, prior_h0, trials, seed):
    outcomes = draw_counts(born, prior_h0, trials, seed)
    assert tuple(outcome.trials for outcome in outcomes) == split_trials(prior_h0, trials)
    for outcome, tag, p in zip(outcomes, (HYPOTHESIS_H0, HYPOTHESIS_H1), born):
        n, h1, h0 = outcome.trials, outcome.decide_h1_count, outcome.decide_h0_count
        assert all(type(count) is int for count in (n, h1, h0, outcome.seed))
        assert 0 <= h1 <= n and 0 <= h0 <= n and h1 + h0 == n
        assert (outcome.true_hypothesis, outcome.seed) == (tag, seed)
        if p in (0.0, 1.0):  # a certain outcome is drawn with certainty
            assert h1 == p * n
