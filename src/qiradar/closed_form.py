"""Born probabilities of the model's threshold tests in closed form, without numpy.

w₁ρ₁ − w₀ρ₀ (see channel) is s·a on |01⟩, s·b on |10⟩ and the 2×2 block
[[c + s·a, c·e^{−iφ}], [c·e^{iφ}, c + s·b]] on {|00⟩, |11⟩}, where a = (1 − p)/2,
b = p/2, s = w₁(1 − η) − w₀ and c = w₁η/2. The block's eigenvalues are m ± r,
m = c + s/4 and r = √(d² + c²) with d = s(a − b)/2, and its projector onto m + r
is (M − (m − r)I)/2r. φ drops out of every trace. Along a non-descending w₀, s, m and
q = c/2 + s·a·b = det/s never rise as computed, so once all three are < 0 every later
point is (0, 0) to the last bit: born_pairs stops there and fills in the zeros.
"""

import math

TIE_ATOL = 1e-10  # eigenvalues in [-TIE_ATOL, TIE_ATOL] are assigned to H0


def born_pairs(eta: float, p: float, w0s, w1: float = 1.0) -> tuple[list[float], list[float]]:
    """The columns ([Tr Pρ₀ …], [Tr Pρ₁ …]) over the sequence w0s, P the projector onto
    the eigenvalues > TIE_ATOL of w₁ρ₁ − w₀ρ₀; the (η, p, w₁) constants are formed once.

    w₀ is a ROC threshold t at w₁ = 1, or π₀ at w₁ = π₁ for the Helstrom test. w0s must
    be non-descending. Inputs are taken as given; TargetParams, check_priors and
    _check_thresholds gate them, and Scenario checks the thresholds' order."""
    a, b = (1.0 - p) / 2.0, p / 2.0
    a_minus_b, fa, fb = a - b, (1.0 - eta) * a, (1.0 - eta) * b  # fa, fb: ρ₁ on |01⟩, |10⟩
    y11, y22 = eta / 2.0 + fa, eta / 2.0 + fb  # ρ₁'s block diagonal
    c, minus_w1_eta = w1 * eta / 2.0, -w1 * eta
    half_c = c / 2.0
    p_h0s, p_h1s = [], []
    for w0 in w0s:
        s = math.fsum((w1, -w0, minus_w1_eta))  # correctly rounded at w₁ = 1
        m, q = c + s / 4.0, half_c + s * a * b
        # The zero tail: s = fsum(…) is correctly rounded, so it does not rise with w₀, and
        # fl(s/4), c + ·, fl(s·a), ·b and c/2 + · are monotone (a, b ≥ 0). Then big = m − r
        # < 0, small = s·q/big ≤ 0 and s·a, s·b ≤ 0 ≤ TIE_ATOL. At p = 0, q = c/2 ≥ 0.
        if s < 0.0 and m < 0.0 and q < 0.0:
            break
        d = s * a_minus_b / 2.0
        r = math.hypot(d, c)
        big = m + math.copysign(r, m)  # the eigenvalue farther from 0; the other is det/big
        small = s * q / big if big else 0.0
        upper, lower = (big, small) if big > 0.0 else (small, big)
        if upper <= TIE_ATOL:
            p_h0 = p_h1 = 0.0
        elif lower > TIE_ATOL:
            p_h0, p_h1 = 0.5, y11 + y22
        else:  # P₁₁ + P₂₂ = 1 and P₁₁P₂₂ = |P₁₂|² = k², each diagonal formed without cancellation
            k = c / (2.0 * r)
            if d >= 0.0:
                p11, p22 = (r + d) / (2.0 * r), k * c / (r + d)
            else:
                p11, p22 = k * c / (r - d), (r - d) / (2.0 * r)
            p_h0, p_h1 = a * p11 + b * p22, y11 * p11 + y22 * p22 + k * eta
        if s * a > TIE_ATOL:
            p_h0, p_h1 = p_h0 + a, p_h1 + fa
        if s * b > TIE_ATOL:
            p_h0, p_h1 = p_h0 + b, p_h1 + fb
        p_h0s.append(p_h0)
        p_h1s.append(p_h1)
    tail = [0.0] * (len(w0s) - len(p_h0s))
    return p_h0s + tail, p_h1s + tail


def born_pair(eta: float, p: float, w0: float, w1: float) -> tuple[float, float]:
    """born_pairs of the one weight pair (w₀, w₁)."""
    return next(zip(*born_pairs(eta, p, (w0,), w1)))
