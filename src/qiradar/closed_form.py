"""Born probabilities of the model's threshold tests in closed form, without numpy.

w₁ρ₁ − w₀ρ₀ (see channel) is s·a on |01⟩, s·b on |10⟩ and the 2×2 block
[[c + s·a, c·e^{−iφ}], [c·e^{iφ}, c + s·b]] on {|00⟩, |11⟩}, where a = (1 − p)/2,
b = p/2, s = w₁(1 − η) − w₀ and c = w₁η/2. The block's eigenvalues are m ± r,
m = c + s/4 and r = √(d² + c²) with d = s(a − b)/2, and its projector onto m + r
is (M − (m − r)I)/2r. φ drops out of every trace.
"""

import math

TIE_ATOL = 1e-10  # eigenvalues in [-TIE_ATOL, TIE_ATOL] are assigned to H0


def born_pairs(eta: float, p: float, weights):
    """Yield (Tr Pρ₀, Tr Pρ₁) for each (w₀, w₁) in weights, P the projector onto the
    eigenvalues > TIE_ATOL of w₁ρ₁ − w₀ρ₀; the (η, p) constants are formed once.

    (w₀, w₁) is (t, 1) for a ROC threshold t and (π₀, π₁) for the Helstrom test. Inputs
    are taken as given; TargetParams, check_priors and _check_thresholds gate them."""
    a, b = (1.0 - p) / 2.0, p / 2.0
    a_minus_b, fa, fb = a - b, (1.0 - eta) * a, (1.0 - eta) * b  # fa, fb: ρ₁ on |01⟩, |10⟩
    y11, y22 = eta / 2.0 + fa, eta / 2.0 + fb  # ρ₁'s block diagonal
    for w0, w1 in weights:
        s = math.fsum((w1, -w0, -w1 * eta))  # correctly rounded at w₁ = 1
        c, d = w1 * eta / 2.0, s * a_minus_b / 2.0
        m, r = c + s / 4.0, math.hypot(d, c)
        big = m + math.copysign(r, m)  # the eigenvalue farther from 0; the other is det/big
        small = s * (c / 2.0 + s * a * b) / big if big else 0.0
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
        yield p_h0, p_h1


def born_pair(eta: float, p: float, w0: float, w1: float) -> tuple[float, float]:
    """born_pairs of the one weight pair (w₀, w₁)."""
    return next(born_pairs(eta, p, ((w0, w1),)))
