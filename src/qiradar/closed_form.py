"""The model's Born probabilities, fidelity and Helstrom error in closed form, without numpy.

ρ₀ = diag(a, a, b, b) with a = (1 − p)/2 and b = p/2 (see channel). ρ₁ is fa = (1 − η)a on
|01⟩, fb = (1 − η)b on |10⟩ and the block [[y₁₁, ηe^{−iφ}/2], [ηe^{iφ}/2, y₂₂]] on
{|00⟩, |11⟩}, with y₁₁ = η/2 + fa, y₂₂ = η/2 + fb and determinant (1 − η)(η/4 + (1 − η)ab).
So w₁ρ₁ − w₀ρ₀ is s·a on |01⟩, s·b on |10⟩ and the block [[c + s·a, c·e^{−iφ}],
[c·e^{iφ}, c + s·b]], where s = w₁(1 − η) − w₀ and c = w₁η/2. The block's eigenvalues are
m ± r, m = c + s/4 and r = √(d² + c²) with d = s(a − b)/2, its determinant is s·q with
q = c/2 + s·a·b, and its projector onto m + r is (M − (m − r)I)/2r. φ drops out of every
trace. Along a non-descending w₀, s, m and q never rise as computed, so once all three are < 0
every later point is (0, 0) to the last bit: born_pairs stops there, returning what it computed.
"""

import math

TIE_ATOL = 1e-10  # eigenvalues in [-TIE_ATOL, TIE_ATOL] are assigned to H0


def _model(eta: float, p: float) -> tuple[float, ...]:
    """(a, b, fa, fb, y₁₁, y₂₂) and, on the block, Tr ρ₀ρ₁ = η/4 + (1 − η)(a² + b²) and
    det ρ₁, each a sum of nonnegative terms."""
    a, b = (1.0 - p) / 2.0, p / 2.0
    fa, fb = (1.0 - eta) * a, (1.0 - eta) * b
    return (a, b, fa, fb, eta / 2.0 + fa, eta / 2.0 + fb, eta / 4.0 + fa * a + fb * b,
            (1.0 - eta) * (eta / 4.0 + fa * b))


def born_pairs(eta: float, p: float, w0s, w1: float = 1.0) -> tuple[list[float], list[float]]:
    """The columns ([Tr Pρ₀ …], [Tr Pρ₁ …]) over w0s up to the zero tail, each later point
    (0.0, 0.0), P the projector onto the eigenvalues > TIE_ATOL of w₁ρ₁ − w₀ρ₀; the (η, p, w₁)
    constants are formed once.

    w₀ is a ROC threshold t at w₁ = 1, or π₀ at w₁ = π₁ for the Helstrom test. w0s must
    be non-descending. Inputs are taken as given; TargetParams, check_priors and
    _check_thresholds gate them, and Scenario checks the thresholds' order."""
    a, b, fa, fb, y11, y22, _, _ = _model(eta, p)
    a_minus_b = a - b
    c, w1_eta = w1 * eta / 2.0, w1 * eta
    half_c = c / 2.0
    p_h0s, p_h1s = [], []
    for w0 in w0s:
        s = w1 - w0 - w1_eta
        m, q = c + s / 4.0, half_c + s * a * b
        # The zero tail: each rounding in s = (w₁ − w₀) − w₁η is monotone, so s does not rise
        # with w₀, and fl(s/4), c + ·, fl(s·a), ·b and c/2 + · are monotone (a, b ≥ 0). Then
        # big = m − r < 0, small = s·q/big ≤ 0 and s·a, s·b ≤ 0 ≤ TIE_ATOL. At p = 0, q = c/2 ≥ 0.
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
    return p_h0s, p_h1s


def born_pair(eta: float, p: float, w0: float, w1: float) -> tuple[float, float]:
    """born_pairs of the one weight pair (w₀, w₁); an empty prefix is (0.0, 0.0)."""
    return next(zip(*born_pairs(eta, p, (w0,), w1)), (0.0, 0.0))


def fidelity(eta: float, p: float) -> float:
    """(Tr √(√ρ₀ ρ₁ √ρ₀))² = (√(Tr(AB) + 2√(det A · det B)) + ½√(1 − η))²: root fidelities
    of a direct sum add, Hübner's formula gives the blocks' (A of ρ₀, B of ρ₁), and the
    scalars give √(a·fa) + √(b·fb) = ½√(1 − η)."""
    a, b, _, _, _, _, tr01, det1 = _model(eta, p)
    block = tr01 + 2.0 * math.sqrt(a * b) * math.sqrt(det1)
    # The square expanded, which holds F within 1.7 ulp of 50 digits where the square took 2.9.
    return block + math.sqrt(block * (1.0 - eta)) + (1.0 - eta) / 4.0


def helstrom_error(eta: float, p: float, priors: tuple[float, float]) -> float:
    """½(1 − ‖π₁ρ₁ − π₀ρ₀‖₁) at checked priors (π₀, π₁): ½(π₀ + π₁ − ‖·‖₁) as a sum of
    nonnegative terms, plus ½(1 − π₀ − π₁) (0 unless the priors miss 1 by a rounding)."""
    p0, p1 = priors
    a, b, fa, fb, _, _, tr01, det1 = _model(eta, p)
    s = p1 * (1.0 - eta) - p0  # exact 1 − η where π₀ ≪ 1 makes s cancel
    tr_a, tr_b = p0 / 2.0, p1 * (1.0 + eta) / 2.0  # a + b = ½ and y₁₁ + y₂₂ = (1 + η)/2
    if s * (p1 * eta / 4.0 + s * a * b) < 0.0:  # det(B − A) < 0: ½(Tr A + Tr B) − r, rationalized
        r = math.hypot(s * (a - b) / 2.0, p1 * eta / 2.0)
        block = 2.0 * (p0 * p1 * tr01 + p0 * p0 * a * b + p1 * p1 * det1) / (tr_a + tr_b + 2.0 * r)
    else:  # B − A is semidefinite: ½(Tr A + Tr B − |Tr(B − A)|)
        block = min(tr_a, tr_b)
    return min(p0 * a, p1 * fa) + min(p0 * b, p1 * fb) + block + math.fsum((1.0, -p0, -p1)) / 2.0
