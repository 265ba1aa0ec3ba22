"""Closed-form calculators for recovery thresholds and polynomial hardness.

Covers four groups:
  * information thresholds on the labeled / unlabeled sample counts below
    which exact support recovery must fail with the requested probability,
    and their fusion for mixed samples;
  * exact combinatorial moments (support-overlap hypergeometric, Rademacher
    sums) used by the degree-D likelihood-ratio norm;
  * the truncated likelihood-ratio norm itself: exact, and a closed-form
    upper bound;
  * the (alpha, beta, gamma) phase-region classifier.

The moments are exact: integer recurrences of O(D^2) steps whatever the
sizes, rounded once to a float (inf beyond the float range); the exact norm
is guarded on the degree D only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import BoundInapplicableError, ContractError, ExactInfeasibleError
from .gmodel import ProblemParams

EXACT_MAX_D = 100  # where one lowdeg_norm_exact call takes up to about 0.1 s (2-core x86)


# ---------------------------------------------------------------------------
# information thresholds
# ---------------------------------------------------------------------------

class Verdict(Enum):
    BELOW_BOUND = "below-bound"    # recovery fails w.p. >= delta (asymptotically)
    ABOVE_BOUND = "above-bound"    # no claim


@dataclass(frozen=True)
class ThresholdReport:
    sl_max_L: float
    ul_max_n: float
    delta: float
    q: float
    verdict: Verdict


def _check_threshold_args(k: int, lam: float, p: int, delta: float) -> None:
    if not 1 <= k < p:
        raise ContractError(f"need 1 <= k < p, got k={k}, p={p}")
    if not 0 <= lam < math.inf:
        raise ContractError(f"lambda must be finite and nonnegative, got {lam}")
    if not 0.0 <= delta <= 1.0:
        raise ContractError(f"delta must lie in [0, 1], got {delta}")


def sl_threshold(k: int, lam: float, p: int, delta: float) -> float:
    """Labeled counts strictly below 2(1-delta) k log(p-k+1)/lambda defeat
    every support estimator with probability > delta - log2/log(p-k+1)."""
    _check_threshold_args(k, lam, p, delta)
    if lam == 0.0:
        return math.inf
    return 2.0 * (1.0 - delta) * k * math.log(p - k + 1) / lam


def ul_threshold(k: int, lam: float, p: int, delta: float) -> float:
    """Unlabeled analogue: 2(1-delta) k log(p-k+1) max(1, lambda) / lambda^2."""
    _check_threshold_args(k, lam, p, delta)
    if lam == 0.0:
        return math.inf
    # lambda^2 leaves the float range below 1e-162 (the value is then inf) and above 1e154
    return 2.0 * (1.0 - delta) * k * math.log(p - k + 1) / lam / min(1.0, lam)


def fusion_verdict(L: int, n: int, k: int, lam: float, p: int, delta: float) -> ThresholdReport:
    """Can (L labeled, n unlabeled) be written as a q-split under the two
    thresholds?  Below-bound iff L/L0 + n/n0 <= 1, i.e. some q in [0, 1]
    admits L <= q L0 and n <= (1-q) n0; then any estimator errs w.p. >= delta.
    """
    if L < 0 or n < 0:
        raise ContractError(f"sample counts must be nonnegative, got L={L}, n={n}")
    L0 = sl_threshold(k, lam, p, delta)
    n0 = ul_threshold(k, lam, p, delta)
    # a count loads an infinite threshold (lambda = 0) by 0, a zero one (delta = 1) by inf
    load_l, load_n = (0.0 if c == 0 or math.isinf(t) else c / t if t else math.inf
                      for c, t in ((L, L0), (n, n0)))
    below = load_l + load_n <= 1.0
    q = min(1.0, load_l)
    return ThresholdReport(sl_max_L=L0, ul_max_n=n0, delta=delta, q=q,
                           verdict=Verdict.BELOW_BOUND if below else Verdict.ABOVE_BOUND)


# ---------------------------------------------------------------------------
# combinatorial moments
# ---------------------------------------------------------------------------

def _to_float(x: Fraction | int) -> float:
    """x rounded to the nearest float, or inf beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def hypergeom_overlap_pmf(p: int, k: int, m: int) -> float:
    """P(|S & S'| = m) for two independent uniform k-subsets of [p].

    Exact: C(k, m) C(p-k, k-m) / C(p, k) correctly rounded. The integers
    grow with k log(p/k), so huge arguments cost time: under 1 ms at p = 1e5,
    k = 100, about 2 s at p = 1e6, k = 1e5. m outside [0, k] yields 0 with a
    warning, structurally impossible overlaps inside the range yield 0
    silently.
    """
    if not 1 <= k <= p:
        raise ContractError(f"need 1 <= k <= p, got k={k}, p={p}")
    if m < 0 or m > k:
        warnings.warn(f"overlap m={m} outside [0, k={k}]; returning 0", stacklevel=2)
        return 0.0
    return math.comb(k, m) * math.comb(p - k, k - m) / math.comb(p, k)  # int / int rounds once


def _overlap_moments(p: int, k: int, D: int) -> tuple[list[int], int]:
    """E[G^d] for d = 0..D over one common denominator, G the overlap of two
    uniform k-subsets of [p]: (numerators, denominator).

    E[G^d] = sum_j S(d, j) (k)_j^2 / (p)_j: Stirling numbers of the second
    kind times the hypergeometric factorial moments, zero for j > k.
    """
    top = min(D, k)
    falling = [1]  # (k)_j
    for j in range(top):
        falling.append(falling[-1] * (k - j))
    tail = [1] * (top + 1)  # (p)_top / (p)_j
    for j in range(top - 1, -1, -1):
        tail[j] = tail[j + 1] * (p - j)
    factorial_moments = [f * f * t for f, t in zip(falling, tail)]  # times (p)_top
    numerators = []
    stirling = [1]  # S(d, j) for j = 0..d
    for d in range(D + 1):
        if d:
            stirling = [j * a + b for j, (a, b) in enumerate(zip(stirling + [0], [0] + stirling))]
        numerators.append(sum(s * f for s, f in zip(stirling, factorial_moments)))
    return numerators, tail[0]


def hypergeom_overlap_moment(p: int, k: int, d: int) -> float:
    """E[G^d], exact, correctly rounded, inf beyond the float range; O(d^2)
    integer steps whatever p and k."""
    if not 1 <= k <= p:
        raise ContractError(f"need 1 <= k <= p, got k={k}, p={p}")
    if d < 0:
        raise ContractError(f"moment order must be nonnegative, got {d}")
    numerators, denominator = _overlap_moments(p, k, d)
    return _to_float(Fraction(numerators[d], denominator))


def _rademacher_moments(n: int, D: int) -> list[int]:
    """E[R^m] for m = 0..D, R = R_1 + ... + R_n a sum of i.i.d. signs.

    E[e^{sR}] = cosh(s)^n, and J. C. P. Miller's power-series recurrence
    g_m = (1/m) sum_j ((n+1) j - m) f_j g_{m-j} for g = f^n, taken on
    E[R^m] = m! g_m with f_j = 1/j! for even j (else 0), stays in integers.
    """
    moments = [1]
    for m in range(1, D + 1):
        moments.append(sum(((n + 1) * j - m) * math.comb(m, j) * moments[m - j]
                           for j in range(2, m + 1, 2)) // m)
    return moments


def rademacher_sum_moment(n: int, d: int) -> float:
    """E[(R_1 + ... + R_n)^d] for i.i.d. signs; zero exactly for odd d.

    Exact, correctly rounded, inf beyond the float range; O(d^2) integer
    steps whatever n.
    """
    if n < 0 or d < 0:
        raise ContractError(f"need n >= 0 and d >= 0, got n={n}, d={d}")
    return _to_float(_rademacher_moments(n, d)[d])


# ---------------------------------------------------------------------------
# low-degree likelihood-ratio norm
# ---------------------------------------------------------------------------

def _check_degree(D: int) -> None:
    if D < 0:
        raise ContractError(f"degree D must be nonnegative, got {D}")


def lowdeg_norm_exact(params: ProblemParams, D: int) -> float:
    """Exact truncated norm: sum over degrees d <= D of
    (1/d!) * E[<mu_S, mu_S'>^d] * E[(L + sum of n signs)^d],
    the first factor reducing to (lam/k)^d times an overlap moment.

    Exact integer arithmetic in O(D^2) steps at any (p, k, L, n); guarded to
    D <= EXACT_MAX_D.
    """
    _check_degree(D)
    if D > EXACT_MAX_D:
        raise ExactInfeasibleError(
            f"exact path requires D <= {EXACT_MAX_D}; got D={D} "
            "(use lowdeg_norm_upper_bound)")
    p, k, L, n = params.p, params.k, params.L, params.n
    overlap, denominator = _overlap_moments(p, k, D)
    signs = _rademacher_moments(n, D)
    a, b = params.lam.as_integer_ratio()  # lam/k = a/b, exactly
    b *= k
    total = 0
    for d in range(D + 1):
        # E[(L + R)^d] by the binomial theorem
        shifted = sum(math.comb(d, i) * L ** (d - i) * signs[i] for i in range(d + 1))
        # the d-th term over one common denominator: the overlap's, times b^D D!
        total += (a ** d * b ** (D - d) * overlap[d] * shifted
                  * (math.factorial(D) // math.factorial(d)))
    return _to_float(Fraction(total, denominator * b ** D * math.factorial(D)))


def _bound_exponent(params: ProblemParams, epsilon: float | None) -> float:
    """The closed-form bound's exponent 1 - 2 beta - epsilon, with epsilon
    defaulting to 1/2 - alpha - beta. Raises BoundInapplicableError unless
    L >= 1, k < p, the implied beta is a positive real, epsilon is positive
    and 0 < 2 beta + epsilon < 1."""
    if params.L < 1:
        raise BoundInapplicableError("bound requires at least one labeled sample")
    if params.k >= params.p:
        raise BoundInapplicableError("bound requires k < p")
    beta = params.beta
    if not math.isfinite(beta) or beta <= 0:
        raise BoundInapplicableError(f"implied beta={beta!r} is not a positive real")
    if epsilon is None:
        epsilon = 0.5 - params.alpha - beta
        if epsilon <= 0:
            raise BoundInapplicableError(
                f"default epsilon = 1/2 - alpha - beta = {epsilon:.4g} is nonpositive")
    if not epsilon > 0:  # a NaN epsilon fails too
        raise BoundInapplicableError(f"epsilon must be positive, got {epsilon}")
    expo = 1.0 - 2.0 * beta - epsilon
    if not expo > 0:
        raise BoundInapplicableError(
            f"exponent condition 2*beta + epsilon < 1 fails (got {2 * beta + epsilon:.4g})")
    return expo


def lowdeg_norm_upper_bound(params: ProblemParams, epsilon: float | None = None) -> float:
    """Closed-form bound (1 + k/(p-k)**(1 - 2 beta - epsilon))**k, log-space,
    with alpha and beta the exponents implied by the counts. Raises
    BoundInapplicableError where the bound does not apply (_bound_exponent).
    """
    expo = _bound_exponent(params, epsilon)
    log_bound = params.k * math.log1p(params.k * math.exp(-expo * math.log(params.p - params.k)))
    return math.exp(log_bound) if log_bound < 700 else math.inf


def bound_dominates_exact(params: ProblemParams, D: int,
                          epsilon: float | None = None) -> bool:
    """True when the closed form provably majorizes the exact truncated sum
    at these finite sizes: the bound applies (False wherever
    lowdeg_norm_upper_bound raises) and
    lam L / k + lam n D / (2 L k) <= (2 beta + epsilon) log(p - k)."""
    _check_degree(D)
    try:
        expo = _bound_exponent(params, epsilon)
    except BoundInapplicableError:
        return False
    lhs = params.lam * params.L / params.k \
        + params.lam * params.n * D / (2.0 * params.L * params.k)
    return lhs <= (1.0 - expo) * math.log(params.p - params.k)


# ---------------------------------------------------------------------------
# phase regions
# ---------------------------------------------------------------------------

class RegionLabel(Enum):
    SL_EASY = "SL_EASY"
    UL_EASY = "UL_EASY"
    SSL_EASY_BLUE = "SSL_EASY_BLUE"
    HARD_ORANGE = "HARD_ORANGE"
    IMPOSSIBLE_RED = "IMPOSSIBLE_RED"
    UNKNOWN_WHITE = "UNKNOWN_WHITE"


def region_classify(alpha: float, beta: float, gamma: float) -> RegionLabel:
    """Phase label of the (alpha, beta, gamma) scaling point.

    Precedence (boundaries go to the earlier clause):
      1. beta > 1 - alpha                              -> SL_EASY
      2. gamma >= 2                                    -> UL_EASY
      3. 1 < gamma < 2, 1 - gamma*alpha < beta < 1-alpha -> SSL_EASY_BLUE
      4. 1 < gamma < 2, beta < 1/2 - alpha             -> HARD_ORANGE
      5. gamma <= 1, beta < 1 - alpha                  -> IMPOSSIBLE_RED
      6. otherwise                                     -> UNKNOWN_WHITE
    """
    if not 0.0 < alpha < 0.5:
        raise ContractError(f"alpha must lie in (0, 1/2), got {alpha}")
    if not (beta >= 0 and gamma >= 0):  # a NaN fails too
        raise ContractError(f"beta and gamma must be nonnegative, got {beta}, {gamma}")
    if beta > 1.0 - alpha:
        return RegionLabel.SL_EASY
    if gamma >= 2.0:
        return RegionLabel.UL_EASY
    if 1.0 < gamma < 2.0 and (1.0 - gamma * alpha) < beta < (1.0 - alpha):
        return RegionLabel.SSL_EASY_BLUE
    if 1.0 < gamma < 2.0 and beta < 0.5 - alpha:
        return RegionLabel.HARD_ORANGE
    if gamma <= 1.0 and beta < 1.0 - alpha:
        return RegionLabel.IMPOSSIBLE_RED
    return RegionLabel.UNKNOWN_WHITE
