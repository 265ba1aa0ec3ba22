"""Closed-form calculators for recovery thresholds and polynomial hardness.

Covers four groups:
  * information thresholds on the labeled / unlabeled sample counts below
    which exact support recovery must fail with the requested probability,
    and their fusion for mixed samples;
  * exact combinatorial moments (support-overlap hypergeometric, Rademacher
    sums) used by the degree-D likelihood-ratio norm;
  * the truncated likelihood-ratio norm itself: exact, Monte Carlo, and a
    closed-form upper bound;
  * the (alpha, beta, gamma) phase-region classifier.

The moments are exact: integer/Fraction sums, rounded once to a float (inf
beyond the float range); the exact norm runs under explicit size guards.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import BoundInapplicableError, ContractError, ExactInfeasibleError
from .gmodel import ProblemParams
from .rng import generator

EXACT_MAX_K = 64
EXACT_MAX_N = 64
EXACT_MAX_D = 30
MC_BATCH = 200_000  # Monte Carlo draws held in memory at once


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

def _to_float(x: Fraction) -> float:
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


def _overlap_moment_fraction(p: int, k: int, d: int) -> Fraction:
    """E[G^d] with G the overlap of two uniform k-subsets, exact."""
    total = 0
    for m in range(max(0, 2 * k - p), k + 1):
        total += m ** d * math.comb(k, m) * math.comb(p - k, k - m)
    return Fraction(total, math.comb(p, k))


def hypergeom_overlap_moment(p: int, k: int, d: int) -> float:
    """E[G^d], exact, correctly rounded, inf beyond the float range."""
    if not 1 <= k <= p:
        raise ContractError(f"need 1 <= k <= p, got k={k}, p={p}")
    if d < 0:
        raise ContractError(f"moment order must be nonnegative, got {d}")
    return _to_float(_overlap_moment_fraction(p, k, d))


def _sign_sum_moment(L: int, n: int, d: int) -> Fraction:
    """E[(L + R_1 + ... + R_n)^d] for i.i.d. signs, exact: the sum over the
    count t of plus signs of C(n, t) (L + 2t - n)^d / 2^n."""
    total = 0
    c = 1  # C(n, t), built from C(n, t - 1)
    for t in range(n + 1):
        total += c * (L + 2 * t - n) ** d
        c = c * (n - t) // (t + 1)
    return Fraction(total, 2 ** n)


def rademacher_sum_moment(n: int, d: int) -> float:
    """E[(R_1 + ... + R_n)^d] for i.i.d. signs; zero exactly for odd d.

    Exact, correctly rounded, inf beyond the float range. It sums n + 1
    integers of about d log2(n) bits, so huge arguments cost (about 0.2 s
    at n = 20000, d = 6).
    """
    if n < 0 or d < 0:
        raise ContractError(f"need n >= 0 and d >= 0, got n={n}, d={d}")
    return _to_float(_sign_sum_moment(0, n, d))


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

    Exact combinatorics only; guarded to k <= 64, n <= 64, D <= 30.
    """
    _check_degree(D)
    p, k, L, n, lam = params.p, params.k, params.L, params.n, params.lam
    if k > EXACT_MAX_K or n > EXACT_MAX_N or D > EXACT_MAX_D:
        raise ExactInfeasibleError(
            f"exact path requires k <= {EXACT_MAX_K}, n <= {EXACT_MAX_N}, "
            f"D <= {EXACT_MAX_D}; got k={k}, n={n}, D={D} "
            "(use lowdeg_norm_upper_bound or lowdeg_norm_mc)")
    lam_frac = Fraction(lam)  # exact binary value of the float
    total = Fraction(1)       # d = 0 term
    for d in range(1, D + 1):
        eg = _overlap_moment_fraction(p, k, d)
        et = _sign_sum_moment(L, n, d)
        total += (lam_frac / k) ** d * eg * et / math.factorial(d)
    return _to_float(total)


def lowdeg_norm_mc(params: ProblemParams, D: int, n_samples: int = 10 ** 6,
                   seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of the truncated norm with its standard error.

    Samples the two supports' overlap and the n sign products directly and
    averages the inner exponential series truncated at degree D. Raises
    ContractError when the series or its square leaves the float range.
    """
    _check_degree(D)
    p, k, L, n, lam = params.p, params.k, params.L, params.n, params.lam
    if n_samples < 2:
        raise ContractError("need at least two samples for a standard error")
    if max(k, p - k) >= 10 ** 9:  # numpy's hypergeometric sampler refuses larger pools
        raise ContractError(f"Monte Carlo path needs k and p - k below 1e9, got k={k}, p={p}")
    rng = generator(seed)
    total = 0.0
    total_sq = 0.0
    remaining = n_samples
    while remaining > 0:
        b = min(MC_BATCH, remaining)
        g = rng.hypergeometric(k, p - k, k, size=b) if p > k else np.full(b, k)
        r = 2.0 * rng.binomial(n, 0.5, size=b) - n if n > 0 else np.zeros(b)
        # a series beyond the float range is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            x = (lam / k) * g * (L + r)
            acc = np.ones(b)
            term = np.ones(b)
            for d in range(1, D + 1):
                term = term * x / d
                acc = acc + term
            total += float(np.sum(acc))
            total_sq += float(np.sum(acc * acc))
        if not (math.isfinite(total) and math.isfinite(total_sq)):
            raise ContractError(f"Monte Carlo series leaves the float range at "
                                f"lambda={lam:g}, D={D}")
        remaining -= b
    mean = total / n_samples
    var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    return mean, math.sqrt(var / n_samples)


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
