"""Evaluation metrics: Gaussian tail, support overlap, classification risk.

For the symmetric mixture the linear classifier x -> sign<v, x> with a unit
vector v has exact error Phi_c(<v, mu>), so generalization error is computed
in closed form and no test set is needed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError
from .gmodel import SparseMean

_UNIT_NORM_TOL = 1e-9
_NEG_RISK_TOL = 1e-12


def phi_c(t: float) -> float:
    """Upper tail P(Z > t) of the standard normal."""
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def support_overlap(s_true, s_hat, k: int) -> float:
    """Normalized overlap |S_true & S_hat| / k; S_hat must have exactly k indices."""
    hat = set(int(i) for i in s_hat)
    if len(hat) != k:
        raise ContractError(f"estimated support has {len(hat)} indices, expected k={k}")
    true = set(int(i) for i in s_true)
    return len(true & hat) / k


def _check_unit(direction: np.ndarray) -> np.ndarray:
    v = np.asarray(direction, dtype=np.float64)
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= _UNIT_NORM_TOL:  # a NaN norm fails too
        raise ContractError(f"direction must be unit norm, got ||v|| = {nrm!r}")
    return v


def generalization_error(mu: SparseMean, direction_hat: np.ndarray) -> float:
    """Exact error of x -> sign<direction_hat, x> under the mixture with mean mu.

    <direction_hat, mu> is a correctly rounded k-term sum over the support of
    mu: O(k), and no BLAS reduction order enters the result.
    """
    v = _check_unit(direction_hat)
    signed = math.fsum(s * float(v[j]) for j, s in zip(mu.support, mu.signs))
    return phi_c(mu.magnitude * signed)


def _over_bayes(mu: SparseMean, gen_error: float) -> float:
    e = gen_error - phi_c(math.sqrt(mu.norm_sq))
    if -_NEG_RISK_TOL <= e < 0.0:
        return 0.0
    return e


def excess_risk(mu: SparseMean, direction_hat: np.ndarray) -> float:
    """Generalization error minus the Bayes error Phi_c(||mu||).

    Nonnegative for unit directions; float noise in [-1e-12, 0) is clamped
    to zero.
    """
    return _over_bayes(mu, generalization_error(mu, direction_hat))


def score(mu: SparseMean, support_hat,
          direction_hat: np.ndarray) -> tuple[float, float, float]:
    """(overlap, gen_error, excess_risk) of one support/direction estimate."""
    gen_error = generalization_error(mu, direction_hat)
    return (support_overlap(mu.support, support_hat, mu.k), gen_error,
            _over_bayes(mu, gen_error))

