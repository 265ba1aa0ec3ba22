import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslgauss.errors import ContractError
from sslgauss.gmodel import ProblemParams, make_sparse_mean, sample_dataset
from sslgauss.metrics import excess_risk, generalization_error, phi_c, support_overlap


def quad_tail_oracle(t: float, dps: int = 30) -> float:
    """Independent oracle: high-precision quadrature of the normal density."""
    import mpmath as mp
    with mp.workdps(dps):
        val = mp.quad(lambda x: mp.e ** (-x * x / 2) / mp.sqrt(2 * mp.pi), [t, mp.inf])
        return float(val)


def empirical_error(direction_hat: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> float:
    """Oracle: the fraction of test pairs with sign<v, x> != y, a zero
    projection predicting +1 (cross-check of the closed form)."""
    pred = np.where(np.asarray(xs, dtype=np.float64) @ direction_hat >= 0.0, 1, -1)
    return float(np.mean(pred != np.asarray(ys)))


class TestPhiC:
    def test_symmetry_at_zero(self):
        assert phi_c(0.0) == 0.5

    def test_bayes_error_at_lambda_3(self):
        assert abs(phi_c(math.sqrt(3.0)) - 0.0416) < 0.0005

    def test_against_quadrature_oracle(self):
        # frozen from quad_tail_oracle(2.0): 0.022750131948179212
        assert abs(phi_c(2.0) - 0.022750131948179212) < 1e-12
        for t in (-3.0, -0.7, 0.3, 1.0, 2.0, 4.5):
            assert abs(phi_c(t) - quad_tail_oracle(t)) < 1e-12

    @given(st.floats(-8, 8), st.floats(-8, 8))
    @settings(max_examples=80, deadline=None)
    def test_strictly_decreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        if hi - lo > 1e-9:
            assert phi_c(lo) > phi_c(hi)

    @given(st.floats(-10, 10))
    @settings(max_examples=80, deadline=None)
    def test_reflection(self, t):
        assert abs(phi_c(t) + phi_c(-t) - 1.0) <= 1e-12

    @given(st.floats(1.0001, 12))
    @settings(max_examples=80, deadline=None)
    def test_tail_upper_bound(self, t):
        assert phi_c(t) <= math.exp(-t * t / 2) / (t * math.sqrt(2 * math.pi))


class TestSupportOverlap:
    def test_identical(self):
        assert support_overlap([1, 2, 3], [3, 2, 1], 3) == 1.0

    def test_disjoint(self):
        assert support_overlap([0, 1], [2, 3], 2) == 0.0

    def test_half(self):
        assert support_overlap([0, 1, 2, 3], [2, 3, 8, 9], 4) == 0.5

    def test_size_mismatch(self):
        with pytest.raises(ContractError):
            support_overlap([0, 1], [0, 1, 2], 2)


def _mean(p, k, lam, seed=0, support=None, signs=None):
    pp = ProblemParams(p=p, k=k, lam=lam, L=1, n=0, seed=seed)
    return make_sparse_mean(pp, support=support, signs=signs, seed=seed)


class TestRiskMetrics:
    def test_bayes_direction(self):
        mu = _mean(10, 2, 3.0)
        v = mu.to_dense() / math.sqrt(3.0)
        assert abs(generalization_error(mu, v) - phi_c(math.sqrt(3.0))) < 1e-15
        assert 0.0 <= excess_risk(mu, v) <= 1e-15

    def test_orthogonal_direction_is_chance(self):
        mu = _mean(10, 2, 3.0, support=[0, 1], signs=[1, 1])
        v = np.zeros(10)
        v[5] = 1.0
        assert generalization_error(mu, v) == 0.5
        assert abs(excess_risk(mu, v) - (0.5 - phi_c(math.sqrt(3.0)))) < 1e-15

    def test_flipped_direction(self):
        mu = _mean(10, 2, 3.0)
        v = -mu.to_dense() / math.sqrt(3.0)
        assert abs(generalization_error(mu, v) - (1.0 - phi_c(math.sqrt(3.0)))) < 1e-12

    def test_non_unit_rejected(self):
        mu = _mean(6, 2, 1.0)
        with pytest.raises(ContractError):
            generalization_error(mu, 0.5 * mu.to_dense())

    def test_nan_direction_rejected(self):
        # a NaN norm is not within the tolerance of 1, so scoring fails
        # and the trial becomes a failed row instead of a nan one
        mu = _mean(6, 2, 1.0)
        v = mu.to_dense()
        v[0] = math.nan
        with pytest.raises(ContractError):
            generalization_error(mu, v)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_excess_risk_nonnegative(self, seed):
        mu = _mean(12, 3, 2.0, seed=1)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(12)
        v /= np.linalg.norm(v)
        assert excess_risk(mu, v) >= 0.0

    def test_excess_risk_zero_iff_aligned(self):
        mu = _mean(12, 3, 2.0, seed=1)
        v = mu.to_dense() / math.sqrt(2.0)
        assert 0.0 <= excess_risk(mu, v) <= 1e-15
        w = v.copy()
        w[0] += 0.05
        w /= np.linalg.norm(w)
        assert excess_risk(mu, w) > 1e-9


class TestEmpiricalError:
    def test_matches_closed_form(self):
        m = 10 ** 5
        mu = _mean(20, 3, 2.0, seed=3)
        ds = sample_dataset(mu, m, 0, seed=8)
        rng = np.random.default_rng(0)
        v = mu.to_dense() + 0.3 * rng.standard_normal(20)
        v /= np.linalg.norm(v)
        q = generalization_error(mu, v)
        emp = empirical_error(v, ds.labeled_x, ds.labeled_y)
        assert abs(emp - q) <= 3.0 * math.sqrt(q * (1 - q) / m)

    def test_perfect_on_noiseless_data(self):
        mu = _mean(8, 2, 4.0, seed=1)
        dense = mu.to_dense()
        xs = np.vstack([dense, -dense, dense])
        ys = np.array([1, -1, 1])
        v = dense / np.linalg.norm(dense)
        assert empirical_error(v, xs, ys) == 0.0

    def test_random_direction_near_chance(self):
        mu = _mean(40, 4, 3.0, seed=2)
        ds = sample_dataset(mu, 20000, 0, seed=4)
        v = np.zeros(40)
        v[np.argmin(np.abs(mu.to_dense()))] = 1.0  # off-support coordinate
        assert abs(empirical_error(v, ds.labeled_x, ds.labeled_y) - 0.5) < 0.02
