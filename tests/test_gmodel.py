import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_mean
from sslgauss.errors import ConfigError, EmptyDatasetError, InvalidSupportError
from sslgauss.gmodel import (Dataset, ProblemParams, SparseMean, k_from_alpha, labeled_count,
                             make_sparse_mean, sample_dataset, unlabeled_count)
from sslgauss.harness import config_from_dict


def params(p, k, lam, L=10, n=10, seed=0):
    return ProblemParams(p=p, k=k, lam=lam, L=L, n=n, seed=seed)


class TestSparseMean:
    def test_fixed_support_construction(self):
        # support {0, 2} with signs (+, -): mu = (1/sqrt2, 0, -1/sqrt2, 0)
        mu = SparseMean(4, (0, 2), (1, -1), math.sqrt(0.5))
        np.testing.assert_allclose(
            dense_mean(mu), [1 / math.sqrt(2), 0.0, -1 / math.sqrt(2), 0.0])
        assert abs(np.linalg.norm(dense_mean(mu)) - 1.0) < 1e-15

    def test_large_instance_magnitudes(self):
        mu = make_sparse_mean(params(10 ** 5, 100, 3.0), seed=5)
        dense = dense_mean(mu)
        nz = dense[np.nonzero(dense)]
        assert nz.size == 100
        np.testing.assert_allclose(np.abs(nz), math.sqrt(0.03), rtol=1e-12)

    def test_dense_edge_case_k_equals_p(self):
        mu = make_sparse_mean(params(6, 6, 2.0), seed=1)
        dense = dense_mean(mu)
        np.testing.assert_allclose(np.abs(dense), math.sqrt(1.0 / 3.0), rtol=1e-12)
        assert abs(mu.norm_sq - 2.0) < 1e-12
        assert abs(np.dot(dense, dense) - 2.0) < 1e-12

    def test_invalid_supports(self):
        with pytest.raises(InvalidSupportError):
            SparseMean(4, (0, 0), (1, 1), 1.0)
        with pytest.raises(InvalidSupportError):
            SparseMean(4, (0, 7), (1, 1), 1.0)
        with pytest.raises(InvalidSupportError):
            SparseMean(4, (0, 1), (2, 1), 1.0)

    @given(st.integers(2, 40), st.integers(1, 10), st.floats(0.1, 9.0),
           st.integers(0, 2 ** 32))
    @settings(max_examples=60, deadline=None)
    def test_norm_invariant(self, p, k, lam, seed):
        k = min(k, p)
        mu = make_sparse_mean(params(p, k, lam), seed=seed)
        assert abs(mu.norm_sq - lam) < 1e-9 * max(1.0, lam)
        dense = dense_mean(mu)
        assert np.count_nonzero(dense) == k
        assert abs(float(dense @ dense) - lam) < 1e-9 * max(1.0, lam)


class TestProblemParams:
    def test_exponent_constructor_reference_point(self):
        pp = config_from_dict({"p": 10 ** 5, "alpha": 0.4, "beta": 0.2606,
                               "gamma": 2.0, "lambda": 3.0}).params
        assert pp.k == 100
        # L = floor(2 * beta * k * log(p - k) / lam)
        assert pp.L == math.floor(2 * 0.2606 * 100 * math.log(10 ** 5 - 100) / 3.0)
        assert pp.n == math.floor(100 ** 2 / 9.0)

    def test_count_helpers(self):
        assert k_from_alpha(10 ** 6, 1.0 / 3.0) == 100  # pow rounding absorbed
        assert labeled_count(20000, 53, 0.45, 3.0) == 157
        assert unlabeled_count(53, 1.8, 3.0, c2=10.0) == 1410

    @pytest.mark.parametrize("c1", [0.0, -5.0])
    def test_k_from_alpha_rejects_bad_prefactor(self, c1):
        # max(1, ...) used to turn c1 <= 0 into k = 1 silently
        with pytest.raises(ConfigError, match="c1"):
            k_from_alpha(1000, 0.4, c1=c1)

    def test_k_from_alpha_rejects_zero_sparsity(self):
        # floor(1e-9 * 200**0.4) = 0 used to be clamped to k = 1 silently
        with pytest.raises(ConfigError, match="alpha = 0.4, c1 = 1e-09"):
            k_from_alpha(200, 0.4, c1=1e-9)

    @pytest.mark.parametrize("c2", [0.0, -1.0])
    def test_unlabeled_count_rejects_bad_prefactor(self, c2):
        # c2 = 0 used to give n = 0 silently
        with pytest.raises(ConfigError, match="c2"):
            unlabeled_count(53, 1.5, 3.0, c2=c2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ProblemParams(p=4, k=5, lam=1.0, L=1, n=1)
        with pytest.raises(ConfigError):
            ProblemParams(p=4, k=2, lam=-1.0, L=1, n=1)

    def test_exponent_roundtrip(self):
        pp = config_from_dict({"p": 2000, "alpha": 0.4, "beta": 0.45,
                               "gamma": 1.8, "lambda": 3.0}).params
        assert pp.k == 20
        assert abs(pp.alpha - 0.4) < 0.02     # floor slippage only
        assert abs(pp.beta - 0.45) < 0.02
        assert abs(pp.gamma - 1.8) < 0.05

    @settings(max_examples=500, deadline=None)
    @given(n=st.integers(1, 10 ** 9), lam=st.floats(1e-100, 1e100), k=st.integers(2, 10 ** 4))
    def test_gamma_keeps_its_bits_in_the_float_range(self, n, lam, k):
        # gamma feeds resolve_beta_tilde("auto"): where n * lam**2 is a
        # normal float it is the one-log formula, bit for bit
        pp = ProblemParams(p=10 ** 5, k=k, lam=lam, L=0, n=n)
        assert pp.gamma == math.log(n * lam ** 2) / math.log(k)

    @pytest.mark.parametrize("lam", [1e-320, 1e-200, 1e200, 1e300])
    def test_gamma_beyond_the_float_range_of_lam_squared(self, lam):
        pp = ProblemParams(p=2000, k=80, lam=lam, L=10, n=200)
        want = (math.log(200) + 2.0 * math.log(lam)) / math.log(80)
        assert math.isfinite(pp.gamma) and pp.gamma == pytest.approx(want, rel=1e-15)


class TestSampleDataset:
    def test_determinism(self):
        mu = make_sparse_mean(params(30, 3, 2.0), seed=11)
        a = sample_dataset(mu, 20, 35, seed=99)
        b = sample_dataset(mu, 20, 35, seed=99)
        assert np.array_equal(a.labeled_x, b.labeled_x)
        assert np.array_equal(a.labeled_y, b.labeled_y)
        assert np.array_equal(a.unlabeled_x, b.unlabeled_x)

    def test_prefix_stability_in_counts(self):
        # growing either count extends the draw without disturbing the rest
        mu = make_sparse_mean(params(12, 2, 1.0), seed=3)
        small = sample_dataset(mu, 5, 7, seed=42)
        big = sample_dataset(mu, 9, 20, seed=42)
        assert np.array_equal(small.labeled_x, big.labeled_x[:5])
        assert np.array_equal(small.labeled_y, big.labeled_y[:5])
        assert np.array_equal(small.unlabeled_x, big.unlabeled_x[:7])

    def test_prefix_rejects_rows_it_does_not_hold(self):
        mu = make_sparse_mean(params(12, 2, 1.0), seed=3)
        ds = sample_dataset(mu, 30, 20, seed=42)
        assert (ds.prefix(30, 5).L, ds.prefix(10, 20).n) == (30, 20)
        with pytest.raises(ConfigError, match="L = 1000 exceeds the 30 labeled rows held"):
            ds.prefix(1000, 5)
        with pytest.raises(ConfigError, match="n = 21 exceeds the 20 unlabeled rows held"):
            ds.prefix(30, 21)

    @pytest.mark.parametrize("labeled_x, labeled_y, unlabeled_x, message", [
        (np.ones((2, 4)), np.array([1, -1]), np.ones(4), "must be 2-d"),
        (np.ones((3, 4)), np.array([1, -1]), np.ones((5, 4)), "row counts differ"),
        (np.ones((2, 4)), np.array([1, -1]), np.ones((5, 3)), "dimensions differ"),
        (np.empty((0, 3)), np.empty(0, np.int8), np.ones((5, 4)), "dimensions differ"),
        (np.ones((2, 4)), np.array([1, -1]), np.empty((0, 3)), "dimensions differ"),
        (np.ones((2, 4)), np.array([1, 0]), np.ones((5, 4)), r"must lie in \{-1, \+1\}"),
    ], ids=["not-2d", "label-count", "widths", "widths-empty-labeled",
            "widths-empty-unlabeled", "label-value"])
    def test_dataset_refuses_malformed_blocks(self, labeled_x, labeled_y, unlabeled_x,
                                              message):
        with pytest.raises(ConfigError, match=message):
            Dataset(labeled_x, labeled_y, unlabeled_x)

    def test_zero_signal_mean(self):
        p, n = 16, 10 ** 4
        mu = make_sparse_mean(params(p, 2, 0.0), seed=1)
        ds = sample_dataset(mu, 0, n, seed=7)
        grand = float(ds.unlabeled_x.mean())
        assert abs(grand) <= 4.0 / math.sqrt(n * p)
        per_coord = ds.unlabeled_x.mean(axis=0)
        assert np.all(np.abs(per_coord) <= 4.0 / math.sqrt(n))

    def test_signed_mean_recovers_mu(self):
        # mean of y*x over many samples lands within 3 sigma per coordinate
        p, L = 32, 10 ** 5
        mu = make_sparse_mean(params(p, 4, 2.0), seed=2)
        ds = sample_dataset(mu, L, 0, seed=1)
        est = (ds.labeled_y.astype(np.float64) @ ds.labeled_x) / L
        sigma = 1.0 / math.sqrt(L)
        assert np.all(np.abs(est - dense_mean(mu)) <= 3.0 * sigma)

    def test_unlabeled_covariance_converges(self):
        # sample covariance approaches mu mu^T + I in operator norm
        p, n = 8, 20000
        mu = make_sparse_mean(params(p, 3, 2.5), seed=4)
        ds = sample_dataset(mu, 0, n, seed=21)
        xc = ds.unlabeled_x - ds.unlabeled_x.mean(axis=0)
        cov = xc.T @ xc / n
        target = np.outer(dense_mean(mu), dense_mean(mu)) + np.eye(p)
        gap = np.linalg.norm(cov - target, ord=2)
        assert gap <= 8.0 * math.sqrt(p / n)

    def test_label_balance(self):
        for seed in range(5):
            mu = make_sparse_mean(params(6, 2, 1.0), seed=seed)
            ds = sample_dataset(mu, 400, 0, seed=seed)
            pos = int((ds.labeled_y == 1).sum())
            assert abs(pos - 200) <= 4 * math.sqrt(400)

    def test_empty_dataset_error(self):
        mu = make_sparse_mean(params(4, 2, 1.0), seed=0)
        with pytest.raises(EmptyDatasetError):
            sample_dataset(mu, 0, 0, seed=0)

    def test_float32_storage(self):
        mu = make_sparse_mean(params(10, 2, 1.0), seed=0)
        ds = sample_dataset(mu, 4, 6, seed=5, dtype=np.float32)
        assert ds.labeled_x.dtype == np.float32
        assert ds.unlabeled_x.dtype == np.float32

    def test_float32_overflowing_mean_is_refused(self):
        # entries sqrt(1e160 / 5) ~ 4.5e79 would be stored as inf in float32
        mu = make_sparse_mean(params(200, 5, 1e160), seed=0)
        with pytest.raises(ConfigError, match=r"float32 \(largest finite value 3\.403e\+38\)"):
            sample_dataset(mu, 10, 50, seed=1, dtype=np.float32)
        assert np.isfinite(sample_dataset(mu, 10, 50, seed=1).labeled_x).all()

    def test_float32_mean_at_the_largest_float32(self):
        top = float(np.finfo(np.float32).max)
        mu = make_sparse_mean(params(20, 1, top ** 2), seed=0)
        assert mu.magnitude == top
        ds = sample_dataset(mu, 2, 0, seed=1, dtype=np.float32)
        assert np.abs(ds.labeled_x[:, mu.support[0]]).max() == np.float32(top)

    def test_arrays_read_only(self):
        mu = make_sparse_mean(params(6, 2, 1.0), seed=0)
        ds = sample_dataset(mu, 3, 3, seed=5)
        with pytest.raises(ValueError):
            ds.labeled_x[0, 0] = 1.0
