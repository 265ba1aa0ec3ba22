import itertools
import math

import numpy as np
import pytest

from sslgauss.errors import (ContractError, InsufficientSamplesError,
                             InvalidSupportError)
from sslgauss.spectral import (DEFAULT_MAX_ITER, power_iteration, principal_direction,
                               restricted_covariance, top_k_indices, truncated_power)


def jacobi_leading_eigenvector(a: np.ndarray, sweeps: int = 60) -> tuple[float, np.ndarray]:
    """Brute-force oracle: cyclic Jacobi rotations on a symmetric matrix."""
    a = np.array(a, dtype=np.float64)
    m = a.shape[0]
    v = np.eye(m)
    for _ in range(sweeps):
        off = 0.0
        for i in range(m - 1):
            for j in range(i + 1, m):
                if a[i, j] == 0.0:
                    continue
                off += a[i, j] ** 2
                theta = 0.5 * math.atan2(2 * a[i, j], a[j, j] - a[i, i])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(m)
                rot[i, i] = rot[j, j] = c
                rot[i, j] = s
                rot[j, i] = -s
                a = rot.T @ a @ rot
                v = v @ rot
        if off < 1e-30:
            break
    idx = int(np.argmax(np.diag(a)))
    return float(a[idx, idx]), v[:, idx]


class TestRestrictedCovariance:
    def test_hand_example_two_samples(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
        cov = restricted_covariance(rows)
        np.testing.assert_allclose(cov.matrix(), [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_singleton_is_variance(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((40, 5))
        var = float(np.var(rows[:, 3]))  # 1/n convention
        cov = restricted_covariance(rows[:, [3]])
        np.testing.assert_allclose(cov.matrix(), [[var]], rtol=1e-12)

    @pytest.mark.parametrize("m", [2, 17, 50])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_numpy_cov(self, dtype, m):
        # float32 rows are small integers over 16 rows, so the mean, the
        # centered rows and every product are exact in float32 and the
        # comparison checks the algebra (centering, 1/n, index mapping)
        rng = np.random.default_rng(m)
        if dtype == np.float64:
            rows = rng.standard_normal((m + 3, m + 5))
        else:
            rows = rng.integers(-4, 5, size=(16, m + 5)).astype(np.float32)
        idx = rng.choice(m + 5, size=m, replace=False)
        want = np.atleast_2d(np.cov(rows[:, idx].T, bias=True))
        cov = restricted_covariance(np.take(rows, idx, axis=1))
        assert cov.dim == m
        np.testing.assert_allclose(cov.matrix(), want, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(cov.diagonal(), np.diag(want), rtol=1e-10, atol=1e-12)
        for j in range(m):
            e = np.zeros(m)
            e[j] = 1.0
            np.testing.assert_allclose(cov @ e, want[:, j], rtol=1e-10, atol=1e-12)

    def test_errors(self):
        with pytest.raises(InsufficientSamplesError):
            restricted_covariance(np.zeros((1, 4)))
        with pytest.raises(InvalidSupportError):
            restricted_covariance(np.zeros((3, 0)))
        with pytest.raises(ContractError):
            restricted_covariance(np.zeros(4))

    def test_centers_in_place_unless_read_only(self):
        rows = np.array([[1.0, 2.0], [3.0, 6.0]])
        restricted_covariance(rows)
        np.testing.assert_array_equal(rows, [[-1.0, -2.0], [1.0, 2.0]])
        frozen = np.array([[1.0, 2.0], [3.0, 6.0]])
        frozen.setflags(write=False)
        cov = restricted_covariance(frozen)
        np.testing.assert_array_equal(frozen, [[1.0, 2.0], [3.0, 6.0]])
        np.testing.assert_allclose(cov.matrix(), [[1.0, 2.0], [2.0, 4.0]])


class TestPrincipalDirection:
    @pytest.mark.parametrize("n", [12, 40], ids=["gram", "covariance"])
    def test_exact_top_eigenpair(self, n):
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((n, 20)) + 1.5 * np.outer(
            rng.choice([-1.0, 1.0], n), np.eye(20)[3])
        values, vectors = np.linalg.eigh(np.cov(rows.T, bias=True))
        v, value, dual_gram = principal_direction(rows)
        assert dual_gram == (n < 20)
        assert abs(value - values[-1]) <= 1e-12 * values[-1]
        assert abs(float(v @ vectors[:, -1])) >= 1.0 - 1e-12
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert v[int(np.argmax(np.abs(v)))] >= 0.0

    def test_integer_rows_as_float64(self):
        # on the Gram side u maps back through the rows; it must not be cast
        # to the rows' integer dtype
        rows = np.array([[3, 0, 1, 2], [-3, 1, 0, 1], [2, 0, 0, 5]])
        v, value, dual_gram = principal_direction(rows)
        want, want_value, _ = principal_direction(rows.astype(np.float64))
        assert dual_gram
        np.testing.assert_array_equal(v, want)
        assert value == want_value

    @pytest.mark.parametrize("n", [3, 8], ids=["gram", "covariance"])
    def test_zero_covariance_returns_e1(self, n):
        rows = np.tile([2.0, -1.0, 0.5, 0.0, 3.0], (n, 1))
        v, value, _ = principal_direction(rows)
        np.testing.assert_array_equal(v, [1.0, 0.0, 0.0, 0.0, 0.0])
        assert value <= 1e-12

    def test_needs_two_rows(self):
        with pytest.raises(InsufficientSamplesError):
            principal_direction(np.ones((1, 4)))
        with pytest.raises(InsufficientSamplesError):
            principal_direction(np.ones(4))


class TestLeadingEigenvector:
    def test_diagonal(self):
        v = power_iteration(np.diag([3.0, 1.0])).vector
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-12)

    def test_rank_one_spike(self):
        u = np.array([3.0, 4.0]) / 5.0
        res = power_iteration(np.outer(u, u) + np.eye(2))
        assert abs(abs(float(res.vector @ u)) - 1.0) <= 1e-8
        assert abs(res.value - 2.0) <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_jacobi_oracle(self, seed):
        # the solvers take PSD operators, as every estimator passes
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((6, 6))
        a = b @ b.T
        val, vec = jacobi_leading_eigenvector(a)
        res = power_iteration(a)
        assert res.converged
        assert abs(float(res.vector @ vec)) >= 1.0 - 1e-8
        assert abs(res.value - val) <= 1e-7 * max(1.0, abs(val))

    def test_unit_norm_and_canonical_sign(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((9, 9))
        a = b @ b.T
        v = power_iteration(a).vector
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert v[int(np.argmax(np.abs(v)))] >= 0.0

    def test_rayleigh_monotone(self):
        # the value after t steps never decreases in t
        rng = np.random.default_rng(3)
        b = rng.standard_normal((12, 8))
        cov = restricted_covariance(b)
        hist = [power_iteration(cov, max_iter=t).value for t in range(1, 41)]
        assert all(b2 >= a2 - 1e-10 for a2, b2 in zip(hist, hist[1:]))
        assert hist[-1] > hist[0]

    def test_zero_operator_returns_e1(self):
        res = power_iteration(np.zeros((4, 4)))
        np.testing.assert_array_equal(res.vector, [1.0, 0.0, 0.0, 0.0])
        assert res.converged and res.value == 0.0

    def test_nonconvergence_returns_last_iterate(self):
        # eigenvalues 1 and 1 - 1e-4 mixed at 30 degrees: far too slow for
        # 40 steps, and the deterministic start is not an eigenvector
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        q = np.array([[c, -s], [s, c]])
        a = q @ np.diag([1.0, 1.0 - 1e-4]) @ q.T
        res = power_iteration(a, max_iter=40)
        assert not res.converged
        assert res.iterations == 40  # one run, no restart
        v = res.vector
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert v[int(np.argmax(np.abs(v)))] >= 0.0
        assert res.step > 0

    def test_float32_rows_converge_at_defaults(self):
        # products over float32 rows carry float32 rounding, so the iterate
        # never settles to 1e-9; the loop takes the float32 tolerance itself
        rng = np.random.default_rng(0)
        u = np.zeros(300)
        u[:10] = 1.0 / np.sqrt(10.0)
        rows = rng.standard_normal((2000, 300)) + 2.0 * np.outer(
            rng.choice([-1.0, 1.0], 2000), u)
        cov = restricted_covariance(rows.astype(np.float32))
        res = power_iteration(cov)
        assert res.converged and res.iterations < DEFAULT_MAX_ITER
        want = np.linalg.eigh(restricted_covariance(rows).matrix())[0][-1]
        assert abs(res.value - want) <= 1e-5 * want

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            power_iteration(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTruncatedPower:
    def test_no_truncation_matches_power_iteration(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((30, 6))
        cov = restricted_covariance(b)
        dense = power_iteration(cov).vector
        sparse = truncated_power(cov, 6).vector
        assert abs(float(dense @ sparse)) >= 1.0 - 1e-8

    def test_two_sparse_spike_exhaustive_oracle(self):
        # best 2-sparse Rayleigh quotient over all C(10,2) supports
        rng = np.random.default_rng(5)
        u = np.zeros(10)
        u[[2, 7]] = [0.6, -0.8]
        a = np.outer(u, u) + np.eye(10)
        best, best_support = -np.inf, None
        for pair in itertools.combinations(range(10), 2):
            sub = a[np.ix_(pair, pair)]
            val = jacobi_leading_eigenvector(sub)[0]
            if val > best:
                best, best_support = val, pair
        assert best_support == (2, 7)
        v = truncated_power(a, 2).vector
        assert set(np.nonzero(v)[0]) == {2, 7}

    def test_identity_degenerate(self):
        v = truncated_power(np.eye(8), 3).vector
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert np.count_nonzero(v) <= 3
        a = np.eye(8)
        assert abs(float(v @ a @ v) - 1.0) <= 1e-12

    def test_sparsity_and_norm(self):
        rng = np.random.default_rng(9)
        b = rng.standard_normal((25, 12))
        cov = restricted_covariance(b)
        for k in (1, 4, 12):
            v = truncated_power(cov, k).vector
            assert np.count_nonzero(v) <= k
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert v[int(np.argmax(np.abs(v)))] >= 0.0

    def test_rayleigh_monotone(self):
        # the value after t steps never decreases in t
        rng = np.random.default_rng(11)
        b = rng.standard_normal((40, 10))
        cov = restricted_covariance(b)
        hist = [truncated_power(cov, 3, max_iter=t).value for t in range(1, 41)]
        assert all(b2 >= a2 - 1e-10 for a2, b2 in zip(hist, hist[1:]))
        assert hist[-1] > hist[0]

    def test_zero_operator(self):
        res = truncated_power(np.zeros((5, 5)), 2)
        np.testing.assert_array_equal(res.vector, [1.0, 0.0, 0.0, 0.0, 0.0])
        assert res.converged

    def test_start_in_null_space_is_not_converged(self):
        # the equal-weight start is killed by the operator; the run stops
        # there and says so instead of dividing by zero
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        res = truncated_power(a, 2)
        assert not res.converged and res.iterations == 1
        np.testing.assert_allclose(res.vector, [1.0, 1.0] / np.sqrt(2.0))
        assert res.value == 0.0

    def test_bad_k(self):
        with pytest.raises(ContractError):
            truncated_power(np.eye(3), 0)
        with pytest.raises(ContractError):
            truncated_power(np.eye(3), 4)


class TestTopKIndices:
    def test_ties_take_lowest_index(self):
        assert list(top_k_indices(np.array([1.0, 2.0, 2.0, 1.0]), 2)) == [1, 2]
        assert list(top_k_indices(np.zeros(5), 3)) == [0, 1, 2]
