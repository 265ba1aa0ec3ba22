import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sslgauss import spectral
from sslgauss.errors import (ContractError, InsufficientSamplesError,
                             InvalidSupportError)
from sslgauss.spectral import (LANCZOS_BASIS, MAX_ITER, power_iteration,
                               principal_direction, restricted_covariance, top_k_indices,
                               truncated_power)


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
        res = principal_direction([rows])
        v, value = res.vector, res.value
        assert res.converged
        assert abs(value - values[-1]) <= 1e-12 * values[-1]
        assert abs(float(v @ vectors[:, -1])) >= 1.0 - 1e-12
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert v[int(np.argmax(np.abs(v)))] >= 0.0

    def test_integer_rows_as_float64(self):
        # on the Gram side u maps back through the rows; it must not be cast
        # to the rows' integer dtype
        rows = np.array([[3, 0, 1, 2], [-3, 1, 0, 1], [2, 0, 0, 5]])
        got = principal_direction([rows])
        want = principal_direction([rows.astype(np.float64)])
        assert got.converged
        np.testing.assert_array_equal(got.vector, want.vector)
        assert got.value == want.value

    @pytest.mark.parametrize("n", [3, 8], ids=["gram", "covariance"])
    def test_zero_covariance_returns_e1(self, n):
        rows = np.tile([2.0, -1.0, 0.5, 0.0, 3.0], (n, 1))
        res = principal_direction([rows])
        np.testing.assert_array_equal(res.vector, [1.0, 0.0, 0.0, 0.0, 0.0])
        assert res.value <= 1e-12

    def test_needs_two_rows(self):
        with pytest.raises(InsufficientSamplesError):
            principal_direction([np.ones((1, 4))])

    @staticmethod
    def _covariance_top(rows):
        """Oracle: eigh of the explicitly centered 1/n covariance, in float64."""
        y = rows.astype(np.float64)
        y -= y.mean(axis=0)
        values, vectors = np.linalg.eigh((y.T @ y) / len(y))
        return values[-1], vectors[:, -1]

    def test_gram_side_offset_rows(self, monkeypatch):
        # every column shifted by +3: the uncentered Gram matrix would lead
        # with the offset's eigenvalue, near 9 p; the rank-two correction must
        # remove it and leave the matrix Lanczos sees exactly symmetric
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((30, 80)) + 2.0 * np.outer(
            rng.choice([-1.0, 1.0], 30), np.eye(80)[5]) + 3.0
        seen = []

        def spy(a, **kwargs):
            seen.append(a.copy())
            return power_iteration(a, **kwargs)

        monkeypatch.setattr(spectral, "power_iteration", spy)
        res = principal_direction([rows[:9], rows[9:]])
        want_value, want_v = self._covariance_top(rows)
        assert res.converged
        assert abs(res.value - want_value) <= 1e-10 * want_value
        assert 1.0 - abs(float(res.vector @ want_v)) <= 1e-10
        (gram,) = seen
        assert np.array_equal(gram, gram.T)

    @pytest.mark.parametrize("column_block", [16, spectral.COLUMN_BLOCK])
    def test_gram_side_float32_rows_in_float64(self, column_block, monkeypatch):
        # float32 blocks are cast a slab at a time and every product runs in
        # float64, so they give what their float64 cast gives; float32
        # products would be about 1e-7 off
        monkeypatch.setattr(spectral, "COLUMN_BLOCK", column_block)
        rng = np.random.default_rng(5)
        rows = (rng.standard_normal((40, 70)) + 2.0 * np.outer(
            rng.choice([-1.0, 1.0], 40), np.eye(70)[2])).astype(np.float32)
        got = principal_direction([rows[:10], rows[10:]])
        want = principal_direction([rows.astype(np.float64)])
        assert got.converged and want.converged
        assert abs(got.value - want.value) <= 1e-12 * want.value
        assert np.max(np.abs(got.vector - want.vector)) <= 1e-12

    def test_gram_side_start_nearly_orthogonal_to_top(self):
        # Lanczos starts from the basis vector at the Gram matrix's largest
        # diagonal entry, row 17, which here lies mostly along the second
        # eigenvector (1.9) and only 1e-6 along the top one (2.0). A start
        # within tol * theta / gap (2e-8) of orthogonal would stop on the
        # second pair; 1e-6 must still reach the top one.
        n, p, j0, eps = 60, 100, 17, 1e-6
        rng = np.random.default_rng(0)
        ones = np.full(n, 1.0 / np.sqrt(n))
        e = np.eye(n)[j0]
        c = np.linalg.qr(np.column_stack([ones, e]))[0]
        top = rng.standard_normal(n)
        top -= c @ (c.T @ top)
        top = top / np.linalg.norm(top) + eps * e
        top -= ones * (ones @ top)
        # eigenvectors orthogonal to the ones vector: the rows are centered
        u = np.linalg.qr(np.column_stack([ones, top, e + 0.3 * rng.standard_normal(n),
                                          rng.standard_normal((n, 50))]))[0][:, 1:]
        values = np.concatenate([[2.0, 1.9], np.linspace(1.0, 0.1, 50)])
        w = np.linalg.qr(rng.standard_normal((p, values.size)))[0]
        rows = np.sqrt(n) * (u * np.sqrt(values)) @ w.T
        y = rows - rows.mean(axis=0)
        assert int(np.argmax(np.einsum("ij,ij->i", y, y))) == j0
        assert abs(u[j0, 0]) < 2 * eps
        res = principal_direction([rows])
        assert res.converged
        assert abs(res.value - 2.0) <= 1e-9 * 2.0
        assert 1.0 - abs(float(res.vector @ w[:, 0])) <= 1e-12


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

    def test_rayleigh_monotone(self, monkeypatch):
        # the value after t steps never decreases in t
        rng = np.random.default_rng(3)
        b = rng.standard_normal((12, 8))
        cov = restricted_covariance(b)
        hist = []
        for t in range(1, 41):
            monkeypatch.setattr(spectral, "MAX_ITER", t)
            hist.append(power_iteration(cov).value)
        assert all(b2 >= a2 - 1e-10 for a2, b2 in zip(hist, hist[1:]))
        assert hist[-1] > hist[0]

    def test_zero_operator_returns_e1(self):
        res = power_iteration(np.zeros((4, 4)))
        np.testing.assert_array_equal(res.vector, [1.0, 0.0, 0.0, 0.0])
        assert res.converged and res.value == 0.0

    @staticmethod
    def _rotated(values: np.ndarray) -> np.ndarray:
        # a seeded rotation of a given spectrum: no start is an eigenvector
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((values.size,) * 2))[0]
        return (q * values) @ q.T

    def test_nonconvergence_returns_last_iterate(self, monkeypatch):
        # 200 eigenvalues within 1e-4 of 1: 40 products are too few to reach
        # the 1e-9 residual (the default cap takes 52)
        a = self._rotated(1.0 - 1e-4 * np.linspace(0.0, 1.0, 200))
        monkeypatch.setattr(spectral, "MAX_ITER", 40)
        res = power_iteration(a)
        assert not res.converged
        assert res.iterations == 40  # MAX_ITER counts products
        v = res.vector
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert v[int(np.argmax(np.abs(v)))] >= 0.0
        assert res.step > 0

    def test_converges_past_a_full_basis(self):
        # 200 eigenvalues spread evenly over [0, 1] take 89 products, more
        # than LANCZOS_BASIS: the solve goes on from the Ritz vector
        a = self._rotated(np.linspace(0.0, 1.0, 200))
        res = power_iteration(a)
        assert res.converged and LANCZOS_BASIS < res.iterations < MAX_ITER
        values, vectors = np.linalg.eigh(a)
        assert abs(res.value - values[-1]) <= 1e-12
        assert abs(float(res.vector @ vectors[:, -1])) >= 1.0 - 1e-12

    # products the plain power loop took on the fixture below before the
    # solver became Lanczos (242 and 136), and Lanczos takes 36 and 24
    @pytest.mark.parametrize("dtype, power_steps", [(np.float64, 242), (np.float32, 136)])
    def test_spiked_covariance_top_k_set_matches_eigh(self, dtype, power_steps):
        # a 10-sparse spike in 600 columns seen by 300 rows (n < m), where the
        # top two eigenvalues are within 7%: the top-k set lspca reads off the
        # vector is dense eigh's, in half the products or fewer
        rng = np.random.default_rng(3)
        m, n, k = 600, 300, 10
        u = np.zeros(m)
        u[:k] = 1.0 / np.sqrt(k)
        rows = rng.standard_normal((n, m)) + np.sqrt(2.0) * np.outer(rng.standard_normal(n), u)
        rows = rows.astype(dtype)
        vectors = np.linalg.eigh(restricted_covariance(rows).matrix())[1]
        res = power_iteration(restricted_covariance(rows))
        assert res.converged and res.iterations < power_steps / 2
        assert set(top_k_indices(np.abs(res.vector), k)) == set(
            top_k_indices(np.abs(vectors[:, -1]), k))

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
        assert res.converged and res.iterations < MAX_ITER
        want = np.linalg.eigh(restricted_covariance(rows).matrix())[0][-1]
        assert abs(res.value - want) <= 1e-5 * want

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            power_iteration(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stops_at_the_first_non_finite_product(self):
        # a symmetric inf entry: the first product's norm is inf, and the
        # solve stops there, unconverged on a nan value, before the
        # tridiagonal eigh (which raised numpy's LinAlgError on it)
        a = np.eye(4)
        a[0, 2] = a[2, 0] = np.inf
        with np.errstate(invalid="ignore"):
            res = power_iteration(a)
        assert res.iterations == 1 and not res.converged
        assert math.isnan(res.value)
        np.testing.assert_array_equal(res.vector, [1.0, 0.0, 0.0, 0.0])

    def test_symmetry_check_holds_no_full_size_temporary(self):
        # a - a.T in one piece would take the matrix's size twice over
        x = np.random.default_rng(3).standard_normal((2000, 2000))
        a = x + x.T
        tracemalloc.start()
        try:
            assert spectral._psd_operator(a) is a
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 2
        a[1999, 3] += 1.0  # an asymmetry in the last row slab
        with pytest.raises(ContractError, match="not symmetric"):
            spectral._psd_operator(a)


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

    def test_rayleigh_monotone(self, monkeypatch):
        # the value after t steps never decreases in t
        rng = np.random.default_rng(11)
        b = rng.standard_normal((40, 10))
        cov = restricted_covariance(b)
        hist = []
        for t in range(1, 41):
            monkeypatch.setattr(spectral, "MAX_ITER", t)
            hist.append(truncated_power(cov, 3).value)
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

    def test_stops_at_the_first_non_finite_product(self):
        # float32 rows near 1e25: X' (X v) overflows float32 in the first
        # product, while the float64 diagonal stays finite
        rows = np.random.default_rng(2).standard_normal((50, 10)).astype(np.float32) * 1e25
        with np.errstate(over="ignore", invalid="ignore"):
            res = truncated_power(restricted_covariance(rows), 3)
        assert res.iterations == 1 and not res.converged
        assert not math.isfinite(res.value)

    def test_bad_k(self):
        with pytest.raises(ContractError):
            truncated_power(np.eye(3), 0)
        with pytest.raises(ContractError):
            truncated_power(np.eye(3), 4)


class TestTopKIndices:
    def test_ties_take_lowest_index(self):
        assert list(top_k_indices(np.array([1.0, 2.0, 2.0, 1.0]), 2)) == [1, 2]
        assert list(top_k_indices(np.zeros(5), 3)) == [0, 1, 2]
