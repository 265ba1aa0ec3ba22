import itertools
import math

import numpy as np
import pytest

from conftest import dense_mean
from sslgauss import estimators, spectral
from sslgauss.errors import (ContractError, ConvergenceError, InsufficientSamplesError,
                             MissingClassError, ScreeningTooSmallError)
from sslgauss.estimators import (METHODS, lspca, resolve_beta_tilde, screened_count, self_train,
                                 top_k_labeled, ul_diag_threshold_pca, vanilla_pca)
from sslgauss.gmodel import Dataset, ProblemParams, SparseMean, make_sparse_mean, sample_dataset
from sslgauss.harness import config_from_dict, trial_ground_truth
from sslgauss.metrics import support_overlap
from sslgauss.spectral import canonical_sign, top_k_indices
from test_acceptance import BLUE_L, BLUE_N, _blue_config
from test_golden import CONFIGS


def make_instance(p, k, lam, L, n, seed=0, mean_seed=None):
    pp = ProblemParams(p=p, k=k, lam=lam, L=L, n=n, seed=seed)
    mu = make_sparse_mean(pp, seed=mean_seed if mean_seed is not None else seed)
    ds = sample_dataset(mu, L, n, seed=seed + 1)
    return pp, mu, ds


def _overflowing_draw() -> Dataset:
    """A float32 draw at lambda = 1e50 whose screened-set products overflow."""
    pp = ProblemParams(p=200, k=5, lam=1e50, L=10, n=50, seed=0)
    return sample_dataset(make_sparse_mean(pp, seed=0), 10, 50, seed=1, dtype=np.float32)


def _sample_covariance_top(rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Oracle: the centered 1/n sample covariance and its top eigenvalue by eigh."""
    y = rows - rows.mean(axis=0)
    cov = (y.T @ y) / rows.shape[0]
    return cov, float(np.linalg.eigh(cov)[0][-1])


def brute_force_mle_support(w: np.ndarray, k: int, lam: float) -> set[int]:
    """Oracle: maximize <w, mu'> over all (support, signs) candidate means."""
    p = w.size
    mag = math.sqrt(lam / k)
    best, best_support = -np.inf, None
    for support in itertools.combinations(range(p), k):
        for signs in itertools.product((-1.0, 1.0), repeat=k):
            val = mag * sum(s * w[j] for j, s in zip(support, signs))
            if val > best:
                best, best_support = val, set(support)
    return best_support


def labeled(xs, ys) -> Dataset:
    """A labeled-only dataset over plain arrays."""
    return Dataset(np.asarray(xs), np.asarray(ys), np.zeros((0, np.shape(xs)[1])))


def mean_difference(ds: Dataset) -> np.ndarray:
    return estimators._mean_difference(ds)[0]


def signed_mean(ds: Dataset) -> np.ndarray:
    return estimators._signed_sum(ds)[1]


class TestLabeledDirections:
    def test_two_sample_difference(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([0.5, -1.0, 4.0])
        w = mean_difference(labeled(np.vstack([a, b]), [1, -1]))
        np.testing.assert_allclose(w, a - b)

    def test_symmetric_class_means(self):
        m = np.array([2.0, -1.0, 0.0, 0.5])
        xs = np.vstack([m, m, -m, -m])
        ys = np.array([1, 1, -1, -1])
        np.testing.assert_allclose(mean_difference(labeled(xs, ys)), 2 * m)

    def test_missing_class(self):
        xs = np.ones((3, 2))
        with pytest.raises(MissingClassError):
            mean_difference(labeled(xs, [1, 1, 1]))

    def test_monte_carlo_concentration(self):
        # w approaches twice the mean at the expected 2/sqrt(L) noise scale
        p, L, lam = 50, 10 ** 4, 4.0
        _, mu, ds = make_instance(p, 5, lam, L, 0, seed=3)
        w = mean_difference(ds)
        assert np.linalg.norm(w - 2 * dense_mean(mu)) <= 5.0 * math.sqrt(4.0 * p / L)

    def test_signed_mean_single_sample(self):
        a = np.array([3.0, -1.0])
        np.testing.assert_allclose(signed_mean(labeled(a[None, :], [1])), a)

    def test_signed_mean_is_half_of_difference_when_balanced(self):
        rng = np.random.default_rng(5)
        ds = labeled(rng.standard_normal((8, 6)), [1, -1] * 4)
        np.testing.assert_allclose(signed_mean(ds), mean_difference(ds) / 2.0, rtol=1e-12)

    def test_signed_mean_concentration(self):
        p, L, lam = 50, 10 ** 4, 4.0
        _, mu, ds = make_instance(p, 5, lam, L, 0, seed=3)
        w = signed_mean(ds)
        assert np.linalg.norm(w - dense_mean(mu)) <= 5.0 * math.sqrt(p / L)


class TestTopKLabeled:
    def test_direct_sort(self):
        xs = np.array([[0.1, -0.5, 0.3]])
        ys = np.array([1])
        out = top_k_labeled(Dataset(xs, ys, np.zeros((0, 3))), 2)
        assert list(out.support) == [1, 2]
        np.testing.assert_allclose(np.linalg.norm(out.direction), 1.0)
        # direction keeps the signed-mean signs
        assert out.direction[1] < 0 < out.direction[2]

    def test_all_zero_tie_rule(self):
        out = top_k_labeled(Dataset(np.zeros((2, 5)), np.array([1, -1]), np.zeros((0, 5))), 3)
        assert list(out.support) == [0, 1, 2]
        np.testing.assert_allclose(np.linalg.norm(out.direction), 1.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_mle(self, seed):
        rng = np.random.default_rng(seed)
        p, k, lam, L = 8, 2, 1.0, 5
        pp = ProblemParams(p=p, k=k, lam=lam, L=L, n=0, seed=seed)
        mu = make_sparse_mean(pp, seed=seed)
        ds = sample_dataset(mu, L, 0, seed=seed + 100)
        w = signed_mean(ds)
        out = top_k_labeled(ds, k)
        assert set(out.support.tolist()) == brute_force_mle_support(w, k, lam)

    def test_label_flip_invariance(self):
        _, mu, ds = make_instance(20, 3, 2.0, 30, 0, seed=9)
        out = top_k_labeled(ds, 3)
        flipped = top_k_labeled(Dataset(ds.labeled_x, -ds.labeled_y, np.zeros((0, 20))), 3)
        assert np.array_equal(out.support, flipped.support)
        np.testing.assert_allclose(flipped.direction, -out.direction, rtol=1e-12)


class TestLspca:
    def test_screening_containment(self):
        pp, mu, ds = make_instance(60, 4, 3.0, 40, 60, seed=2)
        out = lspca(ds, 4, 0.5)
        w = mean_difference(labeled(ds.labeled_x, ds.labeled_y))
        retained = screened_count(60, 0.5)
        screen = set(np.argsort(-np.abs(w), kind="stable")[:retained].tolist())
        assert set(out.support.tolist()) <= screen
        assert out.aux["screening_size"] == retained

    def test_disjoint_screen_means_zero_overlap(self):
        # labeled data concentrated off-support forces the screen off S
        p, k = 10, 2
        mu = SparseMean(p, (0, 1), (1, 1), math.sqrt(0.5))
        rng = np.random.default_rng(0)
        xs = np.zeros((4, p))
        xs[:, 8] = [5.0, 5.2, 4.8, 5.1]
        xs[:, 9] = [-6.0, -5.8, -6.1, -5.9]
        ys = np.array([1, 1, 1, -1])
        xs[3] = -xs[3]
        unlabeled = rng.standard_normal((50, p))
        ds = Dataset(labeled_x=xs, labeled_y=ys, unlabeled_x=unlabeled)
        out = lspca(ds, k, 0.69)  # retains 2 coords
        assert set(out.support.tolist()) == {8, 9}
        assert support_overlap(mu.support, out.support, k) == 0.0

    def test_sign_follows_labeled_direction(self):
        pp, mu, ds = make_instance(40, 3, 4.0, 200, 400, seed=4)
        out = lspca(ds, 3, 0.4)
        w = mean_difference(labeled(ds.labeled_x, ds.labeled_y))
        assert float(out.direction @ w) >= 0.0

    def test_blue_region_qualitative(self):
        # exponent point alpha=.4, beta=.45, gamma=1.8 at p=2000: the scheme
        # recovers most of the support and clearly beats its screening-free
        # competitors on the same data (finite-size ceiling keeps the mean
        # overlap near the screen's own retention, about 0.7 here)
        p, k, lam = 2000, 20, 3.0
        L = 45   # floor(2 * .45 * 20 * log(1980) / 3)
        n = 244  # floor(10 * 20**1.8 / 9)
        bt = 0.4075  # quarter-gap rule at (alpha, beta, gamma)
        overlaps, topk_overlaps = [], []
        for trial in range(20):
            pp, mu, ds = make_instance(p, k, lam, L, n, seed=1000 + trial)
            out = lspca(ds, k, bt)
            overlaps.append(support_overlap(mu.support, out.support, k))
            topk = top_k_labeled(ds, k)
            topk_overlaps.append(support_overlap(mu.support, topk.support, k))
        assert np.mean(overlaps) >= 0.6
        assert np.mean(overlaps) >= np.mean(topk_overlaps) + 0.15

    @pytest.mark.parametrize("sparse_pca", [False, True], ids=["lspca", "ls2pca"])
    @pytest.mark.parametrize("n", [8, 300], ids=["gram", "covariance"])
    def test_refit_is_exact_top_eigenvector_on_support(self, n, sparse_pca):
        # the refit direction is the top eigenvector of the unlabeled sample
        # covariance on the chosen support, signed by the labeled direction
        pp, mu, ds = make_instance(200, 12, 3.0, 80, n, seed=31)
        out = lspca(ds, 12, 0.3, sparse_pca=sparse_pca)
        cov, top = _sample_covariance_top(ds.unlabeled_x[:, out.support])
        u = np.linalg.eigh(cov)[1][:, -1]
        v = out.direction[out.support]
        assert abs(float(v @ u)) >= 1.0 - 1e-12
        assert abs(float(v @ cov @ v) - top) <= 1e-10 * top
        assert abs(out.aux["refit_eigenvalue"] - top) <= 1e-10 * top
        w = mean_difference(labeled(ds.labeled_x, ds.labeled_y))
        assert float(v @ w[out.support]) >= 0.0

    def test_sparse_pca_variant(self):
        pp, mu, ds = make_instance(400, 5, 3.0, 150, 500, seed=6)
        out = lspca(ds, 5, 0.35, sparse_pca=True)
        assert out.method == "ls2pca"
        assert support_overlap(mu.support, out.support, 5) >= 0.8

    def test_errors(self):
        pp, mu, ds = make_instance(30, 3, 2.0, 20, 30, seed=1)
        with pytest.raises(ScreeningTooSmallError):
            lspca(ds, 3, 0.95)
        with pytest.raises(ContractError):
            lspca(ds, 0, 0.5)
        for beta_tilde in (0.0, 1.0, math.nan):
            with pytest.raises(ContractError):
                lspca(ds, 3, beta_tilde)
        xs = ds.labeled_x[ds.labeled_y == 1]
        one_class = Dataset(labeled_x=xs, labeled_y=np.ones(len(xs), dtype=np.int8),
                            unlabeled_x=ds.unlabeled_x)
        with pytest.raises(MissingClassError):
            lspca(one_class, 3, 0.5)
        starved = Dataset(labeled_x=ds.labeled_x, labeled_y=ds.labeled_y,
                          unlabeled_x=ds.unlabeled_x[:1])
        with pytest.raises(InsufficientSamplesError):
            lspca(starved, 3, 0.5)

    def test_overflowed_sparse_solve_fails(self):
        # lambda = 1e50 in float32: entries near 4.5e24, so the screened
        # covariance's float32 products overflow; ls2pca's solve ended on a
        # nan eigenvalue and its row counted as a success
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConvergenceError, match="screened-set solve is not finite"):
            lspca(_overflowing_draw(), 5, 0.5, sparse_pca=True)

    def test_overflowed_lanczos_solve_fails(self):
        # the same draw through lspca's Lanczos solve: it stops at the first
        # overflowed product rather than ending in numpy's LinAlgError from
        # the tridiagonal eigh
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConvergenceError, match="screened-set solve is not finite"):
            lspca(_overflowing_draw(), 5, 0.5)


class TestSelfTrain:
    def test_huge_threshold_reduces_to_top_k(self):
        pp, mu, ds = make_instance(50, 4, 2.0, 30, 100, seed=7)
        out = self_train(ds, 4, gamma_threshold=1e9)
        topk = top_k_labeled(ds, 4)
        assert np.array_equal(out.support, topk.support)
        assert out.aux["n_eff"] == 0

    def test_zero_threshold_admits_everything(self):
        pp, mu, ds = make_instance(50, 4, 2.0, 30, 100, seed=8)
        out = self_train(ds, 4, gamma_threshold=0.0)
        assert out.aux["n_eff"] == 100

    def test_no_unlabeled_degrades_gracefully(self):
        pp, mu, ds = make_instance(50, 4, 2.0, 30, 0, seed=9)
        out = self_train(ds, 4, gamma_threshold=0.8)
        topk = top_k_labeled(ds, 4)
        assert np.array_equal(out.support, topk.support)

    def test_improves_over_labeled_only(self):
        # with few labels and many unlabeled points the refit support is
        # usually at least as accurate as the pilot's
        gains = []
        for trial in range(10):
            pp, mu, ds = make_instance(500, 10, 3.0, 40, 2000, seed=200 + trial)
            pilot = top_k_labeled(ds, 10)
            out = self_train(ds, 10, gamma_threshold=0.8)
            gains.append(support_overlap(mu.support, out.support, 10)
                         - support_overlap(mu.support, pilot.support, 10))
        assert np.mean(gains) >= 0.0


class TestUnsupervisedBaselines:
    def test_noiseless_spike_exact_recovery(self):
        mu = SparseMean(20, (2, 11, 17), (1, -1, 1), 1.0)
        dense = dense_mean(mu)
        rows = np.vstack([dense, -dense, dense, -dense])
        out = ul_diag_threshold_pca(rows, 3)
        assert set(out.support.tolist()) == {2, 11, 17}

    def test_overlap_with_ample_samples(self):
        # n = c k^2 / lambda^2 with c = 100
        overlaps = []
        for trial in range(20):
            pp, mu, ds = make_instance(500, 10, 3.0, 0, 1111, seed=300 + trial)
            out = ul_diag_threshold_pca(ds.unlabeled_x, 10)
            overlaps.append(support_overlap(mu.support, out.support, 10))
        assert np.mean(overlaps) >= 0.9

    def test_null_model_chance_overlap(self):
        overlaps = []
        for trial in range(10):
            pp, mu, ds = make_instance(500, 10, 0.0, 0, 1111, seed=400 + trial)
            out = ul_diag_threshold_pca(ds.unlabeled_x, 10)
            overlaps.append(support_overlap(mu.support, out.support, 10))
        assert np.mean(overlaps) <= 0.2

    def test_diag_threshold_exact_on_small_eigengap(self):
        # near-isotropic draw: the top two covariance eigenvalues are 0.25%
        # apart, and 1000 power steps stop 1e-5 (relative) short of the top
        # one; k = p keeps every coordinate, so the screen is the whole space
        rng = np.random.default_rng(26)
        rows = rng.standard_normal((100, 300))
        cov, top = _sample_covariance_top(rows)
        out = ul_diag_threshold_pca(rows, rows.shape[1])
        v = out.direction
        assert abs(float(v @ cov @ v) - top) <= 1e-10 * top
        assert abs(out.aux["pca_eigenvalue"] - top) <= 1e-10 * top

    def test_vanilla_two_dims(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        out = vanilla_pca(rows, 1)
        assert list(out.support) == [0]

    def test_vanilla_agrees_with_diag_threshold_when_separated(self):
        pp, mu, ds = make_instance(50, 3, 5.0, 0, 2000, seed=11)
        a = vanilla_pca(ds.unlabeled_x, 3)
        b = ul_diag_threshold_pca(ds.unlabeled_x, 3)
        assert set(a.support.tolist()) == set(b.support.tolist()) \
            == set(mu.support)

    def test_vanilla_gram_route_matches_direct(self):
        # n < p takes the Gram dual; its support and direction must be those
        # of the leading eigenvector of the p x p sample covariance
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((30, 60)) + 2.0 * np.outer(
            rng.choice([-1.0, 1.0], 30), np.eye(60)[4])
        dual = vanilla_pca(rows, 2)
        cov, _ = _sample_covariance_top(rows)
        u = canonical_sign(np.linalg.eigh(cov)[1][:, -1])
        support = np.sort(top_k_indices(np.abs(u), 2))
        want = np.zeros(60)
        want[support] = u[support] / np.linalg.norm(u[support])
        assert np.array_equal(dual.support, support)
        assert float(dual.direction @ want) >= 1.0 - 1e-8
        assert dual.aux["dual_gram"]

    def test_vanilla_gram_route_small_eigengap(self):
        # near-isotropic draw: the top two Gram eigenvalues (7.15, 6.88) are
        # too close for 1000 power steps; the Gram route must still return
        # the exact leading eigenvector of the sample covariance
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((100, 300))
        cov, top = _sample_covariance_top(rows)
        out = vanilla_pca(rows, rows.shape[1])  # k = p keeps every entry
        v = out.direction
        assert abs(float(v @ cov @ v) - top) <= 1e-10 * top
        assert out.aux["dual_gram"]
        assert abs(out.aux["pca_eigenvalue"] - top) <= 1e-10 * top

    @pytest.mark.parametrize("lam, n, seed", [(3.0, 100, 24), (0.0, 1000, 7)],
                             ids=["gram_n_lt_p", "covariance_null_n_ge_p"])
    def test_vanilla_exact_on_both_routes(self, lam, n, seed):
        # the direction's Rayleigh quotient is the top sample-covariance
        # eigenvalue, whichever side of the centered rows is decomposed; on
        # these draws 1000 power steps stop 1e-7 and 3e-7 (relative) short
        pp, mu, ds = make_instance(300, 5, lam, 0, n, seed=seed)
        cov, top = _sample_covariance_top(ds.unlabeled_x)
        out = vanilla_pca(ds.unlabeled_x, 300)  # k = p keeps every entry
        v = out.direction
        assert abs(float(v @ cov @ v) - top) <= 1e-10 * top
        assert out.aux["dual_gram"] == (n < 300)
        assert abs(out.aux["pca_eigenvalue"] - top) <= 1e-10 * top

    @pytest.mark.parametrize("case, trial", [("golden", 0), ("golden", 1),
                                             ("blue", 0), ("blue", 1), ("blue", 2)])
    def test_vanilla_gram_side_matches_centered_gram_eigh(self, case, trial):
        # the golden file's Gram-side vanilla_pca trials (L + n = 240 < p =
        # 400) and the blue fixture's (1602 < 20000): the Lanczos pair of the
        # rank-two-centered Gram matrix against eigh of the explicitly
        # centered one, formed a column slab at a time
        if case == "golden":
            config, (L, n) = CONFIGS["all_methods"], (40, 200)
        else:
            config, (L, n) = _blue_config(("vanilla_pca",)), (BLUE_L, BLUE_N)
        ds = trial_ground_truth(config, trial)[1].prefix(L, n)
        blocks = (ds.labeled_x, ds.unlabeled_x)
        k = config.params.k
        out = vanilla_pca(blocks, k)

        rows, p = L + n, blocks[0].shape[1]
        mean = sum(b.sum(axis=0) for b in blocks) / rows
        slabs = [slice(lo, lo + 2048) for lo in range(0, p, 2048)]
        gram = np.zeros((rows, rows))
        for cols in slabs:
            y = np.vstack([b[:, cols] for b in blocks]) - mean[cols]
            gram += y @ y.T
        values, vectors = np.linalg.eigh(gram / rows)
        v = np.empty(p)
        for cols in slabs:
            y = np.vstack([b[:, cols] for b in blocks]) - mean[cols]
            v[cols] = y.T @ vectors[:, -1]

        assert out.aux["dual_gram"] and out.aux["pca_converged"]
        assert abs(out.aux["pca_eigenvalue"] - values[-1]) <= 1e-9 * values[-1]
        assert set(out.support) == set(top_k_indices(np.abs(v), k))

    def test_vanilla_records_nonconvergence(self, monkeypatch):
        # 200 Gram eigenvalues within 1e-4 of 1: 40 Lanczos products cannot
        # reach the 1e-9 residual, and the output must say so
        n, p = 201, 250
        rng = np.random.default_rng(0)
        ones = np.full((n, 1), 1.0 / np.sqrt(n))
        u = np.linalg.qr(np.column_stack([ones, rng.standard_normal((n, n - 1))]))[0][:, 1:]
        w = np.linalg.qr(rng.standard_normal((p, n - 1)))[0]
        values = 1.0 - 1e-4 * np.linspace(0.0, 1.0, n - 1)
        rows = np.sqrt(n) * (u * np.sqrt(values)) @ w.T
        monkeypatch.setattr(spectral, "MAX_ITER", 40)
        out = vanilla_pca(rows, 5)
        assert out.aux["pca_converged"] is False
        assert out.aux["pca_iterations"] == 40

    def test_vanilla_underdetermined_is_uninformative(self):
        overlaps = []
        for trial in range(10):
            pp, mu, ds = make_instance(400, 4, 0.5, 0, 30, seed=500 + trial)
            out = vanilla_pca(ds.unlabeled_x, 4)
            overlaps.append(support_overlap(mu.support, out.support, 4))
        assert np.mean(overlaps) <= 0.25


class TestOutputContract:
    # at p = 200, k = 5; dim is the side of the matrix the last dense PCA
    # step solves, and Lanczos needs at most that many products. The
    # lspca/ls2pca refit solves 5 columns on the covariance side; ul_diag
    # keeps ceil(5 log 200) = 27 columns, on the Gram side at 20 rows;
    # vanilla_pca is on the Gram side below 200 rows
    @pytest.mark.parametrize("tag, L, n, dim", [
        ("lspca", 40, 400, 5), ("ls2pca", 40, 400, 5),
        ("ul_diag_threshold_pca", 10, 10, 20), ("ul_diag_threshold_pca", 40, 400, 27),
        ("vanilla_pca", 10, 100, 110), ("vanilla_pca", 40, 400, 200),
    ], ids=["lspca", "ls2pca", "ul_diag-gram", "ul_diag-covariance",
            "vanilla-gram", "vanilla-covariance"])
    def test_every_pca_step_records_its_solve(self, tag, L, n, dim):
        pp, mu, ds = make_instance(200, 5, 3.0, L, n, seed=8)
        out = METHODS[tag](ds, pp, 0.4, 0.8)
        assert out.aux["pca_converged"] is True and out.aux["pca_iterations"] > 0
        last = "pca"
        if tag in ("lspca", "ls2pca"):
            last = "refit"
            assert out.aux["refit_converged"] is True
        assert 0 < out.aux[f"{last}_iterations"] <= dim
        if tag == "vanilla_pca":
            assert out.aux["dual_gram"] == (dim < 200)

    @pytest.mark.parametrize("tag", sorted(METHODS))
    def test_every_method_contract(self, tag):
        pp, mu, ds = make_instance(80, 5, 3.0, 60, 200, seed=21)
        out = METHODS[tag](ds, pp, 0.4, 0.8)
        assert out.support.size == pp.k
        assert np.all(np.diff(out.support) > 0)
        assert abs(np.linalg.norm(out.direction) - 1.0) <= 1e-12
        nz = set(np.nonzero(out.direction)[0].tolist())
        assert nz <= set(out.support.tolist())

    @pytest.mark.parametrize("tag", sorted(METHODS))
    def test_permutation_equivariance(self, tag):
        pp, mu, ds = make_instance(40, 4, 3.0, 30, 120, seed=22)
        rng = np.random.default_rng(99)
        perm = rng.permutation(40)  # column j of permuted data = old perm[j]
        ds_perm = Dataset(labeled_x=ds.labeled_x[:, perm],
                          labeled_y=ds.labeled_y,
                          unlabeled_x=ds.unlabeled_x[:, perm])
        out = METHODS[tag](ds, pp, 0.4, 0.8)
        out_perm = METHODS[tag](ds_perm, pp, 0.4, 0.8)
        inv = np.empty(40, dtype=np.int64)
        inv[perm] = np.arange(40)
        assert set(out_perm.support.tolist()) == set(inv[out.support].tolist())
        np.testing.assert_allclose(out_perm.direction, out.direction[perm],
                                   rtol=1e-9, atol=1e-12)


class TestBetaTildeResolution:
    def test_explicit_passthrough(self):
        pp = ProblemParams(p=100, k=5, lam=2.0, L=10, n=10, seed=0)
        assert resolve_beta_tilde(pp, 0.3) == 0.3
        with pytest.raises(ContractError):
            resolve_beta_tilde(pp, 1.5)

    def test_auto_quarter_gap(self):
        pp = config_from_dict({"p": 20000, "alpha": 0.4, "beta": 0.45,
                               "gamma": 1.8, "lambda": 3.0}).params
        a, b, g = pp.alpha, pp.beta, pp.gamma
        want = b - (b - (1 - g * a)) / 4.0
        assert abs(resolve_beta_tilde(pp, "auto") - want) < 1e-12

    def test_auto_fallback_when_exponents_undefined(self):
        pp = ProblemParams(p=1000, k=10, lam=0.0, L=20, n=30, seed=0)
        value = resolve_beta_tilde(pp, "auto")
        assert 0.0 < value < 1.0

    def test_auto_clamped_to_keep_k(self):
        # gamma huge makes the raw rule negative; the clamp keeps it usable
        pp = ProblemParams(p=1000, k=10, lam=1.0, L=5, n=10 ** 6, seed=0)
        value = resolve_beta_tilde(pp, "auto")
        assert 0.0 < value < 1.0
        assert screened_count(1000, value) >= 10
