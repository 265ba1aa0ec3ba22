"""Estimators read a trial's labeled and unlabeled rows in place.

principal_direction, vanilla_pca and ul_diag_threshold_pca take a sequence of
row blocks read as if stacked. On the covariance side the answers must be
bit-identical to the same call on the stacked rows; on the Gram side the
blocked and stacked calls form the Gram matrix from different products, so
each must match the eigh oracle and both must give the same supports. No
method may allocate anything near the size of the draw.
"""

import tracemalloc

import numpy as np
import pytest

from sslgauss import spectral
from sslgauss.estimators import METHODS, self_train, ul_diag_threshold_pca, vanilla_pca
from sslgauss.gmodel import ProblemParams, k_from_alpha, make_sparse_mean, sample_dataset
from sslgauss.spectral import COLUMN_BLOCK, principal_direction, top_k_indices

# (labeled rows, unlabeled rows): the Gram side (32 rows < p = 50), the
# covariance side (80 rows >= p) and either block empty
SPLITS = {
    "gram": (7, 25),
    "covariance": (20, 60),
    "gram_no_labeled": (0, 32),
    "gram_no_unlabeled": (32, 0),
    "covariance_no_labeled": (0, 80),
    "covariance_no_unlabeled": (80, 0),
}


def _blocks(split, dtype, p=50, seed=0):
    L, n = SPLITS[split]
    rng = np.random.default_rng(seed)
    spike = 2.0 * np.outer(rng.choice([-1.0, 1.0], L + n), np.eye(p)[3])
    rows = (rng.standard_normal((L + n, p)) + spike).astype(dtype)
    return rows[:L], rows[L:]


def _assert_matches_eigh(result, stacked):
    """The Gram side's pair against eigh of the explicitly centered Gram
    matrix, mapped back: eigenvalue to 1e-12 relative, 1 - |cos| <= 1e-12."""
    y = stacked.astype(np.float64)
    y -= y.mean(axis=0)
    values, vectors = np.linalg.eigh((y @ y.T) / len(y))
    want = y.T @ vectors[:, -1]
    want /= np.linalg.norm(want)
    assert result.converged
    assert abs(result.value - values[-1]) <= 1e-12 * values[-1]
    assert 1.0 - abs(float(result.vector @ want)) <= 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("split", sorted(SPLITS))
def test_row_blocks_equal_stacked_rows(split, dtype, monkeypatch):
    # 16-column slabs: p = 50 spans four, the last one 2 wide
    monkeypatch.setattr(spectral, "COLUMN_BLOCK", 16)
    labeled, unlabeled = _blocks(split, dtype)
    stacked = np.vstack([labeled, unlabeled])
    gram = split.startswith("gram")

    got = principal_direction((labeled, unlabeled))
    want = principal_direction(stacked)
    if gram:
        _assert_matches_eigh(got, stacked)
        _assert_matches_eigh(want, stacked)
    else:
        assert np.array_equal(got.vector, want.vector)
        assert got.value == want.value
        assert got.converged and got.iterations == want.iterations

    for estimator in (vanilla_pca, ul_diag_threshold_pca):
        got = estimator((labeled, unlabeled), 3)
        want = estimator(stacked, 3)
        assert np.array_equal(got.support, want.support)
        # ul_diag's ceil(3 log 50) = 12 kept columns are on the covariance side
        if not gram or estimator is ul_diag_threshold_pca:
            assert np.array_equal(got.direction, want.direction)
            assert got.aux == want.aux


def test_row_blocks_equal_stacked_rows_at_default_width():
    # p spans three slabs of the default width on the Gram side: float32
    # rows are cast one slab at a time, float64 rows are read whole
    p = 2 * COLUMN_BLOCK + 300
    for dtype in (np.float64, np.float32):
        labeled, unlabeled = _blocks("gram", dtype, p=p, seed=1)
        stacked = np.vstack([labeled, unlabeled])
        got = principal_direction((labeled, unlabeled))
        want = principal_direction(stacked)
        _assert_matches_eigh(got, stacked)
        _assert_matches_eigh(want, stacked)
        assert set(top_k_indices(np.abs(got.vector), 3)) \
            == set(top_k_indices(np.abs(want.vector), 3))


def test_self_train_column_blocks_match_whole_rows():
    # the pseudo-label sum over three slabs against the whole-row product
    p, k, threshold = 2 * COLUMN_BLOCK + 300, 5, 0.8
    pp = ProblemParams(p=p, k=k, lam=3.0, L=40, n=120, seed=3)
    ds = sample_dataset(make_sparse_mean(pp, seed=3), 40, 120, seed=4)
    out = self_train(ds, k, gamma_threshold=threshold)

    ys = ds.labeled_y.astype(np.float64)
    w = (ys @ ds.labeled_x) / 40
    top = np.argsort(-np.abs(w), kind="stable")[:k]
    pilot = np.zeros(p)
    pilot[top] = w[top]
    scores = ds.unlabeled_x @ pilot
    confident = np.abs(scores) > threshold
    w_self = (ys @ ds.labeled_x + np.sign(scores[confident]) @ ds.unlabeled_x[confident]) \
        / (40 + confident.sum())
    support = np.sort(np.argsort(-np.abs(w_self), kind="stable")[:k])
    assert 0 < out.aux["n_eff"] == confident.sum()
    assert np.array_equal(out.support, support)
    np.testing.assert_allclose(out.direction[support],
                               w_self[support] / np.linalg.norm(w_self[support]),
                               rtol=1e-12)


def _draw(dtype):
    """A p = 16000, L = 100, n = 500 draw, its unlabeled rows not yet drawn."""
    p, L, n = 16000, 100, 500
    pp = ProblemParams(p=p, k=k_from_alpha(p, 0.4), lam=3.0, L=L, n=n, seed=5)
    return sample_dataset(make_sparse_mean(pp, seed=5), L, n, seed=6, dtype=dtype), pp


def _peak(method, ds, pp):
    """tracemalloc's peak over one METHODS call, and the call's output."""
    tracemalloc.start()
    try:
        out = METHODS[method](ds, pp, "auto", 0.8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, out


def _peak_share(method, dtype) -> float:
    """The peak over one METHODS call on a draw whose unlabeled block is
    already drawn, as a share of the draw's bytes."""
    ds, pp = _draw(dtype)
    ds.unlabeled_x  # the unlabeled rows are drawn on first read: draw them here
    peak, _ = _peak(method, ds, pp)
    return peak / (ds.labeled_x.nbytes + ds.unlabeled_x.nbytes)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_peak_memory_below_half_the_draw(method):
    # The draw is 600 x 16000 float64, 76.8 MB. A column-blocked read holds
    # a slab of the stacked rows and its centered copy, each 600 x
    # COLUMN_BLOCK float64 (9.8 MB at 2048 columns, 0.13 of the draw), plus
    # n x n arrays of 2.9 MB (0.04) each: the Gram matrix, its product
    # temporary and eigh's eigenvectors. That is about 0.4 of the draw at
    # most; a stacked copy of the rows alone is 1.0 and a copy of the
    # confident unlabeled rows about 0.6.
    share = _peak_share(method, np.float64)
    assert share < 0.5, f"{method}: peak {share:.2f} of the draw"


def test_self_train_float32_reads_no_whole_block():
    # On a float32 draw (38.4 MB) a float64 copy of the unlabeled rows is
    # 1.67 of the draw. The scores read the pilot's k columns and the
    # pseudo-label sum casts one slab at a time, so the peak stays near the
    # float64 labeled cast and a slab (about 0.6); the bound is below one
    # such copy. Float32 slabs cost other methods more (vanilla_pca: 0.72).
    share = _peak_share("self_train", np.float32)
    assert share < 1.0, f"self_train: peak {share:.2f} of the float32 draw"


@pytest.mark.parametrize("method", ["lspca", "ls2pca"])
def test_lspca_on_a_fresh_draw_holds_only_its_screened_columns(method):
    # On a fresh draw lspca draws its screened columns (n x 1118 float64,
    # 4.5 MB) and the k-column refit, and centers the screened block in
    # place. Each 256-column tile of a draw passes through one (256, n)
    # buffer per thread (1 MB), one thread per tile at most. The bound is
    # the screened block plus the labeled block (17.3 MB); the whole
    # unlabeled block alone is 64 MB, and it must never be drawn.
    ds, pp = _draw(np.float64)
    peak, out = _peak(method, ds, pp)
    screened = ds.n * out.aux["screening_size"] * 8
    assert peak < screened + ds.labeled_x.nbytes, \
        f"{method}: peak {peak / 1e6:.1f} MB, screened block {screened / 1e6:.1f} MB"
    assert ds._unlabeled.block is None
