"""Estimators read a trial's labeled and unlabeled rows in place.

principal_direction takes a list of row blocks read as if stacked, and
vanilla_pca and ul_diag_threshold_pca read a Dataset's two blocks that
way. On the covariance side the answers must be bit-identical to the same
call on the stacked rows; on the Gram side the blocked and stacked calls
form the Gram matrix from different products, so each must match the eigh
oracle and both must give the same supports. No
method may allocate anything near the size of the draw: a trial's peak is
its draw plus one solver's working set. The labeled statistics gather and
cast their rows a column slab at a time and must give the bits of the
whole-row formulas.
"""

import tracemalloc

import numpy as np
import pytest

from sslgauss import estimators, spectral
from conftest import unlabeled_only
from sslgauss.estimators import METHODS, self_train, ul_diag_threshold_pca, vanilla_pca
from sslgauss.gmodel import Dataset, ProblemParams, k_from_alpha, make_sparse_mean, sample_dataset
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


def _two_blocks(labeled, unlabeled) -> Dataset:
    """A dataset of the two blocks, its labels all +1 (the methods here drop them)."""
    return Dataset(labeled, np.ones(len(labeled), np.int8), unlabeled)


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

    got = principal_direction([labeled, unlabeled])
    want = principal_direction([stacked])
    if gram:
        _assert_matches_eigh(got, stacked)
        _assert_matches_eigh(want, stacked)
    else:
        assert np.array_equal(got.vector, want.vector)
        assert got.value == want.value
        assert got.converged and got.iterations == want.iterations

    for estimator in (vanilla_pca, ul_diag_threshold_pca):
        got = estimator(_two_blocks(labeled, unlabeled), 3)
        want = estimator(unlabeled_only(stacked), 3)
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
        got = principal_direction([labeled, unlabeled])
        want = principal_direction([stacked])
        _assert_matches_eigh(got, stacked)
        _assert_matches_eigh(want, stacked)
        assert set(top_k_indices(np.abs(got.vector), 3)) \
            == set(top_k_indices(np.abs(want.vector), 3))


def test_self_train_column_blocks_match_whole_rows():
    # the pseudo-label sum over 5 column tiles (1092 columns of the 120
    # float64 rows fill a tile's 1 MiB), drawn and dropped, against the
    # whole-row product
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


def _draw(dtype, p=16000, L=100, n=500):
    """A draw (by default p = 16000, L = 100, n = 500), its unlabeled rows
    not yet drawn."""
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


def _peak_share(method, dtype, **sizes) -> float:
    """The peak over one METHODS call on a draw whose blocks are already
    drawn, as a share of the draw's bytes."""
    ds, pp = _draw(dtype, **sizes)
    ds.labeled_x, ds.unlabeled_x  # both blocks are drawn on first read: draw them here
    peak, _ = _peak(method, ds, pp)
    return peak / (ds.labeled_x.nbytes + ds.unlabeled_x.nbytes)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_peak_memory_below_half_the_draw(method):
    # The draw is 600 x 16000 float64, 76.8 MB. The largest working sets are
    # ul_diag_threshold_pca's (about 0.12 of the draw: its 465 kept columns
    # copied out and stacked, each 2.2 MB, and their 1.7 MB covariance) and
    # lspca's screened block (about 0.07); the Gram matrix is 2.9 MB (0.04).
    # A stacked copy of the rows alone is 1.0 and a copy of the confident
    # unlabeled rows about 0.6.
    share = _peak_share(method, np.float64)
    assert share < 0.5, f"{method}: peak {share:.2f} of the draw"


@pytest.mark.parametrize("method, dtype", [("ul_diag_threshold_pca", np.float64),
                                           ("top_k_labeled", np.float32)])
def test_screens_hold_no_slab_of_the_draw(method, dtype):
    # The variance screen holds a float64 slab of a few whole rows of one
    # block, no larger than 500 x 256 (1 MB); a 2048-column slab of the
    # stacked rows was 0.26 of the draw. The float32 signed sum adds the
    # labeled rows one at a time into two float64 class sums (0.26 MB, 0.01
    # of the 38.4 MB draw); a float64 copy of the rows was 0.35.
    share = _peak_share(method, dtype)
    assert share < 0.15, f"{method}: peak {share:.2f} of the draw"


# A Gram-side draw with many rows: 2000 rows < p = 2600, so vanilla_pca's Gram
# matrix (32 MB) is near the float64 draw's 41.6 MB
GRAM_SIDE = {"p": 2600, "L": 100, "n": 1900}


@pytest.mark.parametrize("dtype, bound", [(np.float64, 0.3), (np.float32, 0.5)],
                         ids=["f64", "f32"])
def test_variance_screen_reads_the_rows_in_place(dtype, bound):
    # The screen holds a 187 x 2600 float64 slab (3.9 MB, 0.09 of the float64
    # draw) and then the 181 kept columns, copied and stacked (2.9 MB each);
    # stacking 2048-column slabs of the rows and np.var's deviations took
    # 1.6 (float64) and 2.4 (float32) of the draw.
    share = _peak_share("ul_diag_threshold_pca", dtype, **GRAM_SIDE)
    assert share < bound, f"peak {share:.2f} of the draw"


def test_gram_side_holds_the_gram_matrix_and_slabs():
    # Float64 rows: the block products are written into the Gram matrix and
    # it is centered NARROW_SLAB rows at a time, so the peak is the matrix
    # plus slabs of 256 x 2000 (0.13 of it) and the Lanczos basis; a product
    # temporary and a whole-matrix centering temporary made it 2.0.
    ds, pp = _draw(np.float64, **GRAM_SIDE)
    ds.unlabeled_x
    peak, out = _peak("vanilla_pca", ds, pp)
    gram = (ds.L + ds.n) ** 2 * 8
    assert out.aux["dual_gram"]
    assert peak < 1.5 * gram, f"peak {peak / gram:.2f} of the Gram matrix"


def test_variance_screen_is_two_pass(monkeypatch):
    # A column with mean 1e8 and unit spread: E[x^2] - mean^2 cancels there
    # (x^2 ~ 1e16 carries an absolute rounding error near 1), the two-pass
    # form matches np.var, on row blocks and on stacked rows
    rows = np.random.default_rng(7).standard_normal((300, 40))
    rows[:, 5] += 1e8
    seen = []

    def spy(values, k):
        seen.append(np.array(values))
        return top_k_indices(values, k)

    monkeypatch.setattr(estimators, "top_k_indices", spy)
    for given in (unlabeled_only(rows), _two_blocks(rows[:120], rows[120:])):
        seen.clear()
        ul_diag_threshold_pca(given, 3)
        np.testing.assert_allclose(seen[0], np.var(rows, axis=0), rtol=1e-9, atol=0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("L, n, p", [(40, 200, 400), (3, 7, 1000)])
def test_variance_screen_equals_the_column_slab_sums(monkeypatch, dtype, L, n, p):
    # The squared deviations are added up a few whole rows at a time, in row
    # order; they must give the bits of summing each NARROW_SLAB-column slab
    # of a block down its rows (25 and 128 rows at a time here, and 1 at
    # p = 1000, where a row is wider than NARROW_SLAB columns' worth)
    rng = np.random.default_rng(5)
    blocks = [(rng.standard_normal((rows, p)) + 50.0).astype(dtype) for rows in (L, n)]
    mean = sum(b.sum(axis=0, dtype=np.float64) for b in blocks) / (L + n)
    squares = np.zeros(p)
    for b in blocks:
        for lo in range(0, p, spectral.NARROW_SLAB):
            cols = slice(lo, lo + spectral.NARROW_SLAB)
            squares[cols] += np.square(b[:, cols] - mean[cols]).sum(axis=0)
    seen = []

    def spy(values, k):
        seen.append(np.array(values))
        return top_k_indices(values, k)

    monkeypatch.setattr(estimators, "top_k_indices", spy)
    ul_diag_threshold_pca(_two_blocks(*blocks), 3)
    assert np.array_equal(seen[0], squares / (L + n))


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_labeled_statistics_equal_the_whole_row_formulas(dtype):
    # each class's rows are added in row order into float64 sums: the mean
    # difference keeps the bits of numpy's per-class means, and the signed
    # sum is pos - neg, within a few ulps of the BLAS product y @ x
    p, L = 2 * COLUMN_BLOCK + 300, 157
    pp = ProblemParams(p=p, k=20, lam=3.0, L=L, n=0, seed=8)
    ds = sample_dataset(make_sparse_mean(pp, seed=8), L, 0, seed=9, dtype=dtype)
    xs, ys = ds.labeled_x, ds.labeled_y
    want = xs[ys == 1].mean(axis=0, dtype=np.float64) - xs[ys == -1].mean(axis=0, dtype=np.float64)
    w, _ = estimators._mean_difference(ds)
    assert np.array_equal(w, want)
    total, _, _ = estimators._signed_sum(ds)
    sums = [xs[ys == y].sum(axis=0, dtype=np.float64) for y in (1, -1)]
    assert np.array_equal(total, sums[0] - sums[1])
    np.testing.assert_allclose(total, ys.astype(np.float64) @ xs.astype(np.float64),
                               rtol=0, atol=1e-12)


def test_self_train_float32_reads_no_whole_block():
    # On a float32 draw (38.4 MB) a float64 copy of the unlabeled rows is
    # 1.67 of the draw. The scores read the pilot's k columns and the
    # pseudo-label sum reduces views of the drawn block one tile (436
    # columns, 1 MiB of the block) at a time, which einsum casts through
    # its own small buffers, so the
    # peak is about 0.06; casting 500 x 2048 slabs for a product peaked at
    # 0.23.
    share = _peak_share("self_train", np.float32)
    assert share < 0.3, f"self_train: peak {share:.2f} of the float32 draw"


@pytest.mark.parametrize("sizes, bound", [({}, 0.45), (GRAM_SIDE, 3.6)],
                         ids=["p16000", "gram_side"])
def test_vanilla_pca_float32_holds_one_slab_at_a_time(sizes, bound):
    # Float32 rows are cast one COLUMN_BLOCK slab at a time on the Gram
    # side, and each slab is released before the next is cast. At p = 16000
    # a slab of the 600 rows is 9.8 MB (0.26 of the draw) and the Gram
    # matrix 2.9 MB, a peak of about 0.39; holding two slabs made it 0.59.
    # On GRAM_SIDE (20.8 MB) the peak is the 32 MB Gram matrix, the 552-
    # column last slab and its 1900 x 1900 block product, about 3.36; two
    # slabs at once made it 3.54, and a cast buffer that outlived the Gram
    # loop about 4.5.
    share = _peak_share("vanilla_pca", np.float32, **sizes)
    assert share < bound, f"vanilla_pca: peak {share:.2f} of the float32 draw"


@pytest.mark.parametrize("method", ["lspca", "ls2pca"])
def test_lspca_on_a_fresh_draw_holds_only_its_screened_columns(method):
    # On a fresh draw lspca draws its screened columns (n x 1118 float64,
    # 4.5 MB) and the k-column refit, and centers the screened block in
    # place. Each tile of a draw, 262 columns of the 500 rows, passes
    # through one (262, n) buffer per thread (1 MiB), one thread per tile
    # at most. The bound is
    # the screened block plus the labeled block (17.3 MB); the whole
    # unlabeled block alone is 64 MB, and it must never be drawn.
    ds, pp = _draw(np.float64)
    peak, out = _peak(method, ds, pp)
    screened = ds.n * out.aux["screening_size"] * 8
    assert peak < screened + ds.labeled_x.nbytes, \
        f"{method}: peak {peak / 1e6:.1f} MB, screened block {screened / 1e6:.1f} MB"
    assert ds._unlabeled.block is None
