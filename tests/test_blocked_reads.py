"""Estimators read a trial's labeled and unlabeled rows in place.

principal_direction, vanilla_pca and ul_diag_threshold_pca take a sequence of
row blocks read as if stacked, a column slab at a time; the answers must be
bit-identical to the same call on the stacked rows, and no method may
allocate anything near the size of the draw.
"""

import tracemalloc

import numpy as np
import pytest

from sslgauss import spectral
from sslgauss.estimators import (METHODS, MethodOptions, self_train,
                                 ul_diag_threshold_pca, vanilla_pca)
from sslgauss.gmodel import ProblemParams, k_from_alpha, make_sparse_mean, sample_dataset
from sslgauss.spectral import COLUMN_BLOCK, principal_direction

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


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("split", sorted(SPLITS))
def test_row_blocks_equal_stacked_rows(split, dtype, monkeypatch):
    # 16-column slabs: p = 50 spans four, the last one 2 wide
    monkeypatch.setattr(spectral, "COLUMN_BLOCK", 16)
    labeled, unlabeled = _blocks(split, dtype)
    stacked = np.vstack([labeled, unlabeled])

    v, value, dual_gram = principal_direction((labeled, unlabeled))
    want_v, want_value, want_dual = principal_direction(stacked)
    assert np.array_equal(v, want_v)
    assert value == want_value
    assert dual_gram == want_dual == split.startswith("gram")

    for estimator in (vanilla_pca, ul_diag_threshold_pca):
        got = estimator((labeled, unlabeled), 3)
        want = estimator(stacked, 3)
        assert np.array_equal(got.support, want.support)
        assert np.array_equal(got.direction, want.direction)
        assert got.aux == want.aux


def test_row_blocks_equal_stacked_rows_at_default_width():
    # p spans three slabs of the default width on the Gram side
    p = 2 * COLUMN_BLOCK + 300
    labeled, unlabeled = _blocks("gram", np.float64, p=p, seed=1)
    v, value, dual_gram = principal_direction((labeled, unlabeled))
    want_v, want_value, _ = principal_direction(np.vstack([labeled, unlabeled]))
    assert dual_gram
    assert np.array_equal(v, want_v)
    assert value == want_value


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


@pytest.fixture(scope="module")
def wide_draw():
    p, L, n = 16000, 100, 500
    pp = ProblemParams(p=p, k=k_from_alpha(p, 0.4), lam=3.0, L=L, n=n, seed=5)
    ds = sample_dataset(make_sparse_mean(pp, seed=5), L, n, seed=6)
    return pp, ds


@pytest.mark.parametrize("method", sorted(METHODS))
def test_peak_memory_below_half_the_draw(method, wide_draw):
    # The draw is 600 x 16000 float64, 76.8 MB. A column-blocked read holds
    # a slab of the stacked rows and its centered copy, each 600 x
    # COLUMN_BLOCK float64 (9.8 MB at 2048 columns, 0.13 of the draw), plus
    # n x n arrays of 2.9 MB (0.04) each: the Gram matrix, its product
    # temporary and eigh's eigenvectors. That is about 0.4 of the draw at
    # most; a stacked copy of the rows alone is 1.0 and a copy of the
    # confident unlabeled rows about 0.6.
    pp, ds = wide_draw
    draw_bytes = ds.labeled_x.nbytes + ds.unlabeled_x.nbytes
    tracemalloc.start()
    try:
        METHODS[method](ds, pp, MethodOptions())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * draw_bytes, f"{method}: peak {peak / draw_bytes:.2f} of the draw"
