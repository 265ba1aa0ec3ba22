"""Column-keyed unlabeled draws.

Every read of an unlabeled column gives the same bits: drawn alone or with
the whole block, in any order, at any row prefix and on any number of
threads. A trial draws the whole block only when a reader takes every
column; lspca and ls2pca read only their screened columns.
"""

import numpy as np
import pytest

from sslgauss import gmodel, harness
from sslgauss.gmodel import (STREAM_UNLABELED_NOISE, STREAM_UNLABELED_Y, ProblemParams,
                             UnlabeledSource, make_sparse_mean, sample_dataset)
from sslgauss.harness import ExperimentConfig, run_sweep, run_trial
from sslgauss.rng import generator, mix64

P = 700  # three column tiles


def draw(dtype, L=5, n=90, seed=3):
    mu = make_sparse_mean(ProblemParams(p=P, k=6, lam=3.0, L=L, n=n), seed=seed)
    return mu, sample_dataset(mu, L, n, seed=seed + 1, dtype=dtype)


def columns_to_read(mu):
    """The support (bumped) in reverse order, then other columns unsorted."""
    others = np.setdiff1d(np.random.default_rng(0).permutation(P)[:60], mu.support)
    return np.concatenate([np.asarray(mu.support[::-1]), others[::-1]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_column_reads_equal_whole_block(dtype):
    mu, ds = draw(dtype)
    idx = columns_to_read(mu)
    alone = ds.unlabeled_columns(idx)  # nothing else drawn yet
    whole = ds.unlabeled_x
    assert alone.dtype == whole.dtype == dtype
    assert alone.flags.c_contiguous and alone.flags.writeable
    assert alone.tobytes() == whole[:, idx].tobytes()
    kept = ds.unlabeled_columns(idx)  # from the kept block
    assert kept.flags.c_contiguous and kept.tobytes() == alone.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prefix_view_columns_equal_whole_block(dtype):
    mu, ds = draw(dtype)
    idx = columns_to_read(mu)
    view = ds.prefix(2, 37)
    assert (view.L, view.n, view.p) == (2, 37, P)
    alone = view.unlabeled_columns(idx)
    assert alone.shape == (37, idx.size)
    assert alone.tobytes() == ds.unlabeled_x[:37, idx].tobytes()
    kept = view.unlabeled_columns(idx)  # from the kept block, through the view
    assert kept.flags.c_contiguous and kept.tobytes() == alone.tobytes()
    assert view.unlabeled_x.tobytes() == ds.unlabeled_x[:37].tobytes()
    assert view.labeled_x.tobytes() == ds.labeled_x[:2].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_column_is_its_keyed_stream(dtype):
    # column j: the first n normals of Philox under the key (noise seed, j),
    # plus y * mu_j on the support
    mu, ds = draw(dtype)
    data_seed = 3 + 1  # draw()'s sample_dataset seed
    noise_seed, n = mix64(data_seed, STREAM_UNLABELED_NOISE), ds.n
    y = (generator(mix64(data_seed, STREAM_UNLABELED_Y)).integers(0, 2, size=n) * 2 - 1).astype(dtype)
    j_off = next(j for j in range(P) if j not in mu.support)
    j_on, sign = mu.support[0], mu.signs[0]
    for j, bump in ((j_off, None), (j_on, dtype(sign) * dtype(mu.magnitude))):
        want = np.random.Generator(np.random.Philox(key=noise_seed + (j << 64))) \
            .standard_normal(n, dtype=dtype)
        if bump is not None:
            want += y * bump
        assert ds.unlabeled_columns([j])[:, 0].tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_whole_block_independent_of_thread_count(monkeypatch, dtype):
    blocks = []
    for threads in (1, 2):
        monkeypatch.setattr(gmodel, "_draw_threads", lambda threads=threads: threads)
        blocks.append(draw(dtype)[1].unlabeled_x)
    assert blocks[0].tobytes() == blocks[1].tobytes()
    assert not blocks[0].flags.writeable


def test_pool_worker_draws_on_its_share_of_the_cores(monkeypatch):
    monkeypatch.setattr(gmodel.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    monkeypatch.setattr(gmodel, "_processes", 1)
    assert gmodel._draw_threads() == 8
    gmodel.share_cores(3)
    assert gmodel._draw_threads() == 2
    gmodel.share_cores(16)
    assert gmodel._draw_threads() == 1


def test_column_read_rejects_bad_requests():
    mu = make_sparse_mean(ProblemParams(p=10, k=2, lam=1.0, L=0, n=4), seed=0)
    source = UnlabeledSource(mu, 4, 1, 2, np.float64)
    with pytest.raises(gmodel.InvalidSupportError):
        source.columns([10])
    with pytest.raises(gmodel.ConfigError):
        source.columns([0], n=5)


def spy_whole(monkeypatch) -> list[bool]:
    """Record each call of UnlabeledSource.whole: True when it draws."""
    calls = []
    original = UnlabeledSource.whole

    def spied(self):
        calls.append(self.block is None)
        return original(self)

    monkeypatch.setattr(UnlabeledSource, "whole", spied)
    return calls


def config(methods, **kw):
    return ExperimentConfig(params=ProblemParams(p=600, k=6, lam=3.0, L=40, n=120, seed=5),
                            methods=methods, trials=1, beta_tilde=0.4, **kw)


@pytest.mark.parametrize("method", ["lspca", "ls2pca"])
def test_lspca_trial_never_draws_the_whole_block(monkeypatch, method):
    calls = spy_whole(monkeypatch)
    try:
        rec = run_trial(config((method,)), method, (40, 120), 0)
    finally:
        harness._draw.cache_clear()
    assert not rec.failed
    assert calls == []


def test_self_train_trial_draws_the_whole_block_once(monkeypatch):
    calls = spy_whole(monkeypatch)
    records, _ = run_sweep(config(("lspca", "self_train")), threads=1)
    assert not any(r.failed for r in records)
    assert calls == [True]


def test_sweep_draws_the_whole_block_once_per_trial(monkeypatch):
    calls = spy_whole(monkeypatch)
    cfg = config(("lspca", "self_train", "vanilla_pca"), sweep_axis="n",
                 sweep_values=(60, 120))
    records, _ = run_sweep(cfg, threads=1)
    assert not any(r.failed for r in records)
    assert sum(calls) == 1


def test_lspca_records_do_not_depend_on_the_whole_block():
    # lspca first draws its columns alone; after self_train it slices them
    # from the whole block
    alone, _ = run_sweep(config(("lspca",)), threads=1)
    after, _ = run_sweep(config(("self_train", "lspca")), threads=1)
    after = [r for r in after if r.method == "lspca"]
    key = [(r.overlap, r.gen_error, r.excess_risk, r.seed) for r in alone]
    assert key == [(r.overlap, r.gen_error, r.excess_risk, r.seed) for r in after]
