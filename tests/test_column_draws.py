"""Column-keyed unlabeled draws and row-keyed labeled draws.

Every read of an unlabeled column gives the same bits: drawn alone or with
the whole block, in any order, at any row prefix and on any number of
threads. A trial draws the whole block only when a configured method reads
it whole; lspca and ls2pca read only their screened columns, and
self_train reduces every column in one tile pass per trial that draws each
column once and keeps none, with the records of a held block. Each labeled row
is its own keyed stream: the block's bits do not depend on the number of
draw threads, and a smaller L draws a prefix of the rows.
"""

import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import strip_runtime
from sslgauss import gmodel, harness
from sslgauss.errors import ContractError
from sslgauss.estimators import self_train
from sslgauss.gmodel import (STREAM_LABELED_NOISE, STREAM_LABELED_Y, STREAM_UNLABELED_NOISE,
                             STREAM_UNLABELED_Y, Dataset, LabeledSource, ProblemParams,
                             UnlabeledSource, k_from_alpha, make_sparse_mean, sample_dataset)
from sslgauss.harness import ExperimentConfig, run_sweep, run_trial
from sslgauss.rng import generator, mix64

P = 700  # three tiles of 256 columns, the width a test sets for n = 90


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
    # the budget of 256 columns of n = 90 rows cuts three tiles
    monkeypatch.setattr(gmodel, "_DRAW_BYTES", 256 * 90 * np.dtype(dtype).itemsize)
    blocks = []
    for threads in (1, 2, 4):  # 4 threads for 3 tiles: one thread per tile
        monkeypatch.setattr(gmodel, "_draw_threads", lambda threads=threads: threads)
        blocks.append(draw(dtype)[1].unlabeled_x)
    assert blocks[0].tobytes() == blocks[1].tobytes() == blocks[2].tobytes()
    assert not blocks[0].flags.writeable


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_labeled_row_is_its_keyed_stream(dtype):
    # row i: the first p normals of Philox under the key (noise seed, i),
    # plus y_i * mu_j on the support columns j
    mu, ds = draw(dtype, L=9)
    data_seed = 3 + 1  # draw()'s sample_dataset seed
    noise_seed = mix64(data_seed, STREAM_LABELED_NOISE)
    y = (generator(mix64(data_seed, STREAM_LABELED_Y)).integers(0, 2, size=9) * 2 - 1)
    assert ds.labeled_y.tolist() == y.tolist()
    assert ds.labeled_x.dtype == dtype and not ds.labeled_x.flags.writeable
    for i in range(9):
        # an array key: Philox reads a list of ints past 2**63 through float64
        key = np.array([noise_seed, i], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal(P, dtype=dtype)
        for j, sign in zip(mu.support, mu.signs):
            want[j] += dtype(y[i]) * (dtype(sign) * dtype(mu.magnitude))
        assert ds.labeled_x[i].tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_labeled_block_independent_of_thread_count(monkeypatch, dtype):
    blocks = []
    for threads in (1, 2, 3):  # 3 threads for 7 rows: uneven stripes
        monkeypatch.setattr(gmodel, "_draw_threads", lambda threads=threads: threads)
        blocks.append(draw(dtype, L=7)[1].labeled_x)
    monkeypatch.undo()
    monkeypatch.setattr(gmodel, "_processes", 1)
    gmodel.share_cores(2)
    blocks.append(draw(dtype, L=7)[1].labeled_x)
    assert len({b.tobytes() for b in blocks}) == 1


def test_smaller_labeled_draw_is_a_prefix():
    full = draw(np.float64, L=8)[1]
    for L in (0, 1, 5):
        part = draw(np.float64, L=L)[1]
        assert part.labeled_x.shape == (L, P)
        assert part.labeled_x.tobytes() == full.labeled_x[:L].tobytes()
        assert part.labeled_y.tobytes() == full.labeled_y[:L].tobytes()


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
        source.columns([10], 4)
    with pytest.raises(gmodel.ConfigError):
        source.columns([0], 5)


@pytest.mark.parametrize("threads", [1, 2])
def test_empty_column_read(monkeypatch, threads):
    monkeypatch.setattr(gmodel, "_draw_threads", lambda: threads)
    mu = make_sparse_mean(ProblemParams(p=10, k=2, lam=1.0, L=0, n=4), seed=0)
    source = UnlabeledSource(mu, 4, 1, 2, np.float32)
    empty = source.columns([], 4)
    assert empty.shape == (4, 0) and empty.dtype == np.float32
    assert source.columns([], 0).shape == (0, 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tiles_equal_views_of_the_whole_block(dtype):
    # A tile is w columns of the n = 200 rows, as many as fit the draw
    # threads' byte budget, so p = 2w + 1 leaves a one-column last tile.
    # Drawn tiles, with some columns copied in rather than drawn, have the
    # bits and the layout of the held block's views, so self_train gives the
    # same bytes from either, at every point of the grid.
    w = gmodel._draws_that_fit(200, dtype)
    pp = ProblemParams(p=2 * w + 1, k=5, lam=3.0, L=30, n=200)
    mu = make_sparse_mean(pp, seed=2)
    tiles, outputs = [], []
    for held in (False, True):
        ds = sample_dataset(mu, 30, 200, seed=3, dtype=dtype)
        ds.grid = ((10, 200), (30, 50), (30, 200))
        drawn = {j: ds.unlabeled_columns([j])[:, 0] for j in (0, w + 44, 2 * w)}
        if held:
            ds.unlabeled_x
        got = {}
        ds.unlabeled_tiles(lambda lo, tile: got.setdefault(lo, (tile.tobytes(), tile.strides[1])),
                           drawn)
        tiles.append(got)
        outputs.append([self_train(ds.prefix(L, n), 5, 0.8) for L, n in ds.grid])
    assert sorted(tiles[0]) == [0, w, 2 * w]
    assert tiles[0] == tiles[1]
    for streamed, held in zip(*outputs):
        assert streamed.aux == held.aux and streamed.aux["n_eff"] > 0
        assert streamed.direction.tobytes() == held.direction.tobytes()


@pytest.mark.parametrize("held", ["whole", "arrays"])
def test_held_sources_serve_every_read_without_drawing(monkeypatch, held):
    # Once a source holds its block, drawn by whole() or a caller's array,
    # it serves rows and tiles as views of the block and columns as a copy,
    # and draws nothing; tiles of a held block need a range of step 1.
    mu, ds = draw(np.float32, L=20)
    labeled, unlabeled = ds.labeled_x, ds.unlabeled_x
    if held == "arrays":
        labeled, unlabeled = labeled.copy(), unlabeled.copy()
        ds = Dataset(labeled, ds.labeled_y, unlabeled)
    fills = []
    for cls in (LabeledSource, UnlabeledSource):
        monkeypatch.setattr(cls, "_fill", lambda self, *args, fill=cls._fill:
                            fills.append(self) or fill(self, *args))
    rows = ds._labeled.rows(3, 17)
    assert np.shares_memory(rows, labeled) and rows.tobytes() == labeled[3:17].tobytes()
    idx = columns_to_read(mu)
    cols = ds._unlabeled.columns(idx, 37)
    assert cols.flags.c_contiguous and not np.shares_memory(cols, unlabeled)
    assert cols.tobytes() == unlabeled[:37, idx].tobytes()
    tiles = []
    ds._unlabeled.tiles(range(P), 37, lambda lo, tile: tiles.append((lo, tile)))
    assert sorted(lo for lo, _ in tiles) == list(range(0, P, gmodel._draws_that_fit(37, np.float32)))
    for lo, tile in tiles:
        assert np.shares_memory(tile, unlabeled)
        assert tile.tobytes() == unlabeled[:37, lo:lo + tile.shape[1]].tobytes()
    for cols in ([0, 2, 5], range(0, P, 2)):
        with pytest.raises(ContractError):
            ds._unlabeled.tiles(cols, 37, lambda lo, tile: None)
    assert fills == []
    draw(np.float32)[1]._labeled.rows(0, 2)  # a source that holds no block draws
    assert fills


def spy_whole(monkeypatch) -> list[bool]:
    """Record each call of UnlabeledSource.whole: True when it draws."""
    calls = []
    original = UnlabeledSource.whole

    def spied(self):
        calls.append(self.block is None)
        return original(self)

    monkeypatch.setattr(UnlabeledSource, "whole", spied)
    return calls


P_CONFIG = 600  # config()'s p: one tile of the n <= 120 float64 rows


def config(methods, **kw):
    return ExperimentConfig(params=ProblemParams(p=P_CONFIG, k=6, lam=3.0, L=40, n=120, seed=5),
                            methods=methods, trials=1, beta_tilde=0.4, **kw)


def csv_text(records) -> str:
    return strip_runtime("\n".join(rec.csv_row() for rec in records))


@pytest.mark.parametrize("method", ["lspca", "ls2pca"])
def test_lspca_trial_never_draws_the_whole_block(monkeypatch, method):
    calls = spy_whole(monkeypatch)
    try:
        rec = run_trial(config((method,)), method, (40, 120), 0)
    finally:
        harness._draw.cache_clear()
    assert not rec.failed
    assert calls == []


def test_self_train_trial_never_draws_the_whole_block(monkeypatch):
    calls = spy_whole(monkeypatch)
    records, _ = run_sweep(config(("lspca", "self_train")))
    assert not any(r.failed for r in records)
    assert calls == []


def test_sweep_draws_the_whole_block_once_per_trial(monkeypatch):
    calls = spy_whole(monkeypatch)
    cfg = config(("lspca", "self_train", "vanilla_pca"), sweep_axis="n",
                 sweep_values=(60, 120))
    records, _ = run_sweep(cfg)
    assert not any(r.failed for r in records)
    assert sum(calls) == 1


def test_lspca_records_do_not_depend_on_the_whole_block():
    # Alone, lspca draws its columns and self_train its tiles; beside
    # vanilla_pca, whose trial draws the whole block up front, both read
    # views of it. The records must be byte-identical, at every point.
    sweep = {"sweep_axis": "n", "sweep_values": (60, 91, 120)}
    streamed, _ = run_sweep(config(("lspca", "self_train"), **sweep))
    held, _ = run_sweep(config(("self_train", "lspca", "vanilla_pca"), **sweep))
    held = [r for r in held if r.method != "vanilla_pca"]
    assert not any(r.failed for r in streamed)
    assert {r.method for r in streamed} == {"lspca", "self_train"}
    assert csv_text(streamed) == csv_text(held)


def spy_unlabeled_fills(monkeypatch) -> list[tuple]:
    """Record each unlabeled keyed fill as (source, column keys)."""
    fills = []
    fill = UnlabeledSource._fill

    def spied(self, gen, rows, keys):
        fills.append((self, list(keys)))
        return fill(self, gen, rows, keys)

    monkeypatch.setattr(UnlabeledSource, "_fill", spied)
    return fills


@pytest.mark.parametrize("sweep", [("n", (40, 60, 80, 100, 120)), ("L", (10, 20, 40))],
                         ids=["n_sweep", "L_sweep"])
def test_each_unlabeled_column_is_drawn_once_per_trial(monkeypatch, sweep):
    # self_train serves every point of a trial from one tile pass, which
    # reuses the pilot columns its scores read: a pass per point would draw
    # each column once per point
    axis, values = sweep
    cfg = replace(config(("top_k_labeled", "self_train"), sweep_axis=axis, sweep_values=values),
                  trials=2)
    fills = spy_unlabeled_fills(monkeypatch)
    records, _ = run_sweep(cfg)
    assert not any(r.failed for r in records)
    sources = {id(source): source for source, _ in fills}
    assert len(sources) == cfg.trials
    for source in sources.values():
        keys = Counter(j for s, cols in fills if s is source for j in cols)
        assert keys == Counter(range(P_CONFIG))
        assert source.block is None


def test_n_sweep_trial_holds_no_unlabeled_block(monkeypatch):
    # p = 8000, L = 100, n up to 800 in float64: the unlabeled block is 51.2
    # MB. Its tiles are drawn, reduced for every point and dropped: the
    # trial holds one chunk of the labeled rows (16 rows per draw thread,
    # 2.0 MB) while their class sums add them, two 800 x 163 tile buffers
    # per draw thread (1 MiB each) and lspca's screened columns, a peak of
    # 5.4 MB (7.4 MB with the 100 rows, 6.4 MB, as one chunk; 9.6 MB with
    # 256-column tiles as well). Two draw threads keep the bound off the
    # core count. Drawing the whole block for self_train's product peaked at
    # 55.1 MB.
    monkeypatch.setattr(gmodel, "_draw_threads", lambda: 2)
    pp = ProblemParams(p=8000, k=k_from_alpha(8000, 0.4), lam=3.0, L=100, n=800, seed=9)
    cfg = ExperimentConfig(params=pp, methods=("lspca", "ls2pca", "top_k_labeled", "self_train"),
                           trials=1, sweep_axis="n", sweep_values=(100, 200, 400, 800),
                           beta_tilde=0.4)
    tracemalloc.start()
    try:
        records = harness._run_trial_task((cfg, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not any(r.failed for r in records)
    block = pp.n * pp.p * 8
    assert peak < block / 2, f"peak {peak / 1e6:.1f} MB, unlabeled block {block / 1e6:.1f} MB"
