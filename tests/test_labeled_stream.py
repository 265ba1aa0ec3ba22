"""The labeled rows are drawn on read, and their class sums drop them.

The estimators' labeled statistics come from one per-draw statistic, the
float64 sums of each class's rows added in row order. It reads the labeled
block when the block is drawn and otherwise draws the rows it lacks as one
range and drops them once added; both must give the same bits, at every
prefix, in any order the prefixes are asked for, on any number of draw
threads. A trial draws each labeled row once: the block up front when a
configured method reads the rows themselves, otherwise only the ranges the
sums lack, extended as an L-sweep grows. An lspca-only trial never holds
the labeled block beside its screened columns.
"""

import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from sslgauss import estimators, gmodel, harness
from sslgauss.errors import InsufficientSamplesError, MissingClassError
from sslgauss.estimators import METHODS, resolve_beta_tilde, screened_count
from sslgauss.gmodel import LabeledSource, ProblemParams, make_sparse_mean, sample_dataset
from sslgauss.harness import ExperimentConfig, run_sweep

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _statistics(ds):
    """The mean difference and the signed sum, with their orders, as bytes."""
    w, order = estimators._mean_difference(ds)
    total, mean, signed_order = estimators._signed_sum(ds)
    return [a.tobytes() for a in (w, order, total, mean, signed_order)]


# (dtype, draw threads, first row read alone): the 2-thread read from row 5
# is the case named f32 or f64, and row 37 = L is an empty range
READS = [pytest.param(dtype, threads, start, id=name + suffix)
         for dtype, name in ((np.float32, "f32"), (np.float64, "f64"))
         for threads, start, suffix in ((2, 5, ""), (1, 5, "-1thread"), (3, 5, "-3threads"),
                                        (2, 37, "-empty"))]


@pytest.mark.parametrize("dtype, threads, start", READS)
def test_streamed_sums_equal_the_drawn_block(monkeypatch, dtype, threads, start):
    # the prefixes grow, then shrink, so the sums extend and restart
    monkeypatch.setattr(gmodel, "_draw_threads", lambda: threads)
    p, L = 300, 37
    mu = make_sparse_mean(ProblemParams(p=p, k=6, lam=3.0, L=L, n=10), seed=2)
    streamed = sample_dataset(mu, L, 10, seed=3, dtype=dtype)
    drawn = sample_dataset(mu, L, 10, seed=3, dtype=dtype)
    xs, ys = drawn.labeled_x, drawn.labeled_y
    pools = []

    def pool(max_workers):
        pools.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(gmodel, "ThreadPoolExecutor", pool)
    rows = streamed.labeled_rows(start)
    # one pool of the draw threads, none for an empty range
    assert pools == ([threads] if start < L else [])
    assert rows.tobytes() == xs[start:].tobytes()
    for prefix in (5, 19, 37, 30, 11, 37):
        got = _statistics(streamed.prefix(prefix, 10))
        assert got == _statistics(drawn.prefix(prefix, 10)), prefix
        x, y = xs[:prefix], ys[:prefix]
        means = [x[y == c].mean(axis=0, dtype=np.float64) for c in (1, -1)]
        assert got[0] == (means[0] - means[1]).tobytes()
    assert streamed._labeled.block is None


def test_class_sum_errors_are_unchanged():
    # a one-class prefix has a signed sum but no mean difference; L = 0 has neither
    mu = make_sparse_mean(ProblemParams(p=50, k=3, lam=3.0, L=20, n=30), seed=4)
    ds = sample_dataset(mu, 20, 30, seed=5)
    pp = ProblemParams(p=50, k=3, lam=3.0, L=1, n=30)
    one = ds.prefix(1, 30)
    with pytest.raises(MissingClassError):
        METHODS["lspca"](one, pp, 0.4, 0.8)
    assert METHODS["top_k_labeled"](one, pp, 0.4, 0.8).support.size == 3
    none = ds.prefix(0, 30)
    for statistic in (estimators._mean_difference, estimators._signed_sum):
        with pytest.raises(InsufficientSamplesError):
            statistic(none)


def spy_fills(monkeypatch) -> list[tuple]:
    """Record each labeled fill as (source, rows, part of a whole-block draw)."""
    fills, whole = [], []
    fill, draw_all = LabeledSource._fill, LabeledSource._draw_all

    def spied_fill(self, out, keys):
        fills.append((self, keys, bool(whole)))
        return fill(self, out, keys)

    def spied_draw_all(self):
        whole.append(True)
        try:
            return draw_all(self)
        finally:
            whole.pop()

    monkeypatch.setattr(LabeledSource, "_fill", spied_fill)
    monkeypatch.setattr(LabeledSource, "_draw_all", spied_draw_all)
    return fills


def _config(methods, L=40, n=120, **kw):
    return ExperimentConfig(params=ProblemParams(p=400, k=6, lam=3.0, L=L, n=n, seed=7),
                            methods=methods, trials=2, beta_tilde=0.4, **kw)


def labeled_sweep_config():
    """scripts/configs/labeled_sweep.cfg at p = 300, n = 60, two trials."""
    raw = harness.parse_config_text((CONFIGS / "labeled_sweep.cfg").read_text())
    raw.update(p="300", n="60", trials="2", sweep_values="10,20,40,80")
    return harness.config_from_dict(raw)


@pytest.mark.parametrize("case", ["lspca", "n_sweep", "L_sweep", "all_methods"])
def test_each_labeled_row_is_drawn_once_per_trial(monkeypatch, case):
    config, whole = {
        "lspca": (_config(("lspca",)), False),
        "n_sweep": (_config(("lspca", "ls2pca", "top_k_labeled", "self_train"),
                            sweep_axis="n", sweep_values=(40, 60, 80, 100, 120)), False),
        "L_sweep": (labeled_sweep_config(), False),
        "all_methods": (_config(tuple(METHODS)), True),
    }[case]
    fills = spy_fills(monkeypatch)
    records, _ = run_sweep(config)
    assert not any(r.failed for r in records)
    sources = {id(source): source for source, *_ in fills}
    assert len(sources) == config.trials
    for source in sources.values():
        mine = [(keys, from_whole) for s, keys, from_whole in fills if s is source]
        assert Counter(i for keys, _ in mine for i in keys) == Counter(range(source.shape[0]))
        # every row comes from the whole-block draw, or every one from the sums' ranges
        assert {from_whole for _, from_whole in mine} == {whole}
        assert (source.block is not None) == whole


def test_lspca_trial_holds_no_labeled_block():
    # p = 20000, L = 200, n = 400 in float32: the labeled block is 16 MB and
    # lspca's screened block (400 x 2760) 4.4 MB. The class sums draw the
    # 200 rows as one range, add them into two float64 sums (0.3 MB) and
    # drop them before the screened columns are drawn: the trial peaks near
    # the labeled block, at 17.2 MB. A trial that kept the labeled block
    # while it drew the screened columns peaked at 23.1 MB, above both.
    pp = ProblemParams(p=20000, k=52, lam=3.0, L=200, n=400, seed=11)
    config = ExperimentConfig(params=pp, methods=("lspca",), trials=1, f32=True,
                              beta_tilde=0.2)
    tracemalloc.start()
    try:
        (record,) = harness._run_trial_task((config, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not record.failed
    labeled = pp.L * pp.p * 4
    screened = pp.n * screened_count(pp.p, resolve_beta_tilde(pp, 0.2)) * 4
    assert peak < labeled + screened, \
        f"peak {peak / 1e6:.1f} MB, blocks {labeled / 1e6:.1f} + {screened / 1e6:.1f} MB"
