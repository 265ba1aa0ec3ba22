"""The draw threads are one pool per process.

Every striped draw (labeled rows, unlabeled columns and tiles, the class
sums' chunks) runs on one pool of the process's draw threads, built on first
use and rebuilt only when the thread count changes or in a forked child. A
call returns or raises only once every one of its stripes has finished.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import strip_runtime
from sslgauss import gmodel, harness
from sslgauss.gmodel import ProblemParams, make_sparse_mean, sample_dataset
from sslgauss.harness import ExperimentConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def draw_everything(seed: int) -> list[bytes]:
    """A draw's labeled and unlabeled blocks, some columns, its tiles and a
    trial's class sums, as bytes."""
    mu = make_sparse_mean(ProblemParams(p=500, k=5, lam=3.0, L=30, n=40), seed=seed)
    ds = sample_dataset(mu, 30, 40, seed=seed)
    tiles = []
    ds.unlabeled_tiles(lambda lo, tile: tiles.append((lo, tile.tobytes())))
    got = [ds.labeled_rows(3, 30).tobytes(), ds.unlabeled_columns([0, 7, 499]).tobytes(),
           *(t for _, t in sorted(tiles)), ds.labeled_x.tobytes(), ds.unlabeled_x.tobytes()]
    config = ExperimentConfig(params=ProblemParams(p=500, k=5, lam=3.0, L=30, n=40, seed=seed),
                              methods=("top_k_labeled", "self_train"), trials=1)
    records = harness._run_trial_task((config, 0))
    return got + [strip_runtime("\n".join(rec.csv_row() for rec in records))]


def test_one_pool_serves_every_draw(monkeypatch, draw_pools):
    # a small budget cuts every read into many chunks and tiles; each
    # striped call used to start and join a pool of its own
    monkeypatch.setattr(gmodel, "_draw_threads", lambda: 2)
    monkeypatch.setattr(gmodel, "_DRAW_BYTES", 2 * 40 * 8)
    for seed in range(3):
        draw_everything(seed)
    assert [pool.threads for pool in draw_pools] == [2]


def test_pool_is_rebuilt_when_the_thread_count_changes(monkeypatch, draw_pools):
    monkeypatch.setattr(gmodel, "_DRAW_BYTES", 2 * 40 * 8)
    draws = []
    for threads in (2, 3, 3, 1, 2):
        monkeypatch.setattr(gmodel, "_draw_threads", lambda threads=threads: threads)
        draws.append(draw_everything(0))
    # one draw thread draws on the calling thread and leaves the pool alone
    assert [pool.threads for pool in draw_pools] == [2, 3, 2]
    assert all(d == draws[0] for d in draws)
    # a replaced pool is shut down; the live one takes work
    for pool in draw_pools[:2]:
        with pytest.raises(RuntimeError):
            pool.submit(int)
    assert draw_pools[2].submit(int, 4).result() == 4


def test_failing_stripe_raises_after_every_stripe_finishes(monkeypatch, draw_pools):
    monkeypatch.setattr(gmodel, "_draw_threads", lambda: 2)
    started, raised, finished = threading.Event(), threading.Event(), threading.Event()

    def stripe(first: int, step: int) -> None:
        if first == 0:
            assert started.wait(10)
            raised.set()
            raise ValueError("stripe 0")
        started.set()
        assert raised.wait(10)
        time.sleep(0.2)  # still running when stripe 0 has raised
        finished.set()

    with pytest.raises(ValueError, match="stripe 0"):
        gmodel._on_draw_threads(2, stripe)
    assert finished.is_set()
    # the pool survives a failed call
    done = []
    gmodel._on_draw_threads(gmodel._stripes(5),
                            lambda first, step: done.extend(range(first, 5, step)))
    assert sorted(done) == list(range(5))
    assert len(draw_pools) == 1


def spy_on_empty(monkeypatch) -> list:
    """(thread, element count) of every np.empty call from now on."""
    calls = []
    empty = np.empty

    def spied(shape, *args, **kwargs):
        arr = empty(shape, *args, **kwargs)
        calls.append((threading.get_ident(), arr.size))
        return arr

    monkeypatch.setattr(np, "empty", spied)
    return calls


@pytest.mark.parametrize("threads, p, budget", [
    (2, 500, 2 * 40 * 8),  # many two-column tiles on two threads
    (2, 5, 40 * 8 - 1),  # one column is over the budget: one-column tiles
    (2, 500, None),  # one tile, fewer than the draw threads
    (3, 500, 250 * 40 * 8),  # two tiles on three draw threads
])
def test_no_draw_thread_allocates_a_tile_buffer(monkeypatch, draw_pools, threads, p, budget):
    # A draw thread's freed arrays stay in its own malloc arena, where the
    # caller's later arrays do not reuse them, so the calling thread
    # allocates every stripe's buffers. The bits do not depend on who did.
    n = 40
    mu = make_sparse_mean(ProblemParams(p=p, k=5, lam=3.0, L=2, n=n), seed=4)
    whole = sample_dataset(mu, 2, n, seed=5).unlabeled_x
    monkeypatch.setattr(gmodel, "_draw_threads", lambda: threads)
    if budget is not None:
        monkeypatch.setattr(gmodel, "_DRAW_BYTES", budget)
    width = min(gmodel._draws_that_fit(n, np.float64), p)
    calls = spy_on_empty(monkeypatch)
    caller = threading.get_ident()

    def tile_pass(ds) -> None:
        tiles = {}
        ds.unlabeled_tiles(lambda lo, tile: tiles.setdefault(lo, tile.tobytes()))
        assert sorted(tiles) == list(range(0, p, width))
        for lo, got in tiles.items():
            assert got == whole[:, lo:lo + width].tobytes()

    tile_pass(sample_dataset(mu, 2, n, seed=5))
    idx = [p - 1, 0, *range(3, p, 7)]
    columns = sample_dataset(mu, 2, n, seed=5).unlabeled_columns(idx)
    block = sample_dataset(mu, 2, n, seed=5).unlabeled_x
    assert [size for thread, size in calls if thread != caller and size >= width * n] == []
    assert columns.tobytes() == whole[:, idx].tobytes()
    assert block.tobytes() == whole.tobytes()

    held = sample_dataset(mu, 2, n, seed=5)
    held.unlabeled_x
    calls.clear()
    tile_pass(held)
    assert calls == []


def test_pool_workers_after_the_parent_drew(tmp_path):
    # a forked pool worker inherits its parent's pool object but none of its
    # threads: reusing it would hang the worker's first draw. The timeout
    # turns such a hang into a failure.
    script = textwrap.dedent("""
        from dataclasses import replace
        from sslgauss import gmodel
        from sslgauss.gmodel import ProblemParams, make_sparse_mean, sample_dataset
        from sslgauss.harness import ExperimentConfig, run_sweep

        gmodel._draw_threads = lambda: 2  # two draw threads whatever the cores
        mu = make_sparse_mean(ProblemParams(p=500, k=5, lam=3.0, L=30, n=40), seed=1)
        sample_dataset(mu, 30, 40, seed=1).labeled_x
        assert gmodel._pool is not None
        config = ExperimentConfig(
            params=ProblemParams(p=2000, k=10, lam=3.0, L=40, n=100, seed=5),
            methods=("lspca", "top_k_labeled", "self_train"), trials=2,
            sweep_axis="n", sweep_values=(50, 100))
        pooled, _ = run_sweep(replace(config, threads=2))
        serial, _ = run_sweep(config)

        def stripped(records):
            rows = [r.csv_row().split(",") for r in records]
            for row in rows:
                del row[11]  # runtime_ms
            return rows

        assert stripped(pooled) == stripped(serial) and len(serial) == 12
        print("ok")
    """)
    # its own session, so that a hang's pool workers are killed with it
    proc = subprocess.Popen([sys.executable, "-c", script], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 0 and out.strip() == "ok", err
